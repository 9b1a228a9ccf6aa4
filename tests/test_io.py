import itertools
import json
import os
import struct
import sys
import tempfile
import threading
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from embadapt import (
    EmbeddingTable,
    TrainConfig,
    init_adapter,
    load_checkpoint,
    load_qrels_tsv,
    read_embeddings,
    save_checkpoint,
    write_embeddings,
)
from embadapt.cli import main
from embadapt.data import TextItem
from embadapt.errors import FetchError, FormatError
from embadapt.io import (
    BACKOFF_CAP_SECONDS,
    EncoderEndpointConfig,
    fetch_embeddings,
    load_jsonl_items,
)


class TestLoadJsonlItems:
    def test_basic_mapping(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text('{"_id":"q2","text":"what is x"}\n{"_id":1,"text":"y"}\n')
        assert load_jsonl_items(path) == [TextItem("q2", "what is x"), TextItem("1", "y")]

    def test_title_preserved(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"_id":"c1","text":"body","title":"heading"}\n')
        assert load_jsonl_items(path)[0].title == "heading"

    def test_duplicate_id_names_offender(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"_id":"c1","text":"a"}\n{"_id":"c1","text":"b"}\n')
        with pytest.raises(FormatError, match=r"corpus\.jsonl: duplicate item id: 'c1'$"):
            load_jsonl_items(path)

    def test_empty_id_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"_id":"c1","text":"a"}\n{"_id":"","text":"b"}\n')
        with pytest.raises(FormatError, match=r"corpus\.jsonl:2: empty '_id'"):
            load_jsonl_items(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"_id":"q1","text":"ok"}\nnot json\n')
        with pytest.raises(FormatError, match=":2"):
            load_jsonl_items(path)

    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert len(load_jsonl_items(path)) == 0

    def test_non_utf8_bytes_name_file_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"_id":"q1","text":"ok"}\n{"_id":"q2","text":"\xff"}\n')
        with pytest.raises(FormatError, match=r"bad\.jsonl:2: not valid UTF-8"):
            load_jsonl_items(path)

    def test_id_that_utf8_cannot_encode_names_file_and_line(self, tmp_path):
        # a JSON escape of a lone surrogate parses, but no UTF-8 file can hold it
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"_id":"c1","text":"a"}\n{"_id":"c\\ud800","text":"b"}\n')
        with pytest.raises(FormatError,
                           match=r"corpus\.jsonl:2: '_id' 'c\\ud800' cannot be encoded as UTF-8"):
            load_jsonl_items(path)

    @pytest.mark.parametrize("line, field", [
        ('{"_id": null, "text": "x"}', "_id"),
        ('{"_id": true, "text": "x"}', "_id"),
        ('{"_id": 7.0, "text": "x"}', "_id"),
        ('{"_id": "c2", "text": null}', "text"),
        ('{"_id": 7, "text": {"a": 1}}', "text"),
        ('{"_id": "c2", "text": "x", "title": false}', "title"),
        ('{"_id": "c2", "text": "x", "title": 3}', "title"),
    ], ids=["null-id", "bool-id", "float-id", "null-text", "object-text",
            "bool-title", "number-title"])
    def test_non_string_values_name_file_and_line(self, tmp_path, line, field):
        # str() would turn these into Python reprs such as 'None' or "{'a': 1}"
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"_id":"c1","text":"a","title":null}\n' + line + "\n")
        with pytest.raises(FormatError, match=rf"corpus\.jsonl:2: '{field}' is not a string"):
            load_jsonl_items(path)


class TestLoadQrelsTsv:
    def test_rows_mapped_and_zero_dropped(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\tc3\t1\nq1\tc4\t0\n")
        rels = load_qrels_tsv(path)
        assert rels.triplets == [("q1", "c3", 1.0)]

    def test_graded_relevance_preserved(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\tc1\t2\nq1\tc2\t1\n")
        assert load_qrels_tsv(path).positives_for("q1") == {"c1": 2.0, "c2": 1.0}

    def test_header_row_skipped(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("query-id\tcorpus-id\tscore\nq1\tc1\t1\n")
        assert load_qrels_tsv(path).triplets == [("q1", "c1", 1.0)]

    def test_non_numeric_score_mid_file(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\tc1\t1\nq2\tc2\toops\n")
        with pytest.raises(FormatError, match=":2"):
            load_qrels_tsv(path)

    def test_non_utf8_bytes_name_file_and_line(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        # line 2 is valid UTF-8 beyond ASCII, line 3 has a stray 0xff
        path.write_bytes(b"q1\tc1\t1\nq\xc3\xa9\tc2\t1\nq3\tc\xff\t1\n")
        with pytest.raises(FormatError, match=r"qrels\.tsv:3: not valid UTF-8"):
            load_qrels_tsv(path)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_score_rejected(self, tmp_path, score):
        path = tmp_path / "qrels.tsv"
        path.write_text(f"q1\tc1\t1\nq2\tc2\t{score}\n")
        with pytest.raises(FormatError, match=":2: non-finite score"):
            load_qrels_tsv(path)


def random_table(rng, n=3, dim=4, tag="enc-v1"):
    vecs = rng.standard_normal((n, dim)).astype(np.float32)
    return EmbeddingTable([f"id{i}" for i in range(n)], vecs, tag)


def write_embeddings_v1(table, path):
    """The version 1 writer, which the package no longer has: one
    u16-prefixed id and one <f4 vector per record, no checksum."""

    def write_str(f, s):
        raw = s.encode("utf-8")
        f.write(struct.pack("<H", len(raw)))
        f.write(raw)

    with open(path, "wb") as f:
        f.write(b"SADP")
        f.write(struct.pack("<HQI", 1, len(table), table.dim))
        write_str(f, table.encoder_tag)
        for i, item_id in enumerate(table.ids):
            write_str(f, item_id)
            f.write(table.vectors[i].astype("<f4").tobytes())


def oracle_id_blocks(ids):
    """The id-length and id blocks of a v2 file, encoded id by id."""
    encoded = [s.encode("utf-8") for s in ids]
    return struct.pack(f"<{len(ids)}H", *map(len, encoded)), b"".join(encoded)


def oracle_decode_ids(lengths, raw):
    """The ids of a v2 id block, decoded id by id."""
    offsets = [0, *itertools.accumulate(lengths)]
    return [raw[a:b].decode("utf-8") for a, b in zip(offsets, offsets[1:])]


def sadp_v2(ids, vectors, tag=b"", lengths=None, raw=None):
    """A v2 file with a valid CRC32, from ids encoded by the oracle or from
    given id-length and id blocks."""
    if lengths is None:
        lengths, raw = oracle_id_blocks(ids)
    vectors = np.asarray(vectors, dtype="<f4")
    body = (struct.pack("<HQIH", 2, len(vectors), vectors.shape[1], len(tag)) + tag
            + lengths + raw + vectors.tobytes())
    return b"SADP" + body + struct.pack("<I", zlib.crc32(body))


def awkward_table(tag=""):
    ids = ["plain", "caf\u00e9", "\u6f22\u5b57", "nul\x00inside", "new\nline", "\U0001f600", "a"]
    vecs = np.random.default_rng(3).standard_normal((len(ids), 5)).astype(np.float32)
    vecs[0] = [0.0, -0.0, np.finfo(np.float32).tiny, np.finfo(np.float32).max, 1e-45]
    return EmbeddingTable(ids, vecs, tag)


class TestEmbeddingFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        table = random_table(rng)
        path = tmp_path / "t.sadp"
        write_embeddings(table, path)
        loaded = read_embeddings(path)
        assert loaded.ids == table.ids
        assert loaded.encoder_tag == table.encoder_tag
        assert np.array_equal(loaded.vectors, table.vectors)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sadp"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            read_embeddings(path)

    def test_truncated_body(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "t.sadp"
        write_embeddings(random_table(rng, n=2), path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(FormatError, match="truncated"):
            read_embeddings(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "t.sadp"
        write_embeddings(random_table(rng, n=2), path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError, match="trailing"):
            read_embeddings(path)

    def test_header_larger_than_file_refused_before_allocating(self, tmp_path):
        # 20 bytes whose header claims 2^40 records of 2^20 floats
        path = tmp_path / "huge.sadp"
        path.write_bytes(b"SADP" + struct.pack("<HQI", 1, 2**40, 2**20) + b"\x00\x00")
        with pytest.raises(FormatError, match="truncated"):
            read_embeddings(path)

    def test_non_utf8_id_rejected(self, tmp_path):
        path = tmp_path / "bad_id.sadp"
        header = b"SADP" + struct.pack("<HQI", 1, 1, 1) + struct.pack("<H", 0)
        path.write_bytes(header + struct.pack("<H", 1) + b"\xff" + struct.pack("<f", 1.0))
        with pytest.raises(FormatError, match="UTF-8"):
            read_embeddings(path)

    def test_empty_table_refused(self, tmp_path):
        empty = EmbeddingTable([], np.zeros((0, 4), dtype=np.float32))
        with pytest.raises(FormatError, match="empty"):
            write_embeddings(empty, tmp_path / "e.sadp")


class TestEmbeddingFileV2:
    def test_round_trip_bit_exact_awkward_ids_and_empty_tag(self, tmp_path):
        table = awkward_table()
        path = tmp_path / "t.sadp"
        write_embeddings(table, path)
        loaded = read_embeddings(path)
        assert loaded.ids == table.ids
        assert loaded.encoder_tag == ""
        assert loaded.vectors.tobytes() == table.vectors.tobytes()

    def test_layout(self, tmp_path):
        table = EmbeddingTable(["a", "\u00e9"], np.array([[1.0], [2.0]], np.float32), "t")
        path = tmp_path / "t.sadp"
        write_embeddings(table, path)
        body = (struct.pack("<HQIH", 2, 2, 1, 1) + b"t" + struct.pack("<2H", 1, 2)
                + b"a\xc3\xa9" + struct.pack("<2f", 1.0, 2.0))
        assert path.read_bytes() == b"SADP" + body + struct.pack("<I", zlib.crc32(body))

    def test_v1_file_still_read(self, tmp_path):
        table = awkward_table(tag="enc-\u00e9")
        path = tmp_path / "old.sadp"
        write_embeddings_v1(table, path)
        assert path.read_bytes()[4:6] == struct.pack("<H", 1)
        loaded = read_embeddings(path)
        assert loaded.ids == table.ids
        assert loaded.encoder_tag == table.encoder_tag
        assert loaded.vectors.tobytes() == table.vectors.tobytes()

    def test_flipped_vector_byte_fails_checksum(self, tmp_path):
        path = tmp_path / "t.sadp"
        write_embeddings(random_table(np.random.default_rng(4), n=5, dim=8), path)
        data = bytearray(path.read_bytes())
        data[-4 - 4 * 8 * 2] ^= 0x01  # a low mantissa bit, inside the vector block
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="checksum"):
            read_embeddings(path)

    def test_id_lengths_past_end_of_file_are_truncation(self, tmp_path):
        path = tmp_path / "t.sadp"
        write_embeddings(random_table(np.random.default_rng(5), n=2, dim=2), path)
        data = bytearray(path.read_bytes())
        lengths_at = 4 + 16 + len("enc-v1")
        data[lengths_at : lengths_at + 2] = struct.pack("<H", 500)
        path.write_bytes(bytes(data))
        # refused from the file size, before the id bytes are read
        with pytest.raises(FormatError, match="truncated file, .* id lengths imply"):
            read_embeddings(path)

    def test_huge_count_refused_before_allocating(self, tmp_path):
        path = tmp_path / "huge.sadp"
        path.write_bytes(b"SADP" + struct.pack("<HQIH", 2, 2**40, 4, 0) + b"\x00" * 64)
        # a CRC-valid checkpoint whose header claims dim = hidden = 2^31 - 1
        payload = (struct.pack("<HIIBI", 1, 2**31 - 1, 2**31 - 1, 1, 0)
                   + struct.pack("<I", 2) + b"{}" + b"\x00" * 64)
        checkpoint = tmp_path / "huge.sadc"
        checkpoint.write_bytes(b"SADC" + payload + struct.pack("<I", zlib.crc32(payload)))
        for reader, arg in ((read_embeddings, path), (load_checkpoint, str(checkpoint))):
            tracemalloc.start()
            try:
                with pytest.raises(FormatError, match="truncated"):
                    reader(arg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_read_holds_one_copy_of_the_vectors(self, tmp_path):
        n, dim = 20_000, 256
        path = tmp_path / "big.sadp"
        vectors = np.random.default_rng(0).standard_normal((n, dim)).astype(np.float32)
        write_embeddings(EmbeddingTable([f"d{i}" for i in range(n)], vectors, "t"), path)
        del vectors
        tracemalloc.start()
        try:
            table = read_embeddings(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.vectors.shape == (n, dim)
        assert peak < 1.5 * (4 * n * dim)

    def test_non_regular_file_refused(self):
        for reader in (read_embeddings, load_checkpoint):
            with pytest.raises(FormatError, match="not a regular file"):
                reader(os.devnull)

    def test_unknown_version_refused(self, tmp_path):
        path = tmp_path / "v3.sadp"
        path.write_bytes(b"SADP" + struct.pack("<HQIH", 3, 1, 1, 0) + b"\x00" * 10)
        with pytest.raises(FormatError, match="unsupported version 3"):
            read_embeddings(path)

    @settings(deadline=None, max_examples=100, database=None)
    @given(st.lists(st.one_of(st.text(max_size=6),
                              st.sampled_from(["", "\x00", "\n", "\U0001f600", "\u00e9"])),
                    min_size=1, max_size=12, unique=True))
    def test_one_pass_id_blocks_equal_the_per_id_oracle(self, ids):
        vectors = np.arange(len(ids), dtype=np.float32).reshape(-1, 1)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.sadp"
            write_embeddings(EmbeddingTable(ids, vectors, "t"), path)
            assert path.read_bytes() == sadp_v2(ids, vectors, b"t")
            loaded = read_embeddings(path).ids
        lengths, raw = oracle_id_blocks(ids)
        assert loaded == oracle_decode_ids(struct.unpack(f"<{len(ids)}H", lengths), raw) == ids

    def test_id_that_splits_a_character_refused(self, tmp_path):
        path = tmp_path / "t.sadp"
        # the block is valid UTF-8 as a whole, but each id holds half of "\u00e9"
        path.write_bytes(sadp_v2(None, [[1.0], [2.0]], lengths=struct.pack("<2H", 1, 1),
                                 raw=b"\xc3\xa9"))
        with pytest.raises(FormatError, match="not valid UTF-8: the string at index 1 starts "
                                              "inside a character"):
            read_embeddings(path)

    def test_duplicate_id_refused(self, tmp_path):
        path = tmp_path / "t.sadp"
        path.write_bytes(sadp_v2(["a", "b", "a"], np.ones((3, 2))))
        with pytest.raises(FormatError, match="duplicate embedding id: 'a'$"):
            read_embeddings(path)

    @pytest.mark.parametrize("ids, tag, message", [
        (["ok", "x\udc80y", "\ud800"], "t", r"id 'x\\udc80y' cannot"),
        (["ok"], "t\ud83d", r"encoder tag 't\\ud83d' cannot"),
    ], ids=["id", "tag"])
    def test_string_that_utf8_cannot_encode_refused_on_write(self, tmp_path, ids, tag,
                                                             message):
        table = EmbeddingTable(ids, np.ones((len(ids), 2), np.float32), tag)
        with pytest.raises(FormatError, match=message + " be encoded as UTF-8"):
            write_embeddings(table, tmp_path / "t.sadp")
        assert not (tmp_path / "t.sadp").exists()

    def test_overlong_id_refused_on_write(self, tmp_path):
        table = EmbeddingTable(["x" * 65536], np.ones((1, 2), np.float32))
        with pytest.raises(FormatError, match="65535"):
            write_embeddings(table, tmp_path / "t.sadp")
        ok = EmbeddingTable(["\u00e9" * 32767 + "x"], np.ones((1, 2), np.float32))
        write_embeddings(ok, tmp_path / "t.sadp")
        assert read_embeddings(tmp_path / "t.sadp").ids == ok.ids


class FakeResponse:
    def __init__(self, payload, status=200, headers=None):
        self._payload = payload
        self.status_code = status
        self.headers = headers or {}

    def raise_for_status(self):
        if self.status_code >= 400:
            raise RuntimeError(f"HTTP {self.status_code}")

    def json(self):
        return self._payload


class FakeSession:
    """Deterministic stand-in for requests.Session."""

    def __init__(self, dim=4, fail_first=0, dim_by_batch=None, fail_status=503,
                 fail_headers=None, body=None):
        self.dim = dim
        self.body = body  # when set, the "embeddings" field of every response
        self.fail_first = fail_first
        self.fail_status = fail_status
        self.fail_headers = fail_headers
        self.dim_by_batch = dim_by_batch
        self.calls = []
        self._lock = threading.Lock()

    def post(self, url, json=None, headers=None, timeout=None):
        with self._lock:
            batch_no = len(self.calls)
            self.calls.append(json["texts"])
            if self.fail_first > 0:
                self.fail_first -= 1
                return FakeResponse({}, self.fail_status, self.fail_headers)
        if self.body is not None:
            return FakeResponse({"embeddings": self.body})
        dim = self.dim if self.dim_by_batch is None else self.dim_by_batch[batch_no]
        vectors = [[float(len(t))] * dim for t in json["texts"]]
        return FakeResponse({"embeddings": vectors})

    def close(self):
        pass


def endpoint_cfg(**kw):
    defaults = dict(
        base_url="http://encoder.test/embed",
        max_batch=100,
        max_concurrent_requests=2,
        retry_limit=2,
        encoder_tag="fake-enc",
        backoff_base_seconds=0.001,
    )
    defaults.update(kw)
    return EncoderEndpointConfig(**defaults)


def make_items(n):
    return [TextItem(id=f"i{k}", text="x" * (k % 7 + 1)) for k in range(n)]


class TestFetchEmbeddings:
    def test_batching_is_ceiling_division(self):
        session = FakeSession()
        table = fetch_embeddings(make_items(250), endpoint_cfg(), session=session)
        assert len(session.calls) == 3
        assert sorted(len(c) for c in session.calls) == [50, 100, 100]
        assert len(table) == 250

    def test_order_preserved(self):
        items = make_items(37)
        table = fetch_embeddings(items, endpoint_cfg(max_batch=10), session=FakeSession())
        assert table.ids == [it.id for it in items]
        assert table.vectors[:, 0].tolist() == [float(len(it.text)) for it in items]

    def test_dimension_mismatch_across_batches(self):
        session = FakeSession(dim_by_batch=[768, 512, 768])
        with pytest.raises(FetchError, match="dimension"):
            fetch_embeddings(
                make_items(250),
                endpoint_cfg(max_concurrent_requests=1),
                session=session,
            )

    def test_transient_failure_retried(self):
        session = FakeSession(fail_first=2)
        table = fetch_embeddings(
            make_items(30),
            endpoint_cfg(max_batch=10, max_concurrent_requests=1),
            session=session,
        )
        assert len(table) == 30

    @pytest.mark.parametrize("status", [400, 401, 403, 404])
    def test_client_error_not_retried(self, status):
        session = FakeSession(fail_first=100, fail_status=status)
        with pytest.raises(FetchError, match=rf"\[0:10\].*HTTP {status}"):
            fetch_embeddings(make_items(10), endpoint_cfg(max_batch=10), session=session)
        assert len(session.calls) == 1

    @pytest.mark.parametrize("status, sent", [(404, 1), (503, 3)])
    def test_no_batch_sent_after_one_failed(self, status, sent):
        # one request at a time: batch [0:5] fails, at once (404) or after its
        # 2 retries (503), and none of the other 9 batches is sent
        session = FakeSession(fail_first=sent, fail_status=status)
        with pytest.raises(FetchError, match=rf"\[0:5\].*HTTP {status}"):
            fetch_embeddings(make_items(50),
                             endpoint_cfg(max_batch=5, max_concurrent_requests=1),
                             session=session)
        assert len(session.calls) == sent

    @pytest.mark.parametrize("failing_call", [0, 7, 60])
    def test_skipped_batches_never_hide_the_error(self, failing_call):
        # 16 threads on 200 one-item batches, switching often: the error read
        # is a failed batch's, never the None of a batch skipped after it
        class FailOnce(FakeSession):
            def post(self, url, json=None, headers=None, timeout=None):
                with self._lock:
                    call = len(self.calls)
                    self.calls.append(json["texts"])
                if call == failing_call:
                    return FakeResponse({}, 404)
                return FakeResponse({"embeddings": [[1.0] * 4 for _ in json["texts"]]})

        session, raised = FailOnce(), []

        def run():
            try:
                fetch_embeddings(make_items(200),
                                 endpoint_cfg(max_batch=1, max_concurrent_requests=16),
                                 session=session)
            except Exception as exc:  # noqa: BLE001 - asserted below
                raised.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=run)
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert len(raised) == 1 and isinstance(raised[0], FetchError), raised
        assert "refused with HTTP 404" in str(raised[0])

    @pytest.mark.parametrize("status", [408, 429, 500, 503])
    def test_retryable_status_retried(self, status):
        session = FakeSession(fail_first=1, fail_status=status)
        table = fetch_embeddings(make_items(10), endpoint_cfg(max_batch=10), session=session)
        assert len(table) == 10
        assert len(session.calls) == 2

    @pytest.mark.parametrize(
        "header, slept", [("7", 7.0), ("1000", BACKOFF_CAP_SECONDS), ("soon", None)]
    )
    def test_retry_after_honoured_and_capped(self, monkeypatch, header, slept):
        sleeps = []
        monkeypatch.setattr("embadapt.io.time.sleep", sleeps.append)
        session = FakeSession(fail_first=1, fail_status=429,
                              fail_headers={"Retry-After": header})
        fetch_embeddings(make_items(10), endpoint_cfg(max_batch=10), session=session)
        assert len(sleeps) == 1
        if slept is None:  # not an integer: exponential backoff with jitter
            assert 0.0005 <= sleeps[0] <= 0.0015
        else:
            assert sleeps[0] == slept

    def test_exhausted_retries_name_batch_range(self):
        session = FakeSession(fail_first=100)
        with pytest.raises(FetchError, match=r"\[0:10\]"):
            fetch_embeddings(
                make_items(10),
                endpoint_cfg(max_batch=10, retry_limit=1),
                session=session,
            )

    @pytest.mark.parametrize("body", [
        [1.0, 2.0], [["1", "2"], ["3", "4"]], [[True, False], [1, 2]], "ab", [[1, None], [2, 3]],
        [[10**400, 1], [1, 2]], [[1e39, 1.0], [1.0, 2.0]], [[1.0], [1.0, 2.0]], [[], []],
    ], ids=["flat-numbers", "strings", "booleans", "string", "null",
            "beyond-float64", "beyond-float32", "ragged", "empty-vectors"])
    def test_malformed_embeddings_retried_then_refused(self, body, tmp_path, capsys,
                                                       monkeypatch):
        session = FakeSession(body=body)
        with pytest.raises(FetchError, match=r"\[0:2\] failed after 2 attempts: "
                                             r"'embeddings' is not 2 lists of numbers"):
            fetch_embeddings(make_items(2), endpoint_cfg(retry_limit=1), session=session)
        assert len(session.calls) == 2
        # the CLI reports it on one error line
        monkeypatch.setattr("embadapt.io.requests.Session", lambda: FakeSession(body=body))
        items = tmp_path / "items.jsonl"
        items.write_text('{"_id": "a", "text": "x"}\n{"_id": "b", "text": "y"}\n')
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps({"base_url": "http://encoder.test/embed",
                                        "retry_limit": 0}))
        out = tmp_path / "emb.sadp"
        rc = main(["embed", "--items", str(items), "--endpoint-config", str(endpoint),
                   "--out", str(out)])
        assert rc == 1
        assert "error: batch [0:2] failed after 1 attempts" in capsys.readouterr().err
        assert not out.exists()

    def test_auth_env_var(self, monkeypatch):
        cfg = endpoint_cfg(auth_token_env_var="EMB_TOKEN")
        monkeypatch.delenv("EMB_TOKEN", raising=False)
        with pytest.raises(FetchError, match="EMB_TOKEN"):
            fetch_embeddings(make_items(1), cfg, session=FakeSession())
        monkeypatch.setenv("EMB_TOKEN", "secret")
        fetch_embeddings(make_items(1), cfg, session=FakeSession())

    def test_config_from_json_file(self, tmp_path):
        path = tmp_path / "endpoint.json"
        path.write_text(json.dumps({"base_url": "http://e/", "max_batch": 7}))
        cfg = EncoderEndpointConfig.from_json_file(path)
        assert cfg.max_batch == 7


FUZZ = settings(deadline=None, max_examples=150, database=None)


def _valid_files():
    """Valid v1 and v2 .sadp files and a valid .sadc, as bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        table = awkward_table(tag="enc")
        write_embeddings(table, tmp / "v2.sadp")
        write_embeddings_v1(table, tmp / "v1.sadp")
        model = init_adapter(3, 2, seed=0, encoder_tag="enc", config=TrainConfig(seed=3))
        save_checkpoint(model, str(tmp / "m.sadc"))
        return {name: (tmp / name).read_bytes() for name in ("v1.sadp", "v2.sadp", "m.sadc")}


VALID = _valid_files()
SADP = ("v1.sadp", "v2.sadp")


def parses_or_format_error(reader, data: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz"
        path.write_bytes(data)
        try:
            reader(str(path))
        except FormatError:
            pass


@st.composite
def truncated(draw, names):
    data = VALID[draw(st.sampled_from(names))]
    return data[: draw(st.integers(0, len(data) - 1))]


@st.composite
def byte_flipped(draw, names):
    data = bytearray(VALID[draw(st.sampled_from(names))])
    data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    return bytes(data)


@st.composite
def crc_valid_flipped_checkpoint(draw):
    """A one-byte flip inside the checkpoint payload, with the CRC32 redone,
    so the parser behind the checksum sees it."""
    payload = bytearray(VALID["m.sadc"][4:-4])
    payload[draw(st.integers(0, len(payload) - 1))] ^= draw(st.integers(1, 255))
    return b"SADC" + bytes(payload) + struct.pack("<I", zlib.crc32(payload))


qrels_text = st.lists(
    st.text(alphabet="qc0123456789.-+eEinfaIN_ \t\r\n\x00é", max_size=30), max_size=8
).map(lambda lines: "\n".join(lines).encode("utf-8"))


class TestReadersFuzz:
    """Every input either parses or raises FormatError."""

    def test_valid_files_parse(self, tmp_path):
        for name, data in VALID.items():
            (tmp_path / name).write_bytes(data)
        for name in SADP:
            assert read_embeddings(tmp_path / name).ids == awkward_table().ids
        assert load_checkpoint(str(tmp_path / "m.sadc")).config_snapshot.seed == 3

    @FUZZ
    @given(st.one_of(st.binary(max_size=300), truncated(SADP), byte_flipped(SADP)))
    def test_read_embeddings(self, data):
        parses_or_format_error(read_embeddings, data)

    @FUZZ
    @given(st.one_of(st.binary(max_size=300), truncated(("m.sadc",)),
                     byte_flipped(("m.sadc",)), crc_valid_flipped_checkpoint()))
    def test_load_checkpoint(self, data):
        parses_or_format_error(load_checkpoint, data)

    @FUZZ
    @given(st.one_of(st.binary(max_size=300), qrels_text))
    def test_load_qrels_tsv(self, data):
        parses_or_format_error(load_qrels_tsv, data)
