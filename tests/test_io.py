import http.server
import itertools
import json
import os
import re
import struct
import sys
import tempfile
import threading
import tracemalloc
import types
import urllib.error
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
from embadapt import io as embadapt_io
from embadapt.cli import main
from embadapt.config import from_json
from embadapt.data import TextItem
from embadapt.errors import FetchError, FormatError
from embadapt.adapter import row_blocks
from embadapt.io import (
    BACKOFF_CAP_SECONDS,
    EncoderEndpointConfig,
    crc32_combine,
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

    def test_leading_bom_is_ignored(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'\xef\xbb\xbf{"_id":"c1","text":"a"}\n{"_id":"c2","text":"b"}\n')
        assert [item.id for item in load_jsonl_items(path)] == ["c1", "c2"]

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

    def test_only_a_leading_bom_is_ignored(self, tmp_path):
        # with the BOM kept, the first query id would be '\ufeffq1'
        path = tmp_path / "qrels.tsv"
        path.write_bytes("\ufeffq1\tc1\t1\nq2\tc2\t1\n\ufeffq3\tc3\t1\n".encode("utf-8"))
        assert load_qrels_tsv(path).query_ids == ["q1", "q2", "\ufeffq3"]

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_score_rejected(self, tmp_path, score):
        path = tmp_path / "qrels.tsv"
        path.write_text(f"q1\tc1\t1\nq2\tc2\t{score}\n")
        with pytest.raises(FormatError, match=":2: non-finite score"):
            load_qrels_tsv(path)


def random_table(rng, n=3, dim=4, tag="enc-v1"):
    vecs = rng.standard_normal((n, dim)).astype(np.float32)
    return EmbeddingTable([f"id{i}" for i in range(n)], vecs, tag)


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
        # 20 bytes whose header claims 2^40 rows of 2^20 floats
        path = tmp_path / "huge.sadp"
        path.write_bytes(b"SADP" + struct.pack("<HQIH", 2, 2**40, 2**20, 0))
        with pytest.raises(FormatError, match="truncated"):
            read_embeddings(path)

    def test_non_utf8_id_rejected(self, tmp_path):
        path = tmp_path / "bad_id.sadp"
        path.write_bytes(sadp_v2(None, [[1.0]], lengths=struct.pack("<H", 1), raw=b"\xff"))
        with pytest.raises(FormatError, match="UTF-8"):
            read_embeddings(path)

    def test_empty_table_refused(self, tmp_path):
        # a well-formed file of no rows, CRC included: a table has one row at least
        path = tmp_path / "empty.sadp"
        path.write_bytes(sadp_v2([], np.zeros((0, 4))))
        message = f"{path}: an embedding table needs at least one row"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            read_embeddings(path)


class TestCrc32Combine:
    @settings(deadline=None, max_examples=200, database=None)
    @given(st.binary(max_size=300), st.binary(max_size=300), st.integers(0, 2**32 - 1))
    def test_equals_the_crc_of_the_concatenation(self, a, b, seed):
        assert crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(a + b)
        # a running CRC32 from a seed value, as a file's header starts one
        assert (crc32_combine(zlib.crc32(a, seed), zlib.crc32(b), len(b))
                == zlib.crc32(a + b, seed))

    @settings(deadline=None, max_examples=30, database=None)
    @given(st.integers(1, 3000), st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_row_block_parts_fold_to_the_whole(self, n, dim, seed):
        rows = np.random.default_rng(seed).standard_normal((n, dim)).astype("<f4")
        crc = 0
        for block in row_blocks(n, dim, budget=8 * dim * 97):  # blocks of 97 or 98 rows
            part = rows[block].tobytes()
            crc = crc32_combine(crc, zlib.crc32(part), len(part))
        assert crc == zlib.crc32(rows.tobytes())


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

    @pytest.mark.parametrize("version", [1, 3])
    def test_unknown_version_refused(self, tmp_path, version):
        path = tmp_path / "t.sadp"
        path.write_bytes(b"SADP" + struct.pack("<HQIH", version, 1, 1, 0) + b"\x00" * 10)
        with pytest.raises(FormatError, match=f"unsupported version {version}$"):
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

    @pytest.mark.parametrize("ids, tag, message", [
        ([1, 2], "t", r"^id 1 is int, not str$"),
        (["ok", b"raw"], "t", r"^id b'raw' is bytes, not str$"),
        (["ok"], 5, r"^encoder tag 5 is int, not str$"),
    ], ids=["int-id", "bytes-id", "int-tag"])
    def test_string_that_is_not_a_str_refused_on_write(self, tmp_path, ids, tag, message):
        table = EmbeddingTable(ids, np.ones((len(ids), 2), np.float32), tag)
        with pytest.raises(FormatError, match=message):
            write_embeddings(table, tmp_path / "t.sadp")
        assert not (tmp_path / "t.sadp").exists()

    def test_overlong_id_refused_on_write(self, tmp_path):
        table = EmbeddingTable(["x" * 65536], np.ones((1, 2), np.float32))
        with pytest.raises(FormatError, match="65535"):
            write_embeddings(table, tmp_path / "t.sadp")
        ok = EmbeddingTable(["\u00e9" * 32767 + "x"], np.ones((1, 2), np.float32))
        write_embeddings(ok, tmp_path / "t.sadp")
        assert read_embeddings(tmp_path / "t.sadp").ids == ok.ids


def reply(payload, status=200, headers=None):
    """A response as io._post returns it: status, headers and JSON body bytes."""
    return status, headers or {}, json.dumps(payload).encode()


class FakeEncoder:
    """Deterministic stand-in for io._post."""

    def __init__(self, dim=4, fail_first=0, dim_by_batch=None, fail_status=503,
                 fail_headers=None, body=None, raise_first=None):
        self.dim = dim
        self.raise_first = raise_first  # when set, raised by the first post
        self.body = body  # when set, the "embeddings" field of every response
        self.fail_first = fail_first
        self.fail_status = fail_status
        self.fail_headers = fail_headers
        self.dim_by_batch = dim_by_batch
        self.calls = []
        self._lock = threading.Lock()

    def __call__(self, url, body, headers, timeout):
        texts = json.loads(body)["texts"]
        with self._lock:
            batch_no = len(self.calls)
            self.calls.append(texts)
            if self.raise_first is not None:
                error, self.raise_first = self.raise_first, None
                raise error
            if self.fail_first > 0:
                self.fail_first -= 1
                return reply({}, self.fail_status, self.fail_headers)
        if self.body is not None:
            return reply({"embeddings": self.body})
        dim = self.dim if self.dim_by_batch is None else self.dim_by_batch[batch_no]
        return reply({"embeddings": [[float(len(t))] * dim for t in texts]})


def serve(monkeypatch, encoder=None):
    """Make encoder (a fresh FakeEncoder by default) answer every POST."""
    encoder = encoder or FakeEncoder()
    monkeypatch.setattr("embadapt.io._post", encoder)
    return encoder


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
    def test_batching_is_ceiling_division(self, monkeypatch):
        encoder = serve(monkeypatch)
        table = fetch_embeddings(make_items(250), endpoint_cfg())
        assert len(encoder.calls) == 3
        assert sorted(len(c) for c in encoder.calls) == [50, 100, 100]
        assert len(table) == 250

    def test_order_preserved(self, monkeypatch):
        serve(monkeypatch)
        items = make_items(37)
        table = fetch_embeddings(items, endpoint_cfg(max_batch=10))
        assert table.ids == [it.id for it in items]
        assert table.vectors[:, 0].tolist() == [float(len(it.text)) for it in items]

    def test_dimension_mismatch_across_batches(self, monkeypatch):
        serve(monkeypatch, FakeEncoder(dim_by_batch=[768, 512, 768]))
        with pytest.raises(FetchError, match="dimension"):
            fetch_embeddings(make_items(250), endpoint_cfg(max_concurrent_requests=1))

    def test_transient_failure_retried(self, monkeypatch):
        serve(monkeypatch, FakeEncoder(fail_first=2))
        table = fetch_embeddings(
            make_items(30),
            endpoint_cfg(max_batch=10, max_concurrent_requests=1),
        )
        assert len(table) == 30

    @pytest.mark.parametrize("status", [400, 401, 403, 404])
    def test_client_error_not_retried(self, monkeypatch, status):
        encoder = serve(monkeypatch, FakeEncoder(fail_first=100, fail_status=status))
        with pytest.raises(FetchError, match=rf"\[0:10\].*HTTP {status}"):
            fetch_embeddings(make_items(10), endpoint_cfg(max_batch=10))
        assert len(encoder.calls) == 1

    @pytest.mark.parametrize("status, sent", [(404, 1), (503, 3)])
    def test_no_batch_sent_after_one_failed(self, monkeypatch, status, sent):
        # one request at a time: batch [0:5] fails, at once (404) or after its
        # 2 retries (503), and none of the other 9 batches is sent
        encoder = serve(monkeypatch, FakeEncoder(fail_first=sent, fail_status=status))
        with pytest.raises(FetchError, match=rf"\[0:5\].*HTTP {status}"):
            fetch_embeddings(make_items(50), endpoint_cfg(max_batch=5, max_concurrent_requests=1))
        assert len(encoder.calls) == sent

    def test_no_batch_sent_after_one_failed_while_another_is_in_flight(self, monkeypatch):
        # two threads: batch [1:2] is refused while [0:1] is in flight, and
        # [0:1] is answered only once the failure is recorded, so neither
        # thread may send a later batch
        recorded = threading.Event()

        class Recording(threading.Event):  # the failure event of fetch_embeddings
            def set(self):
                super().set()
                recorded.set()

        class HoldFirst(FakeEncoder):
            def __call__(self, url, body, headers, timeout):
                texts = json.loads(body)["texts"]
                with self._lock:
                    self.calls.append(texts)
                if texts == ["xx"]:  # item 1
                    return reply({}, 404)
                recorded.wait(timeout=10)
                return reply({"embeddings": [[1.0] * 4 for _ in texts]})

        encoder = serve(monkeypatch, HoldFirst())
        monkeypatch.setattr(embadapt_io, "threading", types.SimpleNamespace(Event=Recording))
        with pytest.raises(FetchError, match=r"^batch \[1:2\] refused with HTTP 404"):
            fetch_embeddings(make_items(40), endpoint_cfg(max_batch=1, max_concurrent_requests=2))
        assert recorded.is_set()
        assert sorted(encoder.calls) == [["x"], ["xx"]]

    @pytest.mark.parametrize("failing_call", [0, 7, 60])
    def test_skipped_batches_never_hide_the_error(self, monkeypatch, failing_call):
        # 16 threads on 200 one-item batches, switching often: the error read
        # is a failed batch's, never the None of a batch skipped after it
        class FailOnce(FakeEncoder):
            def __call__(self, url, body, headers, timeout):
                texts = json.loads(body)["texts"]
                with self._lock:
                    call = len(self.calls)
                    self.calls.append(texts)
                if call == failing_call:
                    return reply({}, 404)
                return reply({"embeddings": [[1.0] * 4 for _ in texts]})

        serve(monkeypatch, FailOnce())
        raised = []

        def run():
            try:
                fetch_embeddings(make_items(200),
                                 endpoint_cfg(max_batch=1, max_concurrent_requests=16))
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
    def test_retryable_status_retried(self, monkeypatch, status):
        encoder = serve(monkeypatch, FakeEncoder(fail_first=1, fail_status=status))
        table = fetch_embeddings(make_items(10), endpoint_cfg(max_batch=10))
        assert len(table) == 10
        assert len(encoder.calls) == 2

    @pytest.mark.parametrize(
        "header, slept", [("7", 7.0), ("1000", BACKOFF_CAP_SECONDS), ("soon", None)]
    )
    def test_retry_after_honoured_and_capped(self, monkeypatch, header, slept):
        sleeps = []
        monkeypatch.setattr("embadapt.io.time.sleep", sleeps.append)
        serve(monkeypatch, FakeEncoder(fail_first=1, fail_status=429,
                                       fail_headers={"Retry-After": header}))
        fetch_embeddings(make_items(10), endpoint_cfg(max_batch=10))
        assert len(sleeps) == 1
        if slept is None:  # not an integer: exponential backoff with jitter
            assert 0.0005 <= sleeps[0] <= 0.0015
        else:
            assert sleeps[0] == slept

    @pytest.mark.parametrize("error, calls", [
        (TimeoutError("timed out"), 2),
        (ConnectionRefusedError(111, "Connection refused"), 2),
        (urllib.error.URLError(OSError("Name or service not known")), 2),
        (ValueError("unknown url type: 'nope'"), 1),
    ], ids=["timeout", "connection-error", "url-error", "invalid-url"])
    def test_only_transport_failures_retried(self, monkeypatch, error, calls):
        sleeps = []
        monkeypatch.setattr("embadapt.io.time.sleep", sleeps.append)
        encoder = serve(monkeypatch, FakeEncoder(raise_first=error))
        if calls == 1:  # not an OSError: no retry mends it
            with pytest.raises(FetchError, match=r"^batch \[0:10\] could not be sent, not "
                                                 r"retried: unknown url type: 'nope'$"):
                fetch_embeddings(make_items(10), endpoint_cfg(max_batch=10))
        else:
            assert len(fetch_embeddings(make_items(10), endpoint_cfg(max_batch=10))) == 10
        assert len(encoder.calls) == calls
        assert len(sleeps) == calls - 1

    def test_exhausted_retries_name_batch_range(self, monkeypatch):
        serve(monkeypatch, FakeEncoder(fail_first=100))
        with pytest.raises(FetchError, match=r"\[0:10\]"):
            fetch_embeddings(make_items(10), endpoint_cfg(max_batch=10, retry_limit=1))

    @pytest.mark.parametrize("body", [
        [1.0, 2.0], [["1", "2"], ["3", "4"]], [[True, False], [1, 2]], "ab", [[1, None], [2, 3]],
        [[10**400, 1], [1, 2]], [[1e39, 1.0], [1.0, 2.0]], [[1.0], [1.0, 2.0]], [[], []],
    ], ids=["flat-numbers", "strings", "booleans", "string", "null",
            "beyond-float64", "beyond-float32", "ragged", "empty-vectors"])
    def test_malformed_embeddings_retried_then_refused(self, body, tmp_path, capsys,
                                                       monkeypatch):
        encoder = serve(monkeypatch, FakeEncoder(body=body))
        with pytest.raises(FetchError, match=r"\[0:2\] failed after 2 attempts: "
                                             r"'embeddings' is not 2 lists of numbers"):
            fetch_embeddings(make_items(2), endpoint_cfg(retry_limit=1))
        assert len(encoder.calls) == 2
        # the CLI reports it on one error line
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
        serve(monkeypatch)
        cfg = endpoint_cfg(auth_token_env_var="EMB_TOKEN")
        monkeypatch.delenv("EMB_TOKEN", raising=False)
        with pytest.raises(FetchError, match="EMB_TOKEN"):
            fetch_embeddings(make_items(1), cfg)
        monkeypatch.setenv("EMB_TOKEN", "secret")
        fetch_embeddings(make_items(1), cfg)

    def test_config_from_json_file(self, tmp_path):
        path = tmp_path / "endpoint.json"
        path.write_text(json.dumps({"base_url": "http://e/", "max_batch": 7}))
        cfg = from_json(EncoderEndpointConfig, path.read_text())
        assert cfg.max_batch == 7


@pytest.fixture
def loopback(monkeypatch):
    """An HTTP server on 127.0.0.1 that answers each request with the next step
    of its script and records ("METHOD /path", headers, body) of each in seen.
    Yields (script, seen, sleeps, url), with time.sleep patched to append to
    sleeps. A step is (status, headers, body bytes), and a Content-Length in
    its headers longer than the body cuts the body short. The step "close"
    closes the connection without a response; "slow" answers nothing until
    the test ends; "plain" answers a connection in plain HTTP before reading
    a request, as a server that does not speak TLS answers a TLS client's
    hello, records ("plain", None, b"") and reads until the client hangs
    up."""
    script, seen, sleeps = [], [], []
    done = threading.Event()

    class Handler(http.server.BaseHTTPRequestHandler):
        def handle(self):
            if script[:1] != ["plain"]:
                return super().handle()
            seen.append((script.pop(0), None, b""))
            self.wfile.write(b"HTTP/1.0 400 Bad Request\r\n\r\n")
            self.request.settimeout(5)
            while self.request.recv(4096):
                pass

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            seen.append((f"{self.command} {self.path}", self.headers, body))
            step = script.pop(0)
            if step == "slow":
                done.wait(30)
            if step in ("close", "slow"):
                return
            status, headers, payload = step
            self.send_response(status)
            for name, value in {"Content-Length": str(len(payload)), **headers}.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(payload)

        do_GET = do_POST

        def log_message(self, *args):
            pass

    errors = []

    class Server(http.server.ThreadingHTTPServer):
        def handle_error(self, request, client_address):
            # the default prints the traceback to stderr, outside any test's capture
            errors.append(sys.exc_info()[1])

    monkeypatch.setattr("embadapt.io.time.sleep", sleeps.append)
    monkeypatch.setenv("no_proxy", "*")
    server = Server(("127.0.0.1", 0), Handler)
    server.daemon_threads = False  # server_close joins every handler thread
    thread = threading.Thread(target=server.serve_forever, args=(0.01,))
    thread.start()
    try:
        yield script, seen, sleeps, f"http://127.0.0.1:{server.server_address[1]}/embed"
    finally:
        done.set()
        server.shutdown()
        thread.join(timeout=30)
        server.server_close()
    assert not thread.is_alive()
    # the "close", "plain" and "slow" steps end in the client hanging up; any
    # other error of a handler, such as a request the script has no step
    # for, fails the test
    unexpected = [exc for exc in errors if not isinstance(exc, ConnectionError)]
    assert not unexpected, f"the server's handlers raised {unexpected!r}"


def embeddings_of(texts):
    return reply({"embeddings": [[float(len(t)), 1.0] for t in texts]})


class TestPostOverLoopback:
    """fetch_embeddings through the real io._post, against a local server."""

    def test_request_as_the_server_sees_it(self, loopback, monkeypatch):
        script, seen, sleeps, url = loopback
        monkeypatch.setenv("EMB_TOKEN", "secret")
        items = [TextItem("a", "caf\u00e9"), TextItem("b", "x y")]
        script.append(embeddings_of(["caf\u00e9", "x y"]))
        table = fetch_embeddings(items, endpoint_cfg(base_url=url,
                                                     auth_token_env_var="EMB_TOKEN"))
        assert table.vectors.tolist() == [[4.0, 1.0], [3.0, 1.0]]
        [(request, headers, body)] = seen
        assert request == "POST /embed"
        assert body == b'{"texts": ["caf\\u00e9", "x y"]}'
        assert headers["Content-Type"] == "application/json"
        assert headers["Authorization"] == "Bearer secret"
        assert sleeps == []

    @pytest.mark.parametrize("first, slept", [
        ((429, {"Retry-After": "7"}, b""), 7.0),
        ((503, {}, b""), None),
        ((200, {}, b"not json"), None),
        ("close", None),
        ((200, {"Content-Length": "100"}, b'{"embeddings": [['), None),
        ("slow", None),
    ], ids=["429-retry-after", "503", "not-json", "closed", "cut-short", "slow"])
    def test_retried_then_answered(self, loopback, monkeypatch, first, slept):
        script, seen, sleeps, url = loopback
        script.extend([first, embeddings_of(["x", "yy"])])
        # only the attempt that the "slow" step stalls waits out the short
        # timeout; every other one gets as long as a loaded machine may need
        timeouts, post = [], embadapt_io._post

        def timed_post(url, body, headers, timeout):
            timeouts.append(timeout)
            short = first == "slow" and len(timeouts) == 1
            return post(url, body, headers, timeout if short else 30.0)

        monkeypatch.setattr(embadapt_io, "_post", timed_post)
        table = fetch_embeddings([TextItem("a", "x"), TextItem("b", "yy")],
                                 endpoint_cfg(base_url=url, timeout_seconds=0.2))
        assert timeouts == [0.2, 0.2]  # the configured timeout reaches every attempt
        assert table.vectors.tolist() == [[1.0, 1.0], [2.0, 1.0]]
        assert len(seen) == 2 and seen[0][2] == seen[1][2]
        assert len(sleeps) == 1
        if slept is None:  # exponential backoff with jitter
            assert 0.0005 <= sleeps[0] <= 0.0015
        else:
            assert sleeps[0] == slept

    @pytest.mark.parametrize("status, headers", [(400, {}), (307, {"Location": "/other"})],
                             ids=["400", "307-redirect"])
    def test_refused_at_once(self, loopback, status, headers):
        script, seen, sleeps, url = loopback
        script.append((status, headers, b"no"))
        with pytest.raises(FetchError, match=rf"^batch \[0:1\] refused with HTTP {status}, "
                                             r"not retried$"):
            fetch_embeddings(make_items(1), endpoint_cfg(base_url=url))
        assert len(seen) == 1 and sleeps == []

    def test_redirect_followed_as_get_without_authorization(self, loopback, monkeypatch):
        script, seen, sleeps, url = loopback
        monkeypatch.setenv("EMB_TOKEN", "secret")
        script.extend([(302, {"Location": "/moved"}, b""), embeddings_of(["x"])])
        fetch_embeddings(make_items(1), endpoint_cfg(base_url=url, auth_token_env_var="EMB_TOKEN"))
        assert [request for request, _, _ in seen] == ["POST /embed", "GET /moved"]
        assert seen[0][1]["Authorization"] == "Bearer secret"
        assert "Authorization" not in seen[1][1]

    def test_tls_failure_is_not_retried(self, loopback):
        # https:// to a server that answers in plain HTTP: the handshake
        # fails the same way on every attempt
        script, seen, sleeps, url = loopback
        script.extend(["plain"] * 3)
        with pytest.raises(FetchError, match=r"^batch \[0:1\] could not be sent, not retried: "
                                             r"TLS failure: \[SSL"):
            fetch_embeddings(make_items(1), endpoint_cfg(base_url=url.replace("http:", "https:"),
                                                         retry_limit=2))
        assert len(seen) == 1 and sleeps == []

    def test_every_attempt_failed_names_the_last_cause(self, loopback):
        script, seen, sleeps, url = loopback
        script.extend(["close"] * 3)
        with pytest.raises(FetchError, match=r"^batch \[0:1\] failed after 3 attempts: "
                                             r"response cut short or garbled: "
                                             r"RemoteDisconnected"):
            fetch_embeddings(make_items(1), endpoint_cfg(base_url=url))
        assert len(seen) == 3 and len(sleeps) == 2


FUZZ = settings(deadline=None, max_examples=150, database=None)


def _valid_files():
    """A valid .sadp and a valid .sadc, as bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_embeddings(awkward_table(tag="enc"), tmp / "t.sadp")
        model = init_adapter(3, seed=0, encoder_tag="enc", config=TrainConfig(hidden=2, seed=3))
        save_checkpoint(model, str(tmp / "m.sadc"))
        return {name: (tmp / name).read_bytes() for name in ("t.sadp", "m.sadc")}


VALID = _valid_files()


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
        assert read_embeddings(tmp_path / "t.sadp").ids == awkward_table().ids
        assert load_checkpoint(str(tmp_path / "m.sadc")).config_snapshot.seed == 3

    @FUZZ
    @given(st.one_of(st.binary(max_size=300), truncated(("t.sadp",)),
                     byte_flipped(("t.sadp",))))
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
