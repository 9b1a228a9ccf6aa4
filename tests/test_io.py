import json
import struct
import threading

import numpy as np
import pytest

from embadapt import (
    EmbeddingTable,
    EncoderEndpointConfig,
    TextItem,
    fetch_embeddings,
    load_jsonl_items,
    load_qrels_tsv,
    read_embeddings,
    write_embeddings,
)
from embadapt.errors import FetchError, FormatError


class TestLoadJsonlItems:
    def test_basic_mapping(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text('{"_id":"q1","text":"what is x"}\n')
        items = load_jsonl_items(path)
        assert items.ids == ["q1"]
        assert items["q1"].text == "what is x"
        assert items["q1"].title is None

    def test_title_preserved(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"_id":"c1","text":"body","title":"heading"}\n')
        assert load_jsonl_items(path)["c1"].title == "heading"

    def test_duplicate_id_names_offender(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"_id":"c1","text":"a"}\n{"_id":"c1","text":"b"}\n')
        with pytest.raises(FormatError, match="c1"):
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


class TestLoadQrelsTsv:
    def test_rows_mapped_and_zero_dropped(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\tc3\t1\nq1\tc4\t0\n")
        rels = load_qrels_tsv(path)
        assert rels.grade("q1", "c3") == 1.0
        assert rels.grade("q1", "c4") == 0.0
        assert len(rels) == 1

    def test_graded_relevance_preserved(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\tc1\t2\nq1\tc2\t1\n")
        rels = load_qrels_tsv(path)
        assert rels.grade("q1", "c1") == 2.0
        assert rels.grade("q1", "c2") == 1.0

    def test_header_row_skipped(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("query-id\tcorpus-id\tscore\nq1\tc1\t1\n")
        assert load_qrels_tsv(path).grade("q1", "c1") == 1.0

    def test_non_numeric_score_mid_file(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\tc1\t1\nq2\tc2\toops\n")
        with pytest.raises(FormatError, match=":2"):
            load_qrels_tsv(path)


def random_table(rng, n=3, dim=4, tag="enc-v1"):
    vecs = rng.standard_normal((n, dim)).astype(np.float32)
    return EmbeddingTable([f"id{i}" for i in range(n)], vecs, tag)


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


class FakeResponse:
    def __init__(self, payload, status=200):
        self._payload = payload
        self.status_code = status

    def raise_for_status(self):
        if self.status_code >= 400:
            raise RuntimeError(f"HTTP {self.status_code}")

    def json(self):
        return self._payload


class FakeSession:
    """Deterministic stand-in for requests.Session."""

    def __init__(self, dim=4, fail_first=0, dim_by_batch=None):
        self.dim = dim
        self.fail_first = fail_first
        self.dim_by_batch = dim_by_batch
        self.calls = []
        self._lock = threading.Lock()

    def post(self, url, json=None, headers=None, timeout=None):
        with self._lock:
            batch_no = len(self.calls)
            self.calls.append(json["texts"])
            if self.fail_first > 0:
                self.fail_first -= 1
                return FakeResponse({}, status=503)
        dim = self.dim if self.dim_by_batch is None else self.dim_by_batch[batch_no]
        vectors = [[float(len(t))] * dim for t in json["texts"]]
        return FakeResponse({"embeddings": vectors})


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
        for it in items:
            assert table.vector(it.id)[0] == float(len(it.text))

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

    def test_exhausted_retries_name_batch_range(self):
        session = FakeSession(fail_first=100)
        with pytest.raises(FetchError, match=r"\[0:10\]"):
            fetch_embeddings(
                make_items(10),
                endpoint_cfg(max_batch=10, retry_limit=1),
                session=session,
            )

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
