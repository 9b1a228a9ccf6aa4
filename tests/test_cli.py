import json
import os

import numpy as np
import pytest

from embadapt import (
    EmbeddingTable, rank_candidates, read_embeddings, score_all, write_embeddings,
)
from embadapt.cli import main
from embadapt.data import TextItem

from synth import planted_task


def write_task(tmp_path, n_queries=24, n_corpus=80, seed=0):
    q, c, rels = planted_task(n_queries=n_queries, n_corpus=n_corpus, seed=seed)
    qp, cp, rp = tmp_path / "q.sadp", tmp_path / "c.sadp", tmp_path / "rels.tsv"
    write_embeddings(q, qp)
    write_embeddings(c, cp)
    lines = [f"{qid}\t{cid}\t{score:g}" for qid, cid, score in rels.triplets]
    rp.write_text("\n".join(lines) + "\n")
    return str(qp), str(cp), str(rp)


def run_train(tmp_path, out_name="model.sadc", extra=(), seed=0):
    qp, cp, rp = write_task(tmp_path, seed=seed)
    out = str(tmp_path / out_name)
    rc = main([
        "train", "--queries", qp, "--corpus", cp, "--qrels", rp,
        "--out", out, "--max-iters", "60", "--batch-size", "16",
        "--eval-every", "10", "--seed", "0", *extra,
    ])
    return rc, out, (qp, cp, rp)


class TestTrainCommand:
    def test_writes_checkpoint_and_log(self, tmp_path, capsys):
        rc, out, _ = run_train(tmp_path)
        assert rc == 0
        assert os.path.exists(out)
        log_lines = (tmp_path / "model.sadc.log.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in log_lines]
        assert records[0]["iteration"] == 0
        assert all("val_ndcg" in r for r in records)
        stdout = capsys.readouterr().out
        assert "zero-shot validation nDCG@10" in stdout
        assert "best validation nDCG@10" in stdout
        assert "effective config" in stdout

    def test_repeat_runs_byte_identical(self, tmp_path):
        _, out1, _ = run_train(tmp_path, "a.sadc")
        _, out2, _ = run_train(tmp_path, "b.sadc")
        assert open(out1, "rb").read() == open(out2, "rb").read()
        log1 = (tmp_path / "a.sadc.log.jsonl").read_bytes()
        log2 = (tmp_path / "b.sadc.log.jsonl").read_bytes()
        assert log1 == log2

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"alpha": 0.9, "batch_size": 8}))
        rc, _, _ = run_train(
            tmp_path, extra=["--config", str(cfg_file), "--alpha", "0.25"]
        )
        assert rc == 0
        line = next(
            l for l in capsys.readouterr().out.splitlines()
            if l.startswith("effective config")
        )
        effective = json.loads(line.split(": ", 1)[1])
        assert effective["alpha"] == 0.25
        # --batch-size flag was given too, so the file value for it is shadowed
        assert effective["batch_size"] == 16

    def test_dangling_qrels_rejected(self, tmp_path, capsys):
        qp, cp, rp = write_task(tmp_path)
        with open(rp, "a") as f:
            f.write("ghost-query\tc0000\t1\n")
        rc = main(["train", "--queries", qp, "--corpus", cp, "--qrels", rp,
                   "--out", str(tmp_path / "m.sadc")])
        assert rc == 1
        assert "missing embeddings" in capsys.readouterr().err

    def test_failed_run_leaves_no_partial_files(self, tmp_path):
        qp, cp, rp = write_task(tmp_path)
        rc = main(["train", "--queries", qp, "--corpus", cp, "--qrels", rp,
                   "--out", str(tmp_path / "m.sadc"), "--alpha", "-1"])
        assert rc == 1
        leftovers = [p.name for p in tmp_path.iterdir() if p.suffix == ".part"]
        assert leftovers == []
        assert not (tmp_path / "m.sadc").exists()


class TestTransformCommand:
    def test_roundtrip_matches_library_transform(self, tmp_path):
        from embadapt import load_checkpoint, transform

        rc, ckpt, (qp, _, _) = run_train(tmp_path)
        assert rc == 0
        out = str(tmp_path / "q_adapted.sadp")
        rc = main(["transform", "--in", qp, "--model", ckpt,
                   "--which", "query", "--out", out])
        assert rc == 0
        original = read_embeddings(qp)
        adapted = read_embeddings(out)
        model = load_checkpoint(ckpt)
        expected = transform(model, original.vectors, "query").astype(np.float32)
        assert np.array_equal(adapted.vectors, expected)
        assert adapted.ids == original.ids
        assert adapted.encoder_tag == original.encoder_tag

    def test_tag_mismatch_fails_without_force(self, tmp_path, capsys):
        rc, ckpt, (qp, _, _) = run_train(tmp_path)
        table = read_embeddings(qp)
        other = EmbeddingTable(table.ids, table.vectors, "another-encoder")
        other_path = str(tmp_path / "other.sadp")
        write_embeddings(other, other_path)
        out = str(tmp_path / "out.sadp")
        rc = main(["transform", "--in", other_path, "--model", ckpt, "--out", out])
        assert rc == 1
        assert "encoder tag" in capsys.readouterr().err
        assert not os.path.exists(out)
        rc = main(["transform", "--in", other_path, "--model", ckpt,
                   "--out", out, "--force"])
        assert rc == 0
        assert os.path.exists(out)


class TestEvaluateCommand:
    def test_json_output_and_per_query_file(self, tmp_path, capsys):
        qp, cp, rp = write_task(tmp_path)
        pq = str(tmp_path / "per_query.tsv")
        rc = main(["evaluate", "--queries", qp, "--corpus", cp, "--qrels", rp,
                   "--json", "--per-query", pq])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["mean_ndcg"] <= 1.0
        assert report["k"] == 10
        rows = [line.split("\t") for line in open(pq).read().splitlines()]
        assert len(rows) == report["n_evaluated"]
        for qid, value in rows:
            assert report["per_query_ndcg"][qid] == pytest.approx(float(value), abs=1e-6)

    def test_model_flag_equals_transform_then_evaluate(self, tmp_path, capsys):
        rc, ckpt, (qp, cp, rp) = run_train(tmp_path)
        assert rc == 0
        capsys.readouterr()
        rc = main(["evaluate", "--queries", qp, "--corpus", cp, "--qrels", rp,
                   "--model", ckpt, "--json"])
        assert rc == 0
        direct = json.loads(capsys.readouterr().out)

        qa, ca = str(tmp_path / "qa.sadp"), str(tmp_path / "ca.sadp")
        assert main(["transform", "--in", qp, "--model", ckpt,
                     "--which", "query", "--out", qa]) == 0
        assert main(["transform", "--in", cp, "--model", ckpt,
                     "--which", "corpus", "--out", ca]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--queries", qa, "--corpus", ca, "--qrels", rp,
                     "--json"]) == 0
        staged = json.loads(capsys.readouterr().out)
        assert staged["mean_ndcg"] == pytest.approx(direct["mean_ndcg"], abs=1e-6)

    def test_missing_file_exits_one(self, tmp_path, capsys):
        qp, cp, rp = write_task(tmp_path)
        rc = main(["evaluate", "--queries", str(tmp_path / "nope.sadp"),
                   "--corpus", cp, "--qrels", rp])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_embedding_file_exits_one(self, tmp_path, capsys):
        qp, cp, rp = write_task(tmp_path)
        bad = tmp_path / "bad.sadp"
        bad.write_bytes(b"this is not an embedding file at all")
        rc = main(["evaluate", "--queries", str(bad), "--corpus", cp, "--qrels", rp])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestSearchCommand:
    def test_vector_search_ranks_by_cosine(self, tmp_path, capsys):
        ids = ["a", "b", "c"]
        vecs = np.array([[1, 0], [0.6, 0.8], [0, 1]], dtype=np.float32)
        cp = str(tmp_path / "c.sadp")
        write_embeddings(EmbeddingTable(ids, vecs, "t"), cp)
        rc = main(["search", "--corpus", cp, "--vector", "1,0", "--k", "2"])
        assert rc == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert [r[0] for r in rows] == ["a", "b"]
        assert float(rows[0][1]) == pytest.approx(1.0)
        assert float(rows[1][1]) == pytest.approx(0.6)

    def test_vector_with_negative_first_component(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        table = EmbeddingTable([f"c{i}" for i in range(20)],
                               rng.standard_normal((20, 4)).astype(np.float32), "t")
        cp = str(tmp_path / "c.sadp")
        write_embeddings(table, cp)
        vector = "-0.1,0.2,-0.7,0.4"
        rc = main(["search", "--corpus", cp, "--vector", vector, "--k", "5"])
        assert rc == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        query = np.array([[float(x) for x in vector.split(",")]], dtype=np.float32)
        scores = score_all(EmbeddingTable(["q"], query, "t"), table)
        expected = rank_candidates(table.ids, scores[0], 5)
        assert [r[0] for r in rows] == [cid for cid, _ in expected]
        assert [float(r[1]) for r in rows] == pytest.approx(
            [score for _, score in expected], abs=1e-6)

    def test_requires_exactly_one_query_source(self, tmp_path, capsys):
        cp = str(tmp_path / "c.sadp")
        write_embeddings(EmbeddingTable(["a"], np.eye(1, 2, dtype=np.float32), "t"), cp)
        assert main(["search", "--corpus", cp]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_dim_mismatch_rejected(self, tmp_path, capsys):
        cp = str(tmp_path / "c.sadp")
        write_embeddings(EmbeddingTable(["a"], np.eye(1, 3, dtype=np.float32), "t"), cp)
        assert main(["search", "--corpus", cp, "--vector", "1,0"]) == 1
        assert "does not match" in capsys.readouterr().err


class TestEmbedCommand:
    def test_embed_writes_fetched_table(self, tmp_path, capsys, monkeypatch):
        items_path = tmp_path / "items.jsonl"
        items_path.write_text(
            '{"_id": "a", "text": "first"}\n{"_id": "b", "text": "second"}\n'
        )
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps({
            "base_url": "https://encoder.example/embed",
            "encoder_tag": "fake-v1",
        }))

        def fake_fetch(items, cfg, session=None):
            assert [it.id for it in items] == ["a", "b"]
            assert cfg.encoder_tag == "fake-v1"
            vecs = np.arange(6, dtype=np.float32).reshape(2, 3)
            return EmbeddingTable([it.id for it in items], vecs, cfg.encoder_tag)

        monkeypatch.setattr("embadapt.cli.fetch_embeddings", fake_fetch)
        out = str(tmp_path / "emb.sadp")
        rc = main(["embed", "--items", str(items_path),
                   "--endpoint-config", str(endpoint), "--out", out])
        assert rc == 0
        table = read_embeddings(out)
        assert table.ids == ["a", "b"]
        assert table.encoder_tag == "fake-v1"
        assert "wrote 2 embeddings" in capsys.readouterr().out
