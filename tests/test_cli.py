import json
import os
import struct
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from embadapt import (
    EmbeddingTable, TrainConfig, init_adapter, read_embeddings, save_checkpoint, transform,
    write_embeddings,
)
from embadapt.cli import _build_parser, _effective_config, main
from embadapt.evaluation import rank_candidates, score_all

from synth import planted_task, seeded_output_layers


ENDPOINT_URL = "https://encoder.example/embed"


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
        assert Path(out1).read_bytes() == Path(out2).read_bytes()
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

    @pytest.mark.parametrize("with_config", [False, True])
    def test_every_field_has_one_flag(self, tmp_path, with_config):
        # every flag at a non-default value, over a --config file that sets
        # every field to its default
        extra = []
        if with_config:
            cfg_file = tmp_path / "cfg.json"
            cfg_file.write_text(json.dumps(TrainConfig().to_dict()))
            extra = ["--config", str(cfg_file)]
        args = _build_parser().parse_args([
            "train", "--queries", "q", "--corpus", "c", "--qrels", "r", "--out", "o",
            "--alpha", "0.5", "--beta", "0.5", "--batch-size", "7", "--max-iters", "9",
            "--patience", "11", "--lr", "0.01", "--neg-ratio", "3", "--hidden", "5",
            "--seed", "4", "--eval-every", "2", "--loss-variant", "ranknet",
            "--no-skip", "--separate-adapters", "--gain", "paper-literal", *extra,
        ])
        effective = _effective_config(args).to_dict()
        default = TrainConfig().to_dict()
        assert [k for k in default if effective[k] == default[k]] == []

    @pytest.mark.parametrize("content, message", [
        ("[1, 2]", "config must be a JSON object"),
        ('{"batch_size": 1.5}', "batch_size must be int"),
        ('{"val_corpus_sample": null}', "unknown config keys: ['val_corpus_sample']"),
        ('{"seed": -1}', "seed must be non-negative"),
    ], ids=["list", "float-batch-size", "removed-key", "negative-seed"])
    def test_bad_config_file_exits_one(self, tmp_path, capsys, content, message):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(content)
        qp, cp, rp = write_task(tmp_path)
        out = tmp_path / "m.sadc"
        assert main(["train", "--queries", qp, "--corpus", cp, "--qrels", rp,
                     "--out", str(out), "--config", str(cfg_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--seed", "-1"], "error: seed must be non-negative\n"),
        (["--lr", "1e308"], "error: Adam step 1 made the f network diverge: "
                            "w1 contains non-finite entries\n"),
    ], ids=["negative-seed", "overflowing-lr"])
    def test_refused_run_writes_nothing(self, tmp_path, capsys, flags, message):
        qp, cp, rp = write_task(tmp_path)
        out = tmp_path / "m.sadc"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "--queries", qp, "--corpus", cp, "--qrels", rp,
                         "--out", str(out), *flags]) == 1
        assert capsys.readouterr() == ("", message)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.sadp", "q.sadp", "rels.tsv"]

    def test_tag_utf8_cannot_encode_leaves_no_checkpoint(self, tmp_path, capsys, monkeypatch):
        # no .sadp file holds such a tag, so the tables get it after reading
        from embadapt import cli

        def read_with_tag(path):
            table = read_embeddings(path)
            return EmbeddingTable(table.ids, table.vectors, "t\udc80")

        monkeypatch.setattr(cli, "read_embeddings", read_with_tag)
        qp, cp, rp = write_task(tmp_path)
        out = tmp_path / "m.sadc"
        assert main(["train", "--queries", qp, "--corpus", cp, "--qrels", rp,
                     "--out", str(out), "--max-iters", "2"]) == 1
        assert capsys.readouterr() == (
            "", "error: encoder tag 't\\udc80' cannot be encoded as UTF-8\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.sadp", "q.sadp", "rels.tsv"]

    @pytest.mark.parametrize("content, reason", [
        ("alpha = 0.5\n", "Expecting value: line 1 column 1 (char 0)"),
        ("[1, 2]", "config must be a JSON object, got list"),
        ('"alpha"', "config must be a JSON object, got str"),
    ], ids=["not-json", "json-list", "json-string"])
    def test_config_error_names_the_flag_and_the_file(self, tmp_path, capsys, content,
                                                      reason):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(content)
        qp, cp, rp = write_task(tmp_path)
        assert main(["train", "--queries", qp, "--corpus", cp, "--qrels", rp,
                     "--out", str(tmp_path / "m.sadc"), "--config", str(cfg_file)]) == 1
        assert capsys.readouterr() == ("", f"error: --config {cfg_file}: {reason}\n")

    @pytest.mark.parametrize("flag, target, message", [
        ("--out", "a-dir", "{flag} {path} is a directory"),
        ("--log", "a-dir", "{flag} {path} is a directory"),
        ("--out", "missing/m.sadc", "{flag} {path}: no such directory {parent}"),
        ("--log", "missing/log.jsonl", "{flag} {path}: no such directory {parent}"),
        ("--log", "m.sadc", "{flag} {path} is the --out path"),
    ], ids=["out-dir", "log-dir", "out-missing-parent", "log-missing-parent", "log-is-out"])
    def test_unwritable_output_refused_before_reading_inputs(
            self, tmp_path, capsys, monkeypatch, flag, target, message):
        def no_read(path):
            raise AssertionError("inputs must not be read before the outputs are checked")

        monkeypatch.setattr("embadapt.cli.read_embeddings", no_read)
        qp, cp, rp = write_task(tmp_path)
        (tmp_path / "a-dir").mkdir()
        path = str(tmp_path / target)
        outputs = {"--out": str(tmp_path / "m.sadc"), "--log": str(tmp_path / "m.log"),
                   flag: path}
        assert main(["train", "--queries", qp, "--corpus", cp, "--qrels", rp,
                     "--out", outputs["--out"], "--log", outputs["--log"]]) == 1
        message = message.format(flag=flag, path=path, parent=tmp_path / "missing")
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a-dir", "c.sadp", "q.sadp", "rels.tsv"]

    def test_default_log_path_that_is_a_directory_is_refused(self, tmp_path, capsys):
        qp, cp, rp = write_task(tmp_path)
        out = tmp_path / "m.sadc"
        Path(f"{out}.log.jsonl").mkdir()
        assert main(["train", "--queries", qp, "--corpus", cp, "--qrels", rp,
                     "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: --log {out}.log.jsonl is a directory\n")
        assert not out.exists()

    def test_failed_log_write_leaves_neither_output(self, tmp_path, capsys, monkeypatch):
        def full_disk(report):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("embadapt.trainer.TrainReport.to_jsonl", full_disk)
        qp, cp, rp = write_task(tmp_path)
        out = tmp_path / "m.sadc"
        assert main(["train", "--queries", qp, "--corpus", cp, "--qrels", rp,
                     "--out", str(out), "--max-iters", "2"]) == 1
        assert capsys.readouterr() == ("", "error: [Errno 28] No space left on device\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.sadp", "q.sadp", "rels.tsv"]

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
        from embadapt import load_checkpoint

        rc, ckpt, (qp, _, _) = run_train(tmp_path)
        assert rc == 0
        out = str(tmp_path / "q_adapted.sadp")
        rc = main(["transform", "--in", qp, "--model", ckpt,
                   "--which", "query", "--out", out])
        assert rc == 0
        original = read_embeddings(qp)
        adapted = read_embeddings(out)
        model = load_checkpoint(ckpt)
        expected = transform(model, original.vectors, "query")
        assert np.array_equal(adapted.vectors, expected)
        assert adapted.ids == original.ids
        # the tag records the side and the CRC32 stored at the checkpoint's end
        crc = zlib.crc32(Path(ckpt).read_bytes()[4:-4])
        assert adapted.encoder_tag == f"{original.encoder_tag}@adapted:query:{crc:08x}"

    def test_writes_the_transform_output_without_a_copy(self, tmp_path, monkeypatch):
        from embadapt import cli

        qp, _, _ = write_task(tmp_path)
        ckpt = str(tmp_path / "m.sadc")
        save_checkpoint(seeded_output_layers(init_adapter(32, seed=1, encoder_tag="synthetic-v1"),
                                             seed=2), ckpt)
        made, written = [], []

        def transform_and_keep(*args):
            made.append(transform(*args))
            return made[-1]

        def keep_and_write(table, path):
            written.append(table)
            write_embeddings(table, path)

        monkeypatch.setattr(cli, "transform", transform_and_keep)
        monkeypatch.setattr(cli, "write_embeddings", keep_and_write)
        out = str(tmp_path / "out.sadp")
        assert main(["transform", "--in", qp, "--model", ckpt, "--out", out]) == 0
        [table] = written
        assert table.vectors is made[0] and table.vectors.dtype == np.float32
        assert not table.vectors.flags.writeable

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


class TestProvenance:
    """transform marks its output with the side and the checkpoint's CRC32,
    so an adapted table is never adapted a second time unless forced."""

    @pytest.fixture
    def files(self, tmp_path):
        qp, cp, rp = write_task(tmp_path)
        tag = read_embeddings(qp).encoder_tag
        paths = {"q": qp, "c": cp, "rels": rp}
        for name, seed in (("A", 1), ("B", 2)):
            model = init_adapter(read_embeddings(qp).dim, seed=seed, encoder_tag=tag)
            model.f_params.w2[:] = np.random.default_rng(seed).normal(
                0.0, 0.2, model.f_params.w2.shape)
            paths[name] = str(tmp_path / f"{name}.sadc")
            save_checkpoint(model, paths[name])
        # <input><checkpoint><side>: qAq is the queries adapted by A as queries
        for name, table, ckpt, side in (("qAq", "q", "A", "query"), ("cAc", "c", "A", "corpus"),
                                        ("cBc", "c", "B", "corpus"),
                                        ("qAc", "q", "A", "corpus")):
            paths[name] = str(tmp_path / f"{name}.sadp")
            assert main(["transform", "--in", paths[table], "--model", paths[ckpt],
                         "--which", side, "--out", paths[name]]) == 0
        return paths

    @staticmethod
    def evaluate(files, queries, corpus, *extra):
        return main(["evaluate", "--queries", files[queries], "--corpus", files[corpus],
                     "--qrels", files["rels"], "--json", *extra])

    def test_tables_adapted_by_one_checkpoint_evaluate_without_model(self, files, capsys):
        capsys.readouterr()
        assert self.evaluate(files, "q", "c", "--model", files["A"]) == 0
        direct = capsys.readouterr().out
        assert self.evaluate(files, "qAq", "cAc") == 0
        assert json.loads(capsys.readouterr().out)["mean_ndcg"] == pytest.approx(
            json.loads(direct)["mean_ndcg"], abs=1e-6)

    @pytest.mark.parametrize("queries, corpus, extra, message", [
        ("qAq", "cAc", ("--model", "A"), "a model would adapt it twice"),
        ("q", "c", ("--model", "A"), None),
        ("qAq", "cBc", (), "not adapted by one checkpoint"),
        ("q", "cAc", (), "not adapted by one checkpoint"),
        ("qAc", "cAc", (), "query table was adapted as corpus"),
    ], ids=["model-on-adapted", "raw-with-model", "two-checkpoints", "one-side-adapted",
            "wrong-side"])
    def test_evaluate_refuses_unless_forced(self, files, capsys, queries, corpus, extra,
                                            message):
        extra = [files.get(arg, arg) for arg in extra]
        capsys.readouterr()
        rc = self.evaluate(files, queries, corpus, *extra)
        if message is None:
            assert rc == 0
            return
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert self.evaluate(files, queries, corpus, *extra, "--force") == 0

    def test_search_and_transform_refuse_a_second_adaptation(self, files, capsys, tmp_path):
        capsys.readouterr()
        vector = ",".join(["0.5"] * read_embeddings(files["c"]).dim)
        search = ["search", "--corpus", files["cAc"], "--vector", vector]
        assert main(search) == 0  # a vector is taken to be a query adapted by A
        assert main([*search, "--model", files["A"]]) == 1
        assert "a model would adapt it twice" in capsys.readouterr().err
        out = str(tmp_path / "twice.sadp")
        assert main(["transform", "--in", files["cAc"], "--model", files["A"],
                     "--which", "corpus", "--out", out]) == 1
        assert "a model would adapt it twice" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_train_refuses_adapted_tables(self, files, capsys, tmp_path):
        out = str(tmp_path / "m.sadc")
        rc = main(["train", "--queries", files["qAq"], "--corpus", files["cAc"],
                   "--qrels", files["rels"], "--out", out, "--max-iters", "2"])
        assert rc == 1
        assert "a model would adapt it twice" in capsys.readouterr().err
        assert not os.path.exists(out)


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
        rows = [line.split("\t") for line in Path(pq).read_text().splitlines()]
        assert len(rows) == report["n_evaluated"]
        for qid, value in rows:
            assert report["per_query_ndcg"][qid] == pytest.approx(float(value), abs=1e-6)

    def test_model_flag_equals_transform_then_evaluate(self, tmp_path, capsys):
        # bit for bit: the same --json line and the same --per-query file
        rc, ckpt, (qp, cp, rp) = run_train(tmp_path)
        assert rc == 0
        capsys.readouterr()
        direct_pq, staged_pq = tmp_path / "direct.tsv", tmp_path / "staged.tsv"
        rc = main(["evaluate", "--queries", qp, "--corpus", cp, "--qrels", rp,
                   "--model", ckpt, "--json", "--per-query", str(direct_pq)])
        assert rc == 0
        direct = capsys.readouterr().out

        qa, ca = str(tmp_path / "qa.sadp"), str(tmp_path / "ca.sadp")
        assert main(["transform", "--in", qp, "--model", ckpt,
                     "--which", "query", "--out", qa]) == 0
        assert main(["transform", "--in", cp, "--model", ckpt,
                     "--which", "corpus", "--out", ca]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--queries", qa, "--corpus", ca, "--qrels", rp,
                     "--json", "--per-query", str(staged_pq)]) == 0
        assert capsys.readouterr().out == direct
        assert staged_pq.read_bytes() == direct_pq.read_bytes()

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_exits_one(self, tmp_path, capsys, k):
        qp, cp, rp = write_task(tmp_path)
        assert main(["evaluate", "--queries", qp, "--corpus", cp, "--qrels", rp,
                     "--k", k]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: k must be >= 1" in err

    def test_k_beyond_int64_ranks_the_whole_corpus(self, tmp_path, capsys):
        qp, cp, rp = write_task(tmp_path)
        assert main(["evaluate", "--queries", qp, "--corpus", cp, "--qrels", rp,
                     "--k", str(2**64), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["k"] == 2**64

    def test_tables_from_different_encoders_exit_one(self, tmp_path, capsys):
        qp, cp, rp = write_task(tmp_path)
        q = read_embeddings(qp)
        write_embeddings(EmbeddingTable(q.ids, q.vectors, "enc-other"), qp)
        assert main(["evaluate", "--queries", qp, "--corpus", cp, "--qrels", rp]) == 1
        assert "enc-other" in capsys.readouterr().err

    def test_dangling_positive_exits_one(self, tmp_path, capsys):
        qp, cp, rp = write_task(tmp_path)
        with open(rp, "a", encoding="utf-8") as f:
            f.write(f"{read_embeddings(qp).ids[0]}\tzz\t1\n")
        assert main(["evaluate", "--queries", qp, "--corpus", cp, "--qrels", rp]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "missing embeddings" in err

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


class TestDuplicateIds:
    def test_every_reader_refuses_a_file_with_a_repeated_id(self, tmp_path, capsys):
        dup = tmp_path / "dup.sadp"
        ids, dim = ["a", "b", "a"], 3
        body = (struct.pack("<HQIH", 2, len(ids), dim, 1) + b"t"
                + struct.pack("<3H", 1, 1, 1) + "".join(ids).encode()
                + np.eye(len(ids), dim, dtype="<f4").tobytes())
        dup.write_bytes(b"SADP" + body + struct.pack("<I", zlib.crc32(body)))
        q = tmp_path / "q.sadp"
        write_embeddings(EmbeddingTable(["q"], np.ones((1, dim), np.float32), "t"), q)
        rels, model = tmp_path / "rels.tsv", tmp_path / "m.sadc"
        rels.write_text("q\ta\t1\n")
        save_checkpoint(init_adapter(dim, 2, seed=0, encoder_tag="t"), str(model))
        out = tmp_path / "out"
        for argv in (["search", "--corpus", str(dup), "--vector", "1,0,0"],
                     ["search", "--corpus", str(dup), "--model", str(model), "--vector", "1,0,0"],
                     ["transform", "--in", str(dup), "--model", str(model), "--out", str(out)],
                     ["evaluate", "--queries", str(q), "--corpus", str(dup), "--qrels", str(rels),
                      "--per-query", str(out)],
                     ["evaluate", "--queries", str(dup), "--corpus", str(q), "--qrels", str(rels),
                      "--model", str(model), "--json"]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {dup}: duplicate embedding id: 'a'\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == [
                "dup.sadp", "m.sadc", "q.sadp", "rels.tsv"]


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

    def test_zero_vector_scores_positive_zero_in_id_order(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        ids = [f"c{i}" for i in range(20)]
        table = EmbeddingTable(ids, rng.standard_normal((20, 4)).astype(np.float32), "t")
        cp = str(tmp_path / "c.sadp")
        write_embeddings(table, cp)
        rc = main(["search", "--corpus", cp, "--vector", "0,0,0,0", "--k", "5"])
        assert rc == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert [r[0] for r in rows] == sorted(ids)[:5]
        assert [r[1] for r in rows] == ["0.000000"] * 5

    @pytest.mark.parametrize("separate", [False, True])
    def test_model_search_prints_the_search_over_transformed_files(
            self, tmp_path, capsys, separate):
        # search --model scores the rows that transform writes, so both routes
        # print the same bytes
        qp, cp, _ = write_task(tmp_path)
        q = read_embeddings(qp)
        model = seeded_output_layers(init_adapter(q.dim, seed=1, separate_adapters=separate,
                                                  encoder_tag=q.encoder_tag), seed=2)
        ckpt, one = str(tmp_path / "m.sadc"), str(tmp_path / "one.sadp")
        save_checkpoint(model, ckpt)
        write_embeddings(EmbeddingTable(["q"], q.vectors[:1], q.encoder_tag), one)
        qa, ca = str(tmp_path / "qa.sadp"), str(tmp_path / "ca.sadp")
        assert main(["transform", "--in", one, "--model", ckpt,
                     "--which", "query", "--out", qa]) == 0
        assert main(["transform", "--in", cp, "--model", ckpt,
                     "--which", "corpus", "--out", ca]) == 0

        def vector(path):
            return ",".join(repr(float(x)) for x in read_embeddings(path).vectors[0])

        capsys.readouterr()
        assert main(["search", "--corpus", cp, "--model", ckpt,
                     "--vector", vector(one), "--k", "10"]) == 0
        direct = capsys.readouterr().out
        assert main(["search", "--corpus", ca, "--vector", vector(qa), "--k", "10"]) == 0
        assert capsys.readouterr().out == direct
        assert len(direct.splitlines()) == 10

    def test_k_beyond_int64_prints_the_whole_corpus(self, tmp_path, capsys):
        qp, cp, _ = write_task(tmp_path, n_corpus=80)
        vector = ",".join(repr(float(x)) for x in read_embeddings(qp).vectors[0])
        assert main(["search", "--corpus", cp, "--vector", vector, "--k", "80"]) == 0
        whole = capsys.readouterr().out
        assert len(whole.splitlines()) == 80
        assert main(["search", "--corpus", cp, "--vector", vector, "--k", str(2**64)]) == 0
        assert capsys.readouterr().out == whole

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_exits_one(self, tmp_path, capsys, k):
        cp = str(tmp_path / "c.sadp")
        write_embeddings(EmbeddingTable(["a", "b"], np.eye(2, dtype=np.float32), "t"), cp)
        assert main(["search", "--corpus", cp, "--vector", "1,0", "--k", k]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: k must be >= 1" in err

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

    @pytest.mark.parametrize("vector", ["abc,0,0,0", "1,,0,0", ""])
    def test_vector_component_not_a_number_exits_one(self, tmp_path, capsys, vector):
        cp = str(tmp_path / "c.sadp")
        write_embeddings(EmbeddingTable(["a", "b"], np.eye(2, 4, dtype=np.float32), "t"), cp)
        assert main(["search", "--corpus", cp, "--vector", vector]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("error:") == 1 and len(err.splitlines()) == 1
        assert "--vector" in err

    @pytest.mark.parametrize("component", ["1e39", "nan", "inf"])
    def test_vector_not_finite_in_float32_exits_one(self, tmp_path, capsys, component):
        # the rule of an encoder body; 1e39 is refused without an overflow warning
        cp = str(tmp_path / "c.sadp")
        write_embeddings(EmbeddingTable(["a", "b"], np.eye(2, 4, dtype=np.float32), "t"), cp)
        assert main(["search", "--corpus", cp, "--vector", f"{component},0,0,0"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("error:") == 1 and len(err.splitlines()) == 1
        assert "--vector" in err

    def test_model_that_overflows_float32_exits_one(self, tmp_path, capsys):
        # the checkpoint's parameters are finite, but its float32 output is not
        cp, ckpt = str(tmp_path / "c.sadp"), str(tmp_path / "m.sadc")
        write_embeddings(EmbeddingTable(["a", "b", "c"], np.eye(3, 4, dtype=np.float32), "t"), cp)
        model = init_adapter(4, seed=0, encoder_tag="t")
        model.f_params.b1[...] = 100.0
        model.f_params.w2[...] = 1e38
        save_checkpoint(model, ckpt)
        assert main(["search", "--corpus", cp, "--model", ckpt, "--vector", "1,0,0,0"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: the adapted query embeddings are not all finite in float32\n"


    @pytest.mark.parametrize("force", [False, True])
    def test_text_query_keeps_its_encoder_tag(self, tmp_path, capsys, monkeypatch, force):
        cp = str(tmp_path / "c.sadp")
        write_embeddings(EmbeddingTable(["a", "b"], np.eye(2, dtype=np.float32), "enc-b"), cp)
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps({"base_url": "https://encoder.example/embed",
                                        "encoder_tag": "enc-a"}))

        def fake_fetch(items, cfg, session=None):
            return EmbeddingTable([it.id for it in items],
                                  np.array([[0.0, 1.0]], dtype=np.float32), cfg.encoder_tag)

        monkeypatch.setattr("embadapt.cli.fetch_embeddings", fake_fetch)
        rc = main(["search", "--corpus", cp, "--text", "hello",
                   "--endpoint-config", str(endpoint), *(["--force"] * force)])
        out, err = capsys.readouterr()
        if force:
            assert rc == 0
            assert out.splitlines()[0].split("\t")[0] == "b"
        else:
            assert rc == 1
            assert "'enc-a'" in err and "'enc-b'" in err


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

    @pytest.mark.parametrize("config, message", [
        ({"base_url": ENDPOINT_URL, "bogus": 1}, "unknown config keys: ['bogus']"),
        ([ENDPOINT_URL], "config must be a JSON object, got list"),
        ({"base_url": ENDPOINT_URL, "max_batch": "10"}, "max_batch must be int, got '10'"),
        ({"base_url": ENDPOINT_URL, "timeout_seconds": float("nan")},
         "timeout_seconds must be finite float, got nan"),
        ({"encoder_tag": "enc"}, "missing config keys: ['base_url']"),
        ({"base_url": ENDPOINT_URL, "timeout_seconds": 0}, "timeout_seconds must be > 0"),
        ({"base_url": ENDPOINT_URL, "timeout_seconds": -1.0}, "timeout_seconds must be > 0"),
        ({"base_url": ENDPOINT_URL, "backoff_base_seconds": -0.5},
         "backoff_base_seconds must be >= 0"),
    ], ids=["unknown-key", "json-list", "wrong-type", "nan-timeout", "no-base-url",
            "zero-timeout", "negative-timeout", "negative-backoff"])
    def test_bad_endpoint_config_exits_one(self, tmp_path, capsys, monkeypatch, config,
                                           message):
        items_path = tmp_path / "items.jsonl"
        items_path.write_text('{"_id": "a", "text": "first"}\n')
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps(config))

        def no_fetch(items, cfg, session=None):
            raise AssertionError("a refused config must not reach the encoder")

        monkeypatch.setattr("embadapt.cli.fetch_embeddings", no_fetch)
        out = tmp_path / "emb.sadp"
        rc = main(["embed", "--items", str(items_path),
                   "--endpoint-config", str(endpoint), "--out", str(out)])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


    def test_id_that_utf8_cannot_encode_refused_before_any_request(self, tmp_path, capsys,
                                                                     monkeypatch):
        items_path = tmp_path / "items.jsonl"
        items_path.write_text('{"_id": "a", "text": "first"}\n{"_id": "\\udfff", "text": "x"}\n')
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps({"base_url": ENDPOINT_URL}))

        def no_fetch(items, cfg, session=None):
            raise AssertionError("refused items must not reach the encoder")

        monkeypatch.setattr("embadapt.cli.fetch_embeddings", no_fetch)
        out = tmp_path / "emb.sadp"
        rc = main(["embed", "--items", str(items_path),
                   "--endpoint-config", str(endpoint), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {items_path}:2: '_id' '\\udfff' cannot be encoded as UTF-8\n")
        assert not out.exists()


class TestOutputIsADirectory:
    @pytest.mark.parametrize("command", ["transform", "evaluate", "embed"])
    def test_error_names_the_path_and_leaves_no_temp_file(self, tmp_path, capsys,
                                                          monkeypatch, command):
        rc, ckpt, (qp, cp, rp) = run_train(tmp_path)
        assert rc == 0
        target = tmp_path / "a-dir"
        target.mkdir()
        items = tmp_path / "items.jsonl"
        items.write_text('{"_id": "a", "text": "first"}\n')
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps({"base_url": ENDPOINT_URL}))
        monkeypatch.setattr("embadapt.cli.fetch_embeddings", lambda items, cfg: (
            EmbeddingTable(["a"], np.ones((1, 3), dtype=np.float32))))
        argv = {
            "transform": ["transform", "--in", qp, "--model", ckpt, "--out", str(target)],
            "evaluate": ["evaluate", "--queries", qp, "--corpus", cp, "--qrels", rp,
                         "--per-query", str(target)],
            "embed": ["embed", "--items", str(items), "--endpoint-config", str(endpoint),
                      "--out", str(target)],
        }[command]
        before = sorted(p.name for p in tmp_path.iterdir())
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {target} is a directory\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert list(target.iterdir()) == []


class TestOutputMode:
    def test_outputs_get_the_mode_open_gives(self, tmp_path, monkeypatch):
        """Every file the CLI writes has the mode of a file that open() makes
        in the same directory, not the 0600 of a mkstemp file."""
        old_umask = os.umask(0o022)
        try:
            rc, ckpt, (qp, cp, rp) = run_train(tmp_path)
            assert rc == 0
            transformed = str(tmp_path / "q_adapted.sadp")
            assert main(["transform", "--in", qp, "--model", ckpt, "--which", "query",
                         "--out", transformed]) == 0
            per_query = str(tmp_path / "per_query.tsv")
            assert main(["evaluate", "--queries", qp, "--corpus", cp, "--qrels", rp,
                         "--per-query", per_query]) == 0
            items = tmp_path / "items.jsonl"
            items.write_text('{"_id": "a", "text": "first"}\n')
            endpoint = tmp_path / "endpoint.json"
            endpoint.write_text(json.dumps({"base_url": ENDPOINT_URL}))
            monkeypatch.setattr("embadapt.cli.fetch_embeddings", lambda items, cfg: (
                EmbeddingTable(["a"], np.ones((1, 3), dtype=np.float32))))
            embedded = str(tmp_path / "emb.sadp")
            assert main(["embed", "--items", str(items), "--endpoint-config", str(endpoint),
                         "--out", embedded]) == 0
            reference = tmp_path / "reference"
            open(reference, "w").close()
        finally:
            os.umask(old_umask)
        mode = reference.stat().st_mode
        for path in (ckpt, ckpt + ".log.jsonl", transformed, per_query, embedded):
            assert os.stat(path).st_mode == mode, path
