import argparse
import contextlib
import io
import itertools
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import embadapt
from embadapt import (
    EmbeddingTable, TrainConfig, init_adapter, load_checkpoint, read_embeddings, save_checkpoint,
    transform, write_embeddings,
)
from embadapt import adapter
from embadapt.cli import _In, _Out, _build_parser, _effective_config, _read_settings, main
from embadapt.config import EncoderEndpointConfig
from embadapt.data import adapted_tag, as_side, check_compatible, check_embeddings
from embadapt.errors import DataError, EmbAdaptError
from embadapt.evaluation import evaluate, rank_candidates, ranked_lists, score_all
from embadapt.io import BlockReader, load_qrels_tsv

from synth import pin_workers, planted_task, seeded_output_layers


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
        ("[1, 2]", "not a JSON object"),
        ('{"batch_size": 1.5}', "batch_size must be int"),
        ('{"val_corpus_sample": null}', "unknown keys: ['val_corpus_sample']"),
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
        ("alpha = 0.5\n", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("[1, 2]", "not a JSON object, got list"),
        ('"alpha"', "not a JSON object, got str"),
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

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("dim", [64, 256])
    def test_peak_memory_is_the_blocks_in_flight(self, tmp_path, monkeypatch, capsys, dim,
                                                 n_workers):
        # neither the input's rows nor the adapted rows are ever held whole,
        # nor the input's rows when a model's output overflows float32 and
        # the serial path's checks are replayed to find the first fault
        n = 16_000
        path = tmp_path / "c.sadp"
        rows = np.random.default_rng(0).standard_normal((n, dim)).astype(np.float32)
        write_embeddings(EmbeddingTable([f"d{i}" for i in range(n)], rows, "t"), path)
        del rows
        model = seeded_output_layers(init_adapter(dim, seed=1, encoder_tag="t"), seed=2)
        save_checkpoint(model, str(tmp_path / "m.sadc"))
        model.f_params.w1[...], model.f_params.b1[...], model.f_params.w2[...] = 0, 1, 2e38
        save_checkpoint(model, str(tmp_path / "overflow.sadc"))
        pin_workers(monkeypatch, n_workers)
        for name, rc in (("m", 0), ("overflow", 1)):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                assert main(["transform", "--in", str(path), "--model",
                             str(tmp_path / f"{name}.sadc"),
                             "--out", str(tmp_path / f"{name}.sadp")]) == rc
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - before < 4 * adapter.ROW_BLOCK_BYTES * adapter.workers()
        err = capsys.readouterr().err
        assert err == "error: the adapted query embeddings are not all finite in float32\n"
        assert not (tmp_path / "overflow.sadp").exists()
        assert list(tmp_path.glob(".tmp-*.part")) == []

    def test_same_bytes_without_positional_reads_and_writes(self, tmp_path, monkeypatch):
        # where the platform has no os.preadv or os.pwrite, a seek and a read
        # or write under a lock take their place
        qp, _, _ = write_task(tmp_path)
        ckpt = str(tmp_path / "m.sadc")
        save_checkpoint(seeded_output_layers(init_adapter(32, seed=1, encoder_tag="synthetic-v1"),
                                             seed=2), ckpt)
        pin_workers(monkeypatch, 2)
        monkeypatch.setattr(adapter, "ROW_BLOCK_BYTES", 8 * 32 * 5)  # blocks of 4 or 5 rows
        outs = [str(tmp_path / f"out{i}.sadp") for i in range(2)]
        assert main(["transform", "--in", qp, "--model", ckpt, "--out", outs[0]]) == 0
        monkeypatch.delattr(os, "preadv")
        monkeypatch.delattr(os, "pwrite")
        assert main(["transform", "--in", qp, "--model", ckpt, "--out", outs[1]]) == 0
        assert Path(outs[0]).read_bytes() == Path(outs[1]).read_bytes()
        write_embeddings(read_embeddings(qp), tmp_path / "copy.sadp")
        assert (tmp_path / "copy.sadp").read_bytes() == Path(qp).read_bytes()

    def test_many_workers_with_a_short_switch_interval(self, tmp_path, monkeypatch):
        # more workers than CPUs, switching threads often: every block's
        # CRC32 and every fault still reach the calling thread
        n = 300
        vectors = np.random.default_rng(0).standard_normal((n, 4)).astype(np.float32)
        ids = [f"id{i}" for i in range(n)]
        (tmp_path / "in.sadp").write_bytes(sadp_bytes(ids, vectors, b"t"))
        vectors[-1, 0] = np.nan
        (tmp_path / "nan.sadp").write_bytes(sadp_bytes(ids, vectors, b"t"))
        model = seeded_output_layers(
            init_adapter(4, seed=1, encoder_tag="t", config=TrainConfig(hidden=4)), seed=2)
        save_checkpoint(model, str(tmp_path / "m.sadc"))
        model.f_params.w1[...], model.f_params.b1[...], model.f_params.w2[...] = 0, 1, 2e38
        save_checkpoint(model, str(tmp_path / "overflow.sadc"))
        monkeypatch.setattr(adapter, "ROW_BLOCK_BYTES", 8 * 4 * 3)  # 100 blocks of 3 rows
        pin_workers(monkeypatch, adapter.MAX_WORKERS)
        args = [str(tmp_path / "in.sadp"), str(tmp_path / "m.sadc"), "query", False]
        ref = str(tmp_path / "ref.sadp")
        assert in_memory_transform(*args, ref)[0] == 0
        out = str(tmp_path / "out.sadp")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert run_main(["transform", "--in", args[0], "--model", args[1],
                                 "--out", out])[0] == 0
                assert Path(out).read_bytes() == Path(ref).read_bytes()
                # the overflow shows in every block, the NaN in the last only
                assert run_main(["transform", "--in", str(tmp_path / "nan.sadp"), "--model",
                                 str(tmp_path / "overflow.sadc"), "--out", out]) == (
                    1, "", f"error: {tmp_path / 'nan.sadp'}: embedding vectors must be finite\n")
        finally:
            sys.setswitchinterval(interval)

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


def sadp_bytes(ids, vectors, tag: bytes) -> bytes:
    """A .sadp file with a valid CRC32, written by hand."""
    raw = [item_id.encode("utf-8") for item_id in ids]
    vectors = np.asarray(vectors, dtype="<f4")
    body = (struct.pack("<HQIH", 2, len(ids), vectors.shape[1], len(tag)) + tag
            + struct.pack(f"<{len(ids)}H", *map(len, raw)) + b"".join(raw) + vectors.tobytes())
    return b"SADP" + body + struct.pack("<I", zlib.crc32(body))


def serial_read(path):
    """read_embeddings as one serial pass, each fault raised where it is met:
    the header, the ids checked and decoded, the vectors, the checksum and
    trailing bytes, then EmbeddingTable's checks (shape, finite, unique)."""
    with open(path, "rb") as f:
        r = BlockReader(f, path, b"SADP")
        version, count, dim, tag_len = r.unpack("<HQIH", "header")
        if version != 2:
            raise r.error(f"unsupported version {version}")
        tag = r.string(tag_len, "encoder tag")
        lengths = struct.unpack(f"<{count}H", r.read(2 * count, "id lengths"))
        what = "ids the id lengths imply"
        raw = r.read(sum(lengths), what)
        r.decode(raw, what)
        ends = list(itertools.accumulate(lengths))
        for i, start in enumerate(ends[:-1], start=1):
            if start < len(raw) and raw[start] & 0xC0 == 0x80:
                raise r.error(f"{what} is not valid UTF-8: the string at index {i} "
                              "starts inside a character")
        ids = [raw[a:b].decode("utf-8") for a, b in zip([0, *ends], ends)]
        vectors = r.array((count, dim), "vectors")
        r.end()
    try:
        return EmbeddingTable(ids, vectors, tag)
    except DataError as exc:
        raise r.error(str(exc)) from exc


def reported(run):
    """run() reported as main reports it: (exit code, stdout, stderr)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            run()
    except (EmbAdaptError, OSError, ValueError) as exc:
        return 1, "", f"error: {exc}\n"
    return 0, out.getvalue(), ""


def in_memory_transform(in_path, model_path, which, force, out_path):
    """transform as serial_read, load_checkpoint, check_compatible,
    adapter.transform and write_embeddings one after another, reported as
    main reports it: (exit code, stdout, stderr)."""
    try:
        table = serial_read(in_path)
        model = load_checkpoint(model_path)
        check_compatible({"input": table}, model, force)
        adapted = transform(model, table.vectors, which)
        tag = adapted_tag(table.encoder_tag, which, model.checkpoint_crc)
        write_embeddings(EmbeddingTable(table.ids, adapted, tag), out_path)
    except (EmbAdaptError, OSError, ValueError) as exc:
        return 1, "", f"error: {exc}\n"
    return 0, f"wrote {len(table)} adapted ({which}) embeddings -> {out_path}\n", ""


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


REGIONS = ("header", "tag", "id lengths", "ids", "vectors", "checksum")
DAMAGE = st.one_of(
    st.none(),
    st.tuples(st.just("flip"), st.sampled_from(REGIONS), st.integers(0, 2**16),
              st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(1, 600)),
    st.tuples(st.just("trailing"), st.binary(min_size=1, max_size=8)),
)
DEFECTS = ("duplicate id", "NaN in the last block", "foreign tag", "wrong dim", "overflow",
           "corrupt checkpoint")


class TestStreamedTransformEqualsInMemory:
    """transform streams the file in row blocks and must exit, print and
    write as the in-memory path does: the same first fault, in that path's
    order, however the blocks are spread over the workers."""

    @settings(deadline=None, max_examples=80, database=None)
    @given(defects=st.sets(st.sampled_from(DEFECTS), max_size=2), damage=DAMAGE,
           which=st.sampled_from(["query", "corpus"]), force=st.booleans())
    def test_same_exit_code_messages_and_files(self, defects, damage, which, force):
        n, dim = 23, 5 if "wrong dim" in defects else 4
        ids = [f"id{i}" for i in range(n)]
        if "duplicate id" in defects:
            ids[17] = ids[3]
        vectors = np.random.default_rng(0).standard_normal((n, dim)).astype(np.float32)
        if "NaN in the last block" in defects:
            vectors[-1, 1] = np.nan
        tag = b"other" if "foreign tag" in defects else b"t"
        data = bytearray(sadp_bytes(ids, vectors, tag))
        if damage is not None and damage[0] == "flip":
            _, region, at, mask = damage
            sizes = [16, len(tag), 2 * n, sum(map(len, ids)), 4 * n * dim, 4]
            start = 4 + sum(sizes[: REGIONS.index(region)])
            data[start + at % sizes[REGIONS.index(region)]] ^= mask
        elif damage is not None and damage[0] == "truncate":
            del data[max(0, len(data) - damage[1]):]
        elif damage is not None:
            data += damage[1]
        model = seeded_output_layers(
            init_adapter(4, seed=1, encoder_tag="t", config=TrainConfig(hidden=4)), seed=2)
        if "overflow" in defects:  # every adapted component is about 6e38
            model.f_params.w1[...], model.f_params.b1[...], model.f_params.w2[...] = 0, 1, 2e38
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            tmp = Path(tmp)
            (tmp / "in.sadp").write_bytes(data)
            save_checkpoint(model, str(tmp / "m.sadc"))
            if "corrupt checkpoint" in defects:
                checkpoint = bytearray((tmp / "m.sadc").read_bytes())
                checkpoint[-1] ^= 1
                (tmp / "m.sadc").write_bytes(checkpoint)
            (tmp / "ref").mkdir()
            (tmp / "run").mkdir()
            # blocks of 4 or 5 rows, in both paths
            mp.setattr(adapter, "ROW_BLOCK_BYTES", 8 * 4 * 5)
            args = [str(tmp / "in.sadp"), str(tmp / "m.sadc"), which, force]
            ref_out, out = str(tmp / "ref" / "out.sadp"), str(tmp / "run" / "out.sadp")
            rc, stdout, stderr = in_memory_transform(*args, ref_out)
            for n_workers in (1, 2):
                pin_workers(mp, n_workers)
                got = run_main(["transform", "--in", args[0], "--model", args[1], "--which", which,
                                "--out", out, *(["--force"] if force else [])])
                assert got[0] == rc
                assert got[1] == stdout.replace(ref_out, out)
                assert got[2].split("\n")[0] == stderr.split("\n")[0]
                if rc == 0:
                    assert Path(out).read_bytes() == Path(ref_out).read_bytes()
                    os.unlink(out)
                assert list((tmp / "run").iterdir()) == []


def adapted_tables(q_table, c_table, model, force):
    """The checks of ranked_lists with a model, then the two tables that
    transform writes, the query's first: the model's ranking is the ranking
    of these without one (so their tags are not checked again)."""
    check_compatible({"query": q_table, "corpus": c_table}, model, force)
    if model is None:
        return q_table, c_table
    return [EmbeddingTable(t.ids, transform(model, t.vectors, which), t.encoder_tag)
            for t, which in ((q_table, "query"), (c_table, "corpus"))]


def in_memory_search(corpus, model_path, vector, k, force):
    """search as serial_read, load_checkpoint, transform and ranked_lists
    over in-memory tables, one after another, reported as main reports it."""
    def run():
        c_table = serial_read(corpus)
        model = load_checkpoint(model_path) if model_path is not None else None
        query = np.array([[float(x) for x in vector.split(",")]], np.float32)
        q_table = EmbeddingTable(["q"], query, as_side(c_table.encoder_tag, "query"))
        [ranked] = ranked_lists(*adapted_tables(q_table, c_table, model, force), k=k,
                                force=True)
        for cid, score in ranked.entries:
            print(f"{cid}\t{score:.6f}")
    return reported(run)


def in_memory_evaluate(queries, corpus, qrels, model_path, force, per_query):
    """evaluate --json --per-query as serial_read twice, load_qrels_tsv,
    load_checkpoint, transform and evaluate over in-memory tables, one after
    another."""
    def run():
        q_table, c_table = serial_read(queries), serial_read(corpus)
        rels = load_qrels_tsv(qrels)
        model = load_checkpoint(model_path) if model_path is not None else None
        check_embeddings(q_table, c_table, rels.restricted_to(q_table.ids))
        report = evaluate(*adapted_tables(q_table, c_table, model, force), rels, force=True)
        Path(per_query).write_text("".join(f"{qid}\t{v:.6f}\n" for qid, v in
                                           sorted(report.per_query_ndcg.items())))
        print(report.to_json())
    return reported(run)


def read_outcome(path):
    """A read's outcome: the exception's type and message, or the table."""
    try:
        table = read_embeddings(path)
    except Exception as exc:  # noqa: BLE001 - compared with the oracle's
        return type(exc), str(exc)
    return table.ids, table.vectors.tobytes(), table.encoder_tag


def serial_outcome(path):
    try:
        table = serial_read(path)
    except Exception as exc:  # noqa: BLE001 - compared with the reader's
        return type(exc), str(exc)
    return table.ids, table.vectors.tobytes(), table.encoder_tag


def damaged(ids, vectors, tag, damage):
    """The bytes of a .sadp file with one damage of DAMAGE done to them."""
    data = bytearray(sadp_bytes(ids, vectors, tag))
    if damage is not None and damage[0] == "flip":
        _, region, at, mask = damage
        sizes = [16, len(tag), 2 * len(ids), sum(len(i.encode()) for i in ids),
                 vectors.nbytes, 4]
        start = 4 + sum(sizes[: REGIONS.index(region)])
        data[start + at % sizes[REGIONS.index(region)]] ^= mask
    elif damage is not None and damage[0] == "truncate":
        del data[max(0, len(data) - damage[1]):]
    elif damage is not None:
        data += damage[1]
    return bytes(data)


FILE_DEFECTS = ("duplicate id", "NaN in the last block", "foreign tag", "wrong dim")
MODEL_DEFECTS = ("overflow", "corrupt checkpoint")


def case(command, defects, with_model=True, defective="corpus", damage=None,
         damaged_file="corpus", force=False):
    """One example of TestEveryReadEqualsTheSerialPath, by name."""
    return example(command=command, with_model=with_model, defects=defects,
                   defective=defective, damage=damage, damaged_file=damaged_file, force=force)


class TestEveryReadEqualsTheSerialPath:
    """read_embeddings, search and evaluate read each file through the one
    block pipeline, on the workers, and must return, exit, print and write
    as the serial path does: every input read in turn, then the in-memory
    ranking. With a model, the first fault in that path's order is raised,
    the query's adapt fault before the corpus's."""

    @settings(deadline=None, max_examples=200, database=None)
    # two faults at once, in one file or in two, and the faults that only a
    # model's set-up can raise
    @case("search", {"overflow"})
    @case("evaluate", {"overflow"})
    @case("evaluate", {"overflow", "NaN in the last block"}, force=True)
    @case("search", {"corrupt checkpoint", "duplicate id"}, damaged_file="queries")
    @case("search", {"corrupt checkpoint"}, defective="queries", damaged_file="queries")
    @case("search", {"wrong dim", "overflow"}, force=True)
    @case("evaluate", {"corrupt checkpoint", "foreign tag"}, defective="queries",
          damage=("flip", "vectors", 7, 1))
    @case("evaluate", {"wrong dim", "duplicate id"}, with_model=False, defective="queries",
          damage=("truncate", 3))
    @case("read", {"NaN in the last block", "duplicate id"}, with_model=False,
          damage=("flip", "checksum", 0, 1))
    @given(command=st.sampled_from(["read", "search", "evaluate"]), with_model=st.booleans(),
           defects=st.sets(st.sampled_from(FILE_DEFECTS + MODEL_DEFECTS), max_size=2),
           defective=st.sampled_from(["queries", "corpus"]), damage=DAMAGE,
           damaged_file=st.sampled_from(["queries", "corpus"]), force=st.booleans())
    def test_same_outcome_at_one_and_two_workers(self, command, with_model, defects, defective,
                                                 damage, damaged_file, force):
        rng = np.random.default_rng(0)
        files = {}
        for name, n, prefix in (("queries", 13, "q"), ("corpus", 23, "c")):
            hit = name == defective
            ids = [f"{prefix}{i}" for i in range(n)]
            if hit and "duplicate id" in defects:
                ids[17 % n] = ids[3]
            dim = 5 if hit and "wrong dim" in defects else 4
            vectors = rng.standard_normal((n, dim)).astype(np.float32)
            if hit and "NaN in the last block" in defects:
                vectors[-1, 1] = np.nan
            tag = b"other" if hit and "foreign tag" in defects else b"t"
            files[name] = damaged(ids, vectors, tag, damage if name == damaged_file else None)
        model = seeded_output_layers(
            init_adapter(4, seed=1, encoder_tag="t", config=TrainConfig(hidden=4)), seed=2)
        if "overflow" in defects:  # every adapted component, query and corpus, is about 6e38
            model.f_params.w1[...], model.f_params.b1[...], model.f_params.w2[...] = 0, 1, 2e38
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            tmp = Path(tmp)
            for name, data in files.items():
                (tmp / f"{name}.sadp").write_bytes(data)
            save_checkpoint(model, str(tmp / "m.sadc"))
            if "corrupt checkpoint" in defects:
                checkpoint = bytearray((tmp / "m.sadc").read_bytes())
                checkpoint[-1] ^= 1
                (tmp / "m.sadc").write_bytes(checkpoint)
            (tmp / "rels.tsv").write_text("".join(f"q{i}\tc{2 * i}\t1\n" for i in range(6)))
            (tmp / "ref").mkdir()
            (tmp / "run").mkdir()
            mp.setattr(adapter, "ROW_BLOCK_BYTES", 8 * 4 * 5)  # blocks of 4 or 5 rows
            queries, corpus = str(tmp / "queries.sadp"), str(tmp / "corpus.sadp")
            model_path = str(tmp / "m.sadc") if with_model else None
            flags = [*(["--model", model_path] if with_model else []),
                     *(["--force"] if force else [])]
            vector = "0.5,-1,2,0.25"
            ref_out, out = tmp / "ref" / "pq.tsv", tmp / "run" / "pq.tsv"
            if command == "read":
                expected = [serial_outcome(queries), serial_outcome(corpus)]
            elif command == "search":
                expected = in_memory_search(corpus, model_path, vector, 10, force)
                argv = ["search", "--corpus", corpus, "--vector", vector, *flags]
            else:
                expected = in_memory_evaluate(queries, corpus, str(tmp / "rels.tsv"), model_path,
                                              force, ref_out)
                argv = ["evaluate", "--queries", queries, "--corpus", corpus, "--qrels",
                        str(tmp / "rels.tsv"), "--json", "--per-query", str(out), *flags]
            for n_workers in (1, 2):
                pin_workers(mp, n_workers)
                if command == "read":
                    assert [read_outcome(queries), read_outcome(corpus)] == expected
                    continue
                rc, stdout, stderr = run_main(argv)
                assert (rc, stdout) == expected[:2]
                assert stderr.split("\n")[0] == expected[2].split("\n")[0]
                if rc == 0 and command == "evaluate":
                    assert out.read_bytes() == ref_out.read_bytes()
                    os.unlink(out)
                assert list((tmp / "run").iterdir()) == []

    @pytest.mark.parametrize("command", ["search", "evaluate"])
    def test_replay_keeps_no_side_of_the_fused_reads(self, tmp_path, monkeypatch, command):
        # the replay reads every input whole again, so nothing of the fused
        # reads, their sides among it, may be kept alive beside it: the run
        # that meets the fault peaks within half the corpus' rows of the
        # clean run, below a second copy of them. One worker, so that each
        # run holds the same blocks in flight.
        rng = np.random.default_rng(0)
        dim = 64
        for name, n in (("q", 8), ("c", 16_000)):
            write_embeddings(EmbeddingTable([f"{name}{i}" for i in range(n)], rng.standard_normal(
                (n, dim)).astype(np.float32), "t"), tmp_path / f"{name}.sadp")
        data = bytearray((tmp_path / "c.sadp").read_bytes())
        data[-5] ^= 1  # the last vector byte
        (tmp_path / "bad.sadp").write_bytes(data)
        (tmp_path / "rels.tsv").write_text("q0\tc0\t1\n")
        save_checkpoint(seeded_output_layers(init_adapter(dim, seed=1, encoder_tag="t"), seed=2),
                        str(tmp_path / "m.sadc"))
        pin_workers(monkeypatch, 1)
        peaks = []
        query = (["--vector", ",".join(["0.5"] * dim)] if command == "search" else
                 ["--queries", str(tmp_path / "q.sadp"), "--qrels", str(tmp_path / "rels.tsv")])
        for name, rc in (("c", 0), ("bad", 1)):
            argv = [command, "--corpus", str(tmp_path / f"{name}.sadp"), "--model",
                    str(tmp_path / "m.sadc"), *query]
            tracemalloc.start()
            try:
                assert run_main(argv)[0] == rc
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 16_000 * dim * 4 // 2


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

    def test_per_query_file_is_utf8_under_any_locale(self, tmp_path):
        # under the C locale with UTF-8 mode off, text files default to ASCII
        write_embeddings(EmbeddingTable(["q\u00e9"], np.ones((1, 2), np.float32), "t"),
                         tmp_path / "q.sadp")
        write_embeddings(EmbeddingTable(["c1", "c2"], np.eye(2, dtype=np.float32), "t"),
                         tmp_path / "c.sadp")
        (tmp_path / "rels.tsv").write_text("q\u00e9\tc1\t1\n", encoding="utf-8")
        src = str(Path(embadapt.__file__).resolve().parents[1])
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "embadapt.cli", "evaluate",
             "--queries", "q.sadp", "--corpus", "c.sadp", "--qrels", "rels.tsv",
             "--per-query", "pq.tsv", "--json"],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "pq.tsv").read_bytes() == b"q\xc3\xa9\t1.000000\n"

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
        save_checkpoint(init_adapter(dim, seed=0, encoder_tag="t", config=TrainConfig(hidden=2)),
                        str(model))
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


class TestFileOfNoRows:
    def test_every_reader_refuses_a_file_of_no_rows(self, tmp_path, capsys):
        # a well-formed file, CRC included, whose header counts 0 rows: the
        # reader refuses it, as no embedding table has fewer than one row
        empty = tmp_path / "empty.sadp"
        body = struct.pack("<HQIH", 2, 0, 3, 1) + b"t"
        empty.write_bytes(b"SADP" + body + struct.pack("<I", zlib.crc32(body)))
        q = tmp_path / "q.sadp"
        write_embeddings(EmbeddingTable(["q"], np.ones((1, 3), np.float32), "t"), q)
        rels = tmp_path / "rels.tsv"
        rels.write_text("q\tq\t1\n")
        for argv in (["search", "--corpus", str(empty), "--vector", "1,0,0"],
                     ["evaluate", "--queries", str(empty), "--corpus", str(q),
                      "--qrels", str(rels)],
                     ["evaluate", "--queries", str(q), "--corpus", str(empty),
                      "--qrels", str(rels)]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {empty}: an embedding table needs at least one row\n"


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

    @pytest.mark.parametrize("with_model", [False, True])
    def test_decodes_only_the_surviving_names(self, tmp_path, capsys, monkeypatch, with_model):
        # the corpus's ids stay bytes: the ranking decodes the names of the
        # columns that survive the screen, and nothing else
        from embadapt import data, evaluation

        q, c, _ = planted_task(n_queries=4, n_corpus=3000, dim=16, seed=2)
        cp, ckpt = str(tmp_path / "c.sadp"), str(tmp_path / "m.sadc")
        write_embeddings(c, cp)
        save_checkpoint(seeded_output_layers(init_adapter(16, seed=1, encoder_tag=c.encoder_tag),
                                             seed=2), ckpt)
        decoded, survivors = set(), set()
        getitem, screen = data.IdBlock.__getitem__, evaluation._screen

        def counted_getitem(block, i):
            decoded.update(range(len(block))[i] if isinstance(i, slice) else [i])
            return getitem(block, i)

        def bulk(block):
            raise AssertionError("every id decoded")

        def recorded(*args):
            r, j = screen(*args)
            survivors.update(j.tolist())
            return r, j

        monkeypatch.setattr(data.IdBlock, "__getitem__", counted_getitem)
        monkeypatch.setattr(data.IdBlock, "__iter__", bulk)
        monkeypatch.setattr(evaluation, "_screen", recorded)
        vector = ",".join(map(repr, q.vectors[0].tolist()))
        argv = ["search", "--corpus", cp, "--vector", vector, "--k", "5"]
        assert main(argv + (["--model", ckpt] if with_model else [])) == 0
        printed = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()]
        assert len(printed) == 5
        assert decoded <= survivors and len(survivors) < 100
        assert {c.ids[i] for i in decoded} >= set(printed)

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
        model = seeded_output_layers(
            init_adapter(q.dim, seed=1, encoder_tag=q.encoder_tag,
                         config=TrainConfig(separate_adapters=separate)), seed=2)
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

    @pytest.mark.parametrize("flags, message", [
        ([], "search requires exactly one of --vector or --text"),
        (["--vector", "1,0", "--text", "hi"], "search requires exactly one of --vector or --text"),
        (["--text", "hi"], "--text requires --endpoint-config"),
        (["--vector", "1,abc"], "--vector must be numbers that float32 holds as finite values"),
    ], ids=["no-source", "two-sources", "text-without-endpoint", "bad-vector"])
    def test_flag_rules_checked_before_any_read(self, capsys, monkeypatch, flags, message):
        calls = []
        for name in ("read_embeddings", "load_checkpoint", "fetch_embeddings"):
            monkeypatch.setattr(f"embadapt.cli.{name}",
                                lambda *args, name=name: calls.append(name))
        assert main(["search", "--corpus", "c.sadp", "--model", "m.sadc", *flags]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert calls == []

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

        def fake_fetch(items, cfg):
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


    @pytest.mark.parametrize("fault, fetches", [
        ("flipped vector byte", 0), ("corrupt checkpoint", 0), ("overflow", 1)])
    def test_text_query_fetched_where_the_serial_path_fetches(self, tmp_path, capsys,
                                                              monkeypatch, fault, fetches):
        # the paid request comes after the corpus and the checkpoint are read,
        # and before the ranking adapts the query and then the corpus
        cp, ckpt = tmp_path / "c.sadp", tmp_path / "m.sadc"
        write_embeddings(EmbeddingTable(["a", "b", "c"], np.eye(3, 4, dtype=np.float32), "t"), cp)
        model = init_adapter(4, seed=0, encoder_tag="t")
        if fault == "overflow":  # finite parameters, an output beyond float32
            model.f_params.b1[...] = 100.0
            model.f_params.w2[...] = 1e38
        save_checkpoint(model, str(ckpt))
        damaged, at = {"flipped vector byte": (cp, -5), "corrupt checkpoint": (ckpt, -1)}.get(
            fault, (None, None))
        if damaged is not None:  # the last vector byte, or the stored CRC32
            data = bytearray(damaged.read_bytes())
            data[at] ^= 1
            damaged.write_bytes(data)
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps({"base_url": ENDPOINT_URL, "encoder_tag": "t"}))
        calls = []

        def fake_fetch(items, cfg):
            calls.append(items)
            return EmbeddingTable(["q"], np.eye(1, 4, dtype=np.float32), cfg.encoder_tag)

        monkeypatch.setattr("embadapt.cli.fetch_embeddings", fake_fetch)
        assert main(["search", "--corpus", str(cp), "--model", str(ckpt), "--text", "hello",
                     "--endpoint-config", str(endpoint)]) == 1
        assert len(calls) == fetches
        assert capsys.readouterr() == ("", "error: " + (
            f"{damaged}: checksum mismatch, file corrupted" if damaged is not None
            else "the adapted query embeddings are not all finite in float32") + "\n")


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

        def fake_fetch(items, cfg):
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
        ({"base_url": ENDPOINT_URL, "bogus": 1}, "{file}: unknown keys: ['bogus']"),
        ([ENDPOINT_URL], "{file}: not a JSON object, got list"),
        ({"base_url": ENDPOINT_URL, "max_batch": "10"}, "max_batch must be int, got '10'"),
        ({"base_url": ENDPOINT_URL, "timeout_seconds": float("nan")},
         "timeout_seconds must be finite float, got nan"),
        ({"encoder_tag": "enc"}, "{file}: missing keys: ['base_url']"),
        ({"base_url": ENDPOINT_URL, "timeout_seconds": 0}, "timeout_seconds must be > 0"),
        ({"base_url": ENDPOINT_URL, "timeout_seconds": -1.0}, "timeout_seconds must be > 0"),
        ({"base_url": ENDPOINT_URL, "backoff_base_seconds": -0.5},
         "backoff_base_seconds must be >= 0"),
        ({"base_url": "ftp://x/y"},
         "base_url must be an http or https URL with a host, got 'ftp://x/y'"),
        ({"base_url": "http://h:abc/"},
         "base_url port must be a number in [0, 65535], got 'http://h:abc/'"),
        ({"base_url": "http://h:99999/"},
         "base_url port must be a number in [0, 65535], got 'http://h:99999/'"),
        ({"base_url": "http://h/a b"},
         "base_url must be printable ASCII with no spaces, got 'http://h/a b'"),
        ({"base_url": "http://h/\x7f"},
         "base_url must be printable ASCII with no spaces, got 'http://h/\\x7f'"),
    ], ids=["unknown-key", "json-list", "wrong-type", "nan-timeout", "no-base-url",
            "zero-timeout", "negative-timeout", "negative-backoff", "ftp-base-url",
            "port-not-a-number", "port-out-of-range", "space-in-base-url",
            "control-character-in-base-url"])
    def test_bad_endpoint_config_exits_one(self, tmp_path, capsys, monkeypatch, config,
                                           message):
        items_path = tmp_path / "items.jsonl"
        items_path.write_text('{"_id": "a", "text": "first"}\n')
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps(config))

        def no_fetch(items, cfg):
            raise AssertionError("a refused config must not reach the encoder")

        monkeypatch.setattr("embadapt.cli.fetch_embeddings", no_fetch)
        out = tmp_path / "emb.sadp"
        rc = main(["embed", "--items", str(items_path),
                   "--endpoint-config", str(endpoint), "--out", str(out)])
        assert rc == 1
        file = f"--endpoint-config {endpoint}"  # a fault of the file names the flag and the file
        assert capsys.readouterr() == ("", f"error: {message.format(file=file)}\n")
        assert not out.exists()


    def test_id_that_utf8_cannot_encode_refused_before_any_request(self, tmp_path, capsys,
                                                                     monkeypatch):
        items_path = tmp_path / "items.jsonl"
        items_path.write_text('{"_id": "a", "text": "first"}\n{"_id": "\\udfff", "text": "x"}\n')
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps({"base_url": ENDPOINT_URL}))

        def no_fetch(items, cfg):
            raise AssertionError("refused items must not reach the encoder")

        monkeypatch.setattr("embadapt.cli.fetch_embeddings", no_fetch)
        out = tmp_path / "emb.sadp"
        rc = main(["embed", "--items", str(items_path),
                   "--endpoint-config", str(endpoint), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {items_path}:2: '_id' '\\udfff' cannot be encoded as UTF-8\n")
        assert not out.exists()


class TestSettingsFiles:
    """--config and --endpoint-config files are read by one reader: a fault of
    the file names the flag and the file, before any input is read or any
    request is sent."""

    @pytest.mark.parametrize("flag", ["--config", "--endpoint-config"])
    @pytest.mark.parametrize("content, reason", [
        (b"alpha = 0.5\n", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b"[1, 2]", "not a JSON object, got list"),
        (b'{"bogus": 1}', "unknown keys: ['bogus']"),
        (b'{"seed": 1, "seed": 0}', "repeated keys: ['seed']"),
        (None, "No such file or directory"),
        ("directory", "Is a directory"),
    ], ids=["not-json", "not-utf8", "json-list", "unknown-key", "repeated-key", "missing",
            "directory"])
    def test_file_fault_names_the_flag_and_the_file(self, tmp_path, capsys, monkeypatch,
                                                    flag, content, reason):
        path = tmp_path / "settings.json"
        if content == "directory":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        qp, cp, rp = write_task(tmp_path)
        items = tmp_path / "items.jsonl"
        items.write_text('{"_id": "a", "text": "first"}\n')
        calls = []
        for name in ("read_embeddings", "fetch_embeddings"):
            monkeypatch.setattr(f"embadapt.cli.{name}",
                                lambda *args, name=name: calls.append(name))
        out = tmp_path / "out"
        argv = {
            "--config": ["train", "--queries", qp, "--corpus", cp, "--qrels", rp,
                         "--out", str(out), "--config", str(path)],
            "--endpoint-config": ["embed", "--items", str(items), "--endpoint-config", str(path),
                                  "--out", str(out)],
        }[flag]
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {flag} {path}: {reason}\n")
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize("flags, patience", [
        (["--patience", "30"], 30),  # the file's eval_every 20 is within the flag's patience
        (["--eval-every", "5"], 5),  # the flag's eval_every is within the file's patience 5
    ])
    def test_file_and_flag_values_are_checked_together(self, tmp_path, flags, patience):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"eval_every": 20, "patience": 5}')
        args = _build_parser().parse_args([
            "train", "--queries", "q", "--corpus", "c", "--qrels", "r", "--out", "o",
            "--config", str(cfg_file), *flags])
        assert _effective_config(args).patience == patience

    @pytest.mark.parametrize("cls, content", [
        (TrainConfig, '{"seed": 4}'),
        (EncoderEndpointConfig, '{"base_url": "https://encoder.example/embed", "max_batch": 4}'),
    ], ids=["config", "endpoint-config"])
    def test_leading_bom_is_ignored(self, tmp_path, cls, content):
        path = tmp_path / "settings.json"
        path.write_bytes(b"\xef\xbb\xbf" + content.encode())
        assert _read_settings(cls, "--flag", str(path)) == cls(**json.loads(content))

    def test_refused_value_is_named_by_its_field(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"patience": 5}')
        args = ["train", "--queries", "q", "--corpus", "c", "--qrels", "r",
                "--out", str(tmp_path / "m.sadc"), "--config", str(cfg_file)]
        assert main([*args, "--eval-every", "10"]) == 1
        assert capsys.readouterr() == ("", "error: eval_every must be in [1, patience]\n")


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
        calls = []
        for name in ("read_embeddings", "fetch_embeddings"):
            monkeypatch.setattr(f"embadapt.cli.{name}",
                                lambda *args, name=name: calls.append(name))
        argv = {
            "transform": ["transform", "--in", qp, "--model", ckpt, "--out", str(target)],
            "evaluate": ["evaluate", "--queries", qp, "--corpus", cp, "--qrels", rp,
                         "--per-query", str(target)],
            "embed": ["embed", "--items", str(items), "--endpoint-config", str(endpoint),
                      "--out", str(target)],
        }[command]
        flag = "--per-query" if command == "evaluate" else "--out"
        before = sorted(p.name for p in tmp_path.iterdir())
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {flag} {target} is a directory\n")
        assert calls == []  # the output is refused before any input is read or fetched
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert list(target.iterdir()) == []


class TestOutputIsAnInput:
    @pytest.mark.parametrize("argv", [
        ["train", "--queries", "q.sadp", "--corpus", "c.sadp", "--qrels", "rels.tsv"],
        ["transform", "--in", "q.sadp", "--model", "m.sadc"],
        ["embed", "--items", "items.jsonl", "--endpoint-config", "endpoint.json"],
    ], ids=["train", "transform", "embed"])
    def test_empty_path_refused_before_any_input_is_read(self, tmp_path, capsys, monkeypatch,
                                                         argv):
        calls = []
        for name in ("read_embeddings", "load_checkpoint", "load_qrels_tsv", "load_jsonl_items",
                     "fetch_embeddings", "_read_settings"):
            monkeypatch.setattr(f"embadapt.cli.{name}",
                                lambda *args, name=name, **kwargs: calls.append(name))
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", ""]) == 1
        assert capsys.readouterr() == ("", "error: --out path is empty\n")
        assert calls == []

    @pytest.mark.parametrize("command, output, source", [
        ("embed", "--out", "--items"),
        ("embed", "--out", "--endpoint-config"),
        ("train", "--out", "--corpus"),
        ("train", "--out", "--config"),
        ("train", "--log", "--qrels"),
        ("transform", "--out", "--in"),
        ("transform", "--out", "--model"),
        ("evaluate", "--per-query", "--qrels"),
        ("evaluate", "--per-query", "--model"),
    ])
    def test_refused_before_any_input_is_read(self, tmp_path, capsys, monkeypatch, command,
                                             output, source):
        qp, cp, rp = write_task(tmp_path)
        ckpt = str(tmp_path / "m.sadc")
        save_checkpoint(init_adapter(32, seed=1, encoder_tag="synthetic-v1"), ckpt)
        items = tmp_path / "items.jsonl"
        items.write_text('{"_id": "a", "text": "first"}\n')
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps({"base_url": ENDPOINT_URL}))
        config = tmp_path / "cfg.json"
        config.write_text("{}")
        flags = {
            "embed": {"--items": items, "--endpoint-config": endpoint, "--out": "e.sadp"},
            "train": {"--queries": qp, "--corpus": cp, "--qrels": rp, "--config": config,
                      "--out": "out.sadc", "--log": "out.log"},
            "transform": {"--in": qp, "--model": ckpt, "--out": "t.sadp"},
            "evaluate": {"--queries": qp, "--corpus": cp, "--qrels": rp, "--model": ckpt,
                         "--per-query": "pq.tsv"},
        }[command]
        path = f"{tmp_path}/./{Path(flags[source]).name}"  # another spelling of the input
        flags[output] = path
        calls = []
        for name in ("read_embeddings", "load_checkpoint", "load_qrels_tsv", "load_jsonl_items",
                     "fetch_embeddings", "_read_settings"):
            monkeypatch.setattr(f"embadapt.cli.{name}",
                                lambda *args, name=name, **kwargs: calls.append(name))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        argv = [command]
        for flag, value in flags.items():
            argv += [flag, str(value)]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {output} {path} is the {source} path\n")
        assert calls == []
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestCheckedBeforeAnyRead:
    """main checks every path flag and flag rule before a command reads a file."""

    @pytest.mark.parametrize("argv, message", [
        (["evaluate", "--model", ""], "--model path is empty"),
        (["evaluate", "--queries", ""], "--queries path is empty"),
        (["evaluate", "--per-query", ""], "--per-query path is empty"),
        (["evaluate", "--k", "0"], "k must be >= 1, got 0"),
        (["search", "--model", ""], "--model path is empty"),
        (["search", "--k", "0"], "k must be >= 1, got 0"),
        (["search", "--text", "q", "--endpoint-config", ""], "--endpoint-config path is empty"),
        (["train", "--config", ""], "--config path is empty"),
        (["train", "--log", ""], "--log path is empty"),
        (["train", "--val-ratio", "1.5"], "ratio must be in (0, 1), got 1.5"),
    ], ids=["evaluate-model", "evaluate-queries", "evaluate-per-query", "evaluate-k",
            "search-model", "search-k", "search-endpoint-config", "train-config", "train-log",
            "train-val-ratio"])
    def test_refused_with_no_file_read_or_written(self, tmp_path, capsys, monkeypatch, argv,
                                                 message):
        qp, cp, rp = write_task(tmp_path)
        ckpt = str(tmp_path / "m.sadc")
        save_checkpoint(init_adapter(32, seed=1, encoder_tag="synthetic-v1"), ckpt)
        flags = {
            "evaluate": {"--queries": qp, "--corpus": cp, "--qrels": rp, "--model": ckpt},
            "search": {"--corpus": cp, "--model": ckpt, "--vector": ",".join(["1"] * 32)},
            "train": {"--queries": qp, "--corpus": cp, "--qrels": rp, "--out": "m-out.sadc"},
        }[argv[0]]
        if "--text" in argv:
            del flags["--vector"]
        flags.update(zip(argv[1::2], argv[2::2]))  # the refused value replaces a valid one
        calls = []
        for name in ("read_embeddings", "load_checkpoint", "load_qrels_tsv", "load_jsonl_items",
                     "fetch_embeddings", "_read_settings"):
            monkeypatch.setattr(f"embadapt.cli.{name}",
                                lambda *args, name=name, **kwargs: calls.append(name))
        monkeypatch.chdir(tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert main([argv[0], *(x for flag, value in flags.items() for x in (flag, value))]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert calls == []
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# Values that a flag may be given by mistake, each tried alone on an
# otherwise valid call.
HOSTILE = ["nan", "inf", "1e308", "-1e308", "-1", "0", str(2**64), "", "abc", "1,,2", "1.5"]
PATH_VALUES = ["missing.sadp", "a-dir", "wrong-format"]
# command -> each flag of its parser that takes a free value -> its type: a
# path role (_In, _Out), int, float, or None for text; flags of fixed choices
# are left out
VALUE_FLAGS = {
    command: {a.option_strings[0]: a.type for a in sub._actions
              if type(a) is argparse._StoreAction and a.choices is None}
    for action in _build_parser()._actions if isinstance(action, argparse._SubParsersAction)
    for command, sub in action.choices.items()
}
# a valid call of each command, and of each query source of search, by
# <command>[/<variant>]
VALID_CALLS = {
    "embed": {"--items": "items.jsonl", "--endpoint-config": "endpoint.json",
              "--out": "e-out.sadp"},
    "train": {"--queries": "q.sadp", "--corpus": "c.sadp", "--qrels": "rels.tsv",
              "--out": "m-out.sadc", "--max-iters": "3", "--eval-every": "1", "--patience": "3"},
    "evaluate": {"--queries": "q.sadp", "--corpus": "c.sadp", "--qrels": "rels.tsv", "--k": "10"},
    "search/vector": {"--corpus": "c.sadp", "--vector": "1,0,0,0,0,0,0,0", "--k": "10"},
    "search/text": {"--corpus": "c.sadp", "--text": "a query",
                    "--endpoint-config": "endpoint.json", "--k": "10"},
    "transform": {"--in": "q.sadp", "--model": "m.sadc", "--out": "t.sadp"},
}


def command_of(call: str) -> str:
    return call.partition("/")[0]


def is_path(call: str, flag: str) -> bool:
    return VALUE_FLAGS[command_of(call)][flag] in (_In, _Out)


@st.composite
def hostile_call(draw):
    """A valid call, one flag of its command and a hostile value for it."""
    call = draw(st.sampled_from(sorted(VALID_CALLS)))
    flag = draw(st.sampled_from(sorted(VALUE_FLAGS[command_of(call)])))
    values = HOSTILE + PATH_VALUES if is_path(call, flag) else HOSTILE
    # init_mlp allocates dim x hidden floats, so a width above 64, which
    # would ask for 8 x 2**64 of them, is left out
    if flag == "--hidden":
        values = [v for v in values if v != str(2**64)]
    value = draw(st.sampled_from(values))
    if value == "wrong-format":  # a file of another kind
        value = "c.sadp" if flag in ("--qrels", "--config") else "rels.tsv"
    return call, flag, value


def fake_fetch(items, cfg):
    """An encoder that embeds every text as the same 8-dim vector."""
    return EmbeddingTable([it.id for it in items], np.ones((len(items), 8), np.float32),
                          cfg.encoder_tag)


class TestHostileFlagValues:
    """Every command exits 0, exits 2 on an argparse syntax error, or exits 1
    with one error line and no output; a failed run leaves no file behind,
    and an empty path always exits 1."""

    @staticmethod
    def write_inputs(where: Path) -> None:
        q, c, rels = planted_task(20, 60, 8)
        write_embeddings(q, where / "q.sadp")
        write_embeddings(c, where / "c.sadp")
        (where / "rels.tsv").write_text(
            "".join(f"{qid}\t{cid}\t{score:g}\n" for qid, cid, score in rels.triplets),
            encoding="utf-8")
        model = init_adapter(8, seed=1, encoder_tag="synthetic-v1")
        save_checkpoint(seeded_output_layers(model, seed=2), str(where / "m.sadc"))
        (where / "a-dir").mkdir()
        (where / "items.jsonl").write_text('{"_id": "a", "text": "first"}\n', encoding="utf-8")
        (where / "endpoint.json").write_text(
            json.dumps({"base_url": ENDPOINT_URL, "encoder_tag": "synthetic-v1"}),
            encoding="utf-8")

    def check(self, call: str, flag: str, value: str) -> None:
        """Run the valid call with flag set to value, and check the outcome."""
        flags = {**VALID_CALLS[call], flag: value}
        argv = [command_of(call), *(x for name, given in flags.items() for x in (name, given))]
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            # the command runs one level down, so a file written beside its
            # working directory is seen too
            where = Path(tmp) / "run"
            where.mkdir()
            self.write_inputs(where)
            before = sorted(map(str, Path(tmp).rglob("*")))
            out, err = io.StringIO(), io.StringIO()
            os.chdir(where)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                        mock.patch("embadapt.cli.fetch_embeddings", fake_fetch):
                    try:
                        rc = main(argv)
                    except SystemExit as exc:  # argparse refuses the syntax
                        rc = exc.code
            finally:
                os.chdir(cwd)
            after = sorted(map(str, Path(tmp).rglob("*")))
        assert rc in (0, 1, 2), (argv, err.getvalue())
        if value == "" and is_path(call, flag):
            assert rc == 1, argv
        if rc == 1:
            assert re.fullmatch(r"error: [^\n]*\n", err.getvalue()), (argv, err.getvalue())
            assert out.getvalue() == ""
        if rc != 0:
            assert after == before, argv

    @settings(deadline=None, max_examples=150, database=None)
    @given(hostile_call())
    def test_exit_status_and_output(self, call):
        self.check(*call)

    @pytest.mark.parametrize("call, flag", [(call, flag) for call in sorted(VALID_CALLS)
                                            for flag in VALUE_FLAGS[command_of(call)]
                                            if is_path(call, flag)])
    def test_empty_path_exits_one(self, call, flag):
        self.check(call, flag, "")


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
