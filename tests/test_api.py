"""The public surface: the top-level names and the README's library example."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import embadapt
from embadapt import write_embeddings
from embadapt.data import check_ratio
from embadapt.errors import EmbAdaptError
from embadapt.evaluation import check_k

from synth import planted_task

README = Path(__file__).resolve().parent.parent / "README.md"

TOP_LEVEL = [
    "EmbeddingTable",
    "RelevanceSet",
    "TrainConfig",
    "evaluate",
    "init_adapter",
    "load_checkpoint",
    "load_qrels_tsv",
    "read_embeddings",
    "save_checkpoint",
    "split_train_val",
    "train",
    "transform",
    "write_embeddings",
]


def test_top_level_names():
    assert sorted(embadapt.__all__) == sorted(TOP_LEVEL)
    for name in TOP_LEVEL:
        assert callable(getattr(embadapt, name))


def test_import_loads_no_http_module():
    # only embed and search --text send a request: the encoder client imports
    # the HTTP modules when it posts, so no other command pays for them
    src = str(Path(embadapt.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, embadapt.cli; print([m for m in "
            "('requests', 'urllib.request', 'http.client', 'ssl') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("rule, value, message", [
    (check_k, 0, "k must be >= 1, got 0"),
    (check_ratio, 1.5, "ratio must be in (0, 1), got 1.5"),
], ids=["k", "ratio"])
def test_flag_rules_raise_a_package_error(rule, value, message):
    # the rules behind --k and --val-ratio: a library caller that catches
    # EmbAdaptError catches a bad value of either
    with pytest.raises(EmbAdaptError) as raised:
        rule(value)
    assert str(raised.value) == message


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    [code] = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.DOTALL)
    return code


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    q, c, rels = planted_task(n_queries=30, n_corpus=90, dim=8, seed=0)
    write_embeddings(q, tmp_path / "queries.sadp")
    write_embeddings(c, tmp_path / "corpus.sadp")
    rows = [f"{qid}\t{cid}\t{y:g}\n" for qid, cid, y in rels.triplets]
    (tmp_path / "train.tsv").write_text("".join(rows[:20]))
    (tmp_path / "test.tsv").write_text("".join(rows[20:]))
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {})
    summary, mean = capsys.readouterr().out.splitlines()
    assert summary.startswith("evaluations=")
    assert 0.0 < float(mean) <= 1.0
