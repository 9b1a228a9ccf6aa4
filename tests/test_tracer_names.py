"""perfbench/tracer.py wraps package functions that it looks up by name, so
a renamed or deleted one would otherwise fail only the benchmark run. The
tracer is parsed, not imported, so that nothing is written beside it."""

import ast
import functools
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_names() -> list[str]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    [layers] = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]]
    # install() also wraps these three outside LAYERS
    return [f"{layer}.{name}" for layer, names in layers.items() for name in names] + [
        "data.EmbeddingTable.__init__", "data.EmbeddingTable.rows_for", "trainer.evaluate"]


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_exists(name):
    module, _, attr = name.partition(".")
    home = importlib.import_module(f"embadapt.{module}")
    assert callable(functools.reduce(getattr, attr.split("."), home))
