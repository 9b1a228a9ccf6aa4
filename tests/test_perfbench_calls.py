"""The benchmark scripts in perfbench/ call package functions and classes, so
a changed signature would otherwise fail only the benchmark run. The scripts
are parsed, not imported: run.py sets the BLAS environment when imported.

Each call to a name imported from embadapt is bound, by its positional count
and keyword names, to the signature of what the name resolves to."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def own_nodes(scope: ast.AST):
    """The nodes of scope, not descending into the scopes nested in it."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, SCOPES):
            yield from own_nodes(child)


def dotted(func: ast.expr) -> list[str] | None:
    """['io', 'write_embeddings'] for io.write_embeddings; None for a call of
    anything but a name or an attribute chain on one."""
    parts = []
    while isinstance(func, ast.Attribute):
        parts.insert(0, func.attr)
        func = func.value
    return [func.id, *parts] if isinstance(func, ast.Name) else None


def package_calls(scope: ast.AST, bound: dict[str, str]):
    """(dotted package name, call) for each call, in scope and the scopes
    nested in it, of a name that an import from embadapt bound there."""
    bound = dict(bound)
    nodes = list(own_nodes(scope))
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                module = getattr(node, "module", None) or ""
                if isinstance(node, ast.ImportFrom) and module.split(".")[0] == "embadapt":
                    bound[name] = f"{module}.{alias.name}"
                else:  # another import of the name hides the package's
                    bound.pop(name, None)
    for node in nodes:
        if isinstance(node, SCOPES):
            yield from package_calls(node, bound)
        elif isinstance(node, ast.Call):
            parts = dotted(node.func)
            if parts and parts[0] in bound:
                yield ".".join([bound[parts[0]], *parts[1:]]), node


def resolve(name: str):
    """The object at a dotted name: its longest importable module prefix,
    then attributes."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(name)


def benchmark_calls() -> list:
    calls = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for name, call in package_calls(tree, {}):
            calls.append(pytest.param(name, call, id=f"{path.name}:{call.lineno}:{name}"))
    return calls


CALLS = benchmark_calls()


def test_the_known_calls_are_found():
    names = {param.values[0] for param in CALLS}
    assert {"embadapt.init_adapter", "embadapt.io.write_embeddings",
            "embadapt.data.EmbeddingTable", "embadapt.adapter.save_checkpoint",
            "embadapt.load_checkpoint", "embadapt.read_embeddings",
            "embadapt.cli.main"} <= names


@pytest.mark.parametrize("name, call", CALLS)
def test_call_binds_to_the_signature(name, call):
    assert not any(isinstance(arg, ast.Starred) for arg in call.args)
    assert all(kw.arg is not None for kw in call.keywords)
    signature = inspect.signature(resolve(name))
    signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
