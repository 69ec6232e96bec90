"""The benchmark's contract with the package, checked without importing the
benchmark: every name bench/ imports from spinframes resolves, and every
entry of the tracer's tables names a function or method of its layer.
Without this, a renamed or unexported name breaks only the traced
benchmark run."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import spinframes

BENCH = Path(__file__).resolve().parents[1] / "bench"
TABLES = ("SPANNED", "COUNTED", "HOT_COUNTED")


def resolves(name: str) -> bool:
    """True when `from spinframes import name` succeeds: a public name or a
    submodule."""
    return hasattr(spinframes, name) or (
        importlib.util.find_spec(f"spinframes.{name}") is not None
    )


def test_every_name_bench_imports_from_the_package_resolves():
    imported = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "spinframes":
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                imported += [
                    (path.name, alias.name.split(".", 1)[1])
                    for alias in node.names
                    if alias.name.startswith("spinframes.")
                ]
    # the workloads and the bench self-tests import from the package
    assert {"workloads.py", "test_bench.py"} <= {file for file, _ in imported}
    missing = [(file, name) for file, name in imported if not resolves(name)]
    assert not missing


def tracer_tables() -> dict[str, dict[str, tuple[str, ...]]]:
    tree = ast.parse((BENCH / "tracing.py").read_text())
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in TABLES:
                tables[target.id] = ast.literal_eval(node.value)
    assert set(tables) == set(TABLES)
    return tables


@pytest.mark.parametrize(
    "layer, attr",
    [
        (layer, attr)
        for table in tracer_tables().values()
        for layer, attrs in table.items()
        for attr in attrs
    ],
)
def test_every_traced_entry_resolves_on_its_layer(layer, attr):
    module = importlib.import_module(f"spinframes.{layer}")
    if "." in attr:
        cls_name, method = attr.split(".")
        # the tracer rebinds the method in the class's own namespace
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))
