"""Every name the benchmark traces is still in the package.

perfbench's tracer wraps the functions listed in `SPANNED` and `COUNTED`
(`perfbench/tracer.py`), and each workload in `perfbench/workloads.py`
names in `reached` the spans a traced pass must reach.  A function that is
renamed or removed in `ncflow` would otherwise fail only in a traced
benchmark run.  The two files are read with `ast`, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def assigned(path: Path, name: str) -> list:
    """The literal value of every assignment to `name` in the file, at
    module level or in a class body."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            out.append(ast.literal_eval(node.value))
    return out


def traced_names() -> list:
    """"layer.function" for every traced pair and every reached span."""
    names = set()
    for table in ("SPANNED", "COUNTED"):
        [pairs] = assigned(PERFBENCH / "tracer.py", table)
        names |= {f"{layer}.{fname}" for layer, fname in pairs}
    for reached in assigned(PERFBENCH / "workloads.py", "reached"):
        names |= set(reached)
    return sorted(names)


def test_every_table_is_read():
    assert len(assigned(PERFBENCH / "workloads.py", "reached")) >= 5  # the base class and four workloads
    assert {"kernels.flow_search", "coloring.is_proper"} <= set(traced_names())


@pytest.mark.parametrize("name", traced_names())
def test_the_traced_name_is_a_function_of_its_module(name):
    layer, fname = name.split(".")
    module = importlib.import_module(f"ncflow.{layer}")
    assert callable(getattr(module, fname, None)), f"ncflow.{name} is gone"
