"""Every name the benchmark traces is still in the package.

perfbench's tracer wraps the functions listed in `SPANNED` and `COUNTED`
(`perfbench/tracer.py`), and each workload in `perfbench/workloads.py`
names in `reached` the spans a traced pass must reach.  A function that is
renamed or removed in `ncflow` would otherwise fail only in a traced
benchmark run.  The two files are read with `ast`, not imported, except by
the last test, which runs one pass of each workload under the tracer.
"""

import ast
import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

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


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's `tracer` and `workloads` modules, imported from its
    directory as `perfbench/run.py` imports them, and the loaded ncflow
    modules in the namespace its workloads read."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        tracer = importlib.import_module("tracer")
        workloads = importlib.import_module("workloads")
    modules = ("graph", "matchings", "flows", "kernels", "coloring", "generators")
    nc = SimpleNamespace(**{m: importlib.import_module(f"ncflow.{m}") for m in modules})
    yield tracer, workloads, nc
    for name in ("tracer", "workloads", "checks"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", [name for name in assigned(PERFBENCH / "workloads.py", "name") if name])
def test_a_traced_pass_reaches_every_listed_span(perfbench, name):
    # `run.py --trace 1` raises TraceError when a span in `reached` is never
    # called, as when a function stops calling another through its module
    # binding: is_normal must call is_proper, and the flows and coloring
    # entry points complement_two_factor and contract_two_factor
    tracer_mod, workloads, nc = perfbench
    w = workloads.WORKLOADS[name]
    inputs = w.build(nc, 1)
    tracer = tracer_mod.Tracer({m: getattr(nc, m) for m in tracer_mod.LAYERS})
    tracer.install()
    try:
        w.start_pass(nc, inputs)
        for inp in inputs:
            tracer.root()
            w.item(nc, inp)
    finally:
        tracer.remove()
    missing = [span for span in w.reached if not tracer.calls[span]]
    assert not missing, f"{name}: never reached {missing}"
