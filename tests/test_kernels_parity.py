"""The compiled and pure-Python kernels must agree result-for-result,
including node counts, so certificates are backend-independent.

`compiled` (tests/conftest.py) builds the committed `_kernels.c` into a
temporary directory; these tests skip only when no C compiler or no
`Python.h` is present.
"""

import os
import random
import subprocess
import sys

import pytest

from ncflow import _kernels_py
from ncflow.generators import (
    counterexample_family,
    fig3_graph,
    k4,
    k23_with_p10v,
    k33,
    petersen,
    replace_vertex_with_triangle,
)
from ncflow.graph import contract_two_factor
from ncflow.matchings import complement_two_factor, enumerate_perfect_matchings

from conftest import kernel_instance


def flow_instances():
    """(nq, eu, ev, conflict_pairs) drawn from real contractions plus fuzz.

    The second fuzz keeps self-pairs (a, a) and duplicate pairs, and both
    draw loops; the `counterexample_family(1)` quotients are the ones
    `find_nonconflicting_flow` searches.
    """
    out = []
    for g in (petersen(), k33(), k4()):
        for f in enumerate_perfect_matchings(g):
            tf = complement_two_factor(g, f)
            h = contract_two_factor(g, tf)
            q = h.quotient
            pairs = set()
            for u, v in g.edges:
                eu_ = [e for e in g.incident(u) if e in f.as_set()]
                ev_ = [e for e in g.incident(v) if e in f.as_set()]
                if eu_ and ev_ and eu_[0] != ev_[0]:
                    pairs.add(
                        tuple(sorted((h.origin_inverse[eu_[0]], h.origin_inverse[ev_[0]])))
                    )
            out.append(
                (
                    q.n,
                    [e[0] for e in q.edges],
                    [e[1] for e in q.edges],
                    sorted(pairs),
                )
            )
    rng = random.Random(99)
    for _ in range(25):
        nq = rng.randint(1, 4)
        m = rng.randint(1, 8)
        eu = [rng.randrange(nq) for _ in range(m)]
        ev = [rng.randrange(nq) for _ in range(m)]
        k = rng.randint(0, m)
        pairs = set()
        for _p in range(k):
            a, b = rng.randrange(m), rng.randrange(m)
            if a != b:
                pairs.add((min(a, b), max(a, b)))
        out.append((nq, eu, ev, sorted(pairs)))
    for _ in range(60):
        nq = rng.randint(1, 4)
        m = rng.randint(1, 9)
        eu = [rng.randrange(nq) for _ in range(m)]
        ev = [rng.randrange(nq) for _ in range(m)]
        pairs = [(rng.randrange(m), rng.randrange(m)) for _ in range(rng.randint(0, 2 * m))]
        pairs += pairs[: rng.randint(0, len(pairs))]
        out.append((nq, eu, ev, pairs))
    g = counterexample_family(1)
    out += [kernel_instance(g, f) for f in enumerate_perfect_matchings(g)]
    return out


class TestFlowParity:
    @pytest.mark.parametrize("mode", ["first", "min", "count"])
    def test_exact_agreement(self, mode, compiled):
        for nq, eu, ev, pairs in flow_instances():
            if mode == "count" and len(eu) > 12:
                continue  # a 17-edge family quotient has 648,000 flows: ~1 s each in Python
            a = _kernels_py.flow_search(nq, eu, ev, pairs, mode)
            b = compiled.flow_search(nq, eu, ev, pairs, mode)
            assert a == b, (nq, eu, ev, pairs, mode)

    def test_deadline_raises_in_both(self, compiled):
        g = petersen()
        f = next(enumerate_perfect_matchings(g))
        tf = complement_two_factor(g, f)
        h = contract_two_factor(g, tf)
        q = h.quotient
        eu = [e[0] for e in q.edges]
        ev = [e[1] for e in q.edges]
        for impl in (_kernels_py, compiled):
            with pytest.raises(_kernels_py.SearchTimeout):
                impl.flow_search(q.n, eu, ev, [], "min", deadline=0.0)


def petersen_with_triangles(vertices):
    g = petersen()
    for v in vertices:
        g = replace_vertex_with_triangle(g, v)
    return g


class TestColoringParity:
    def test_exact_agreement(self, compiled):
        graphs = [(g, k) for g in (k4(), k33(), petersen(), fig3_graph()) for k in (3, 4, 5)]
        graphs.append((k23_with_p10v(), 3))
        graphs += [(petersen_with_triangles(vs), 5) for vs in ((0,), (0, 1), (0, 1, 2))]
        graphs.append((counterexample_family(1), 5))
        graphs += [(fig3_graph(), 6), (fig3_graph(), 7)]
        cases = [(g.n, [e[0] for e in g.edges], [e[1] for e in g.edges], k) for g, k in graphs]
        for n, eu, ev, k in cases:
            a = _kernels_py.normal_coloring_search(n, eu, ev, k)
            b = compiled.normal_coloring_search(n, eu, ev, k)
            assert a == b, (n, k)

    def test_forbid_flag_parity(self, compiled):
        g = petersen()
        eu = [e[0] for e in g.edges]
        ev = [e[1] for e in g.edges]
        for k in (3, 4):
            a = _kernels_py.normal_coloring_search(g.n, eu, ev, k, forbid_abnormal=False)
            b = compiled.normal_coloring_search(g.n, eu, ev, k, forbid_abnormal=False)
            assert a == b


class TestBackendSelection:
    def test_default_is_compiled_here(self):
        pytest.importorskip("ncflow._kernels", reason="no compiled kernel in the package")
        from ncflow import kernels

        if os.environ.get("NZFLOW_PURE_PYTHON"):
            pytest.skip("suite forced to pure python")
        assert kernels.BACKEND == "c"

    def test_env_var_forces_fallback(self):
        code = "from ncflow import kernels; print(kernels.BACKEND)"
        env = dict(os.environ, NZFLOW_PURE_PYTHON="1")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.stdout.strip() == "python"
