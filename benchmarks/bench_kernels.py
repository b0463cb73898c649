"""Compare the compiled and pure-Python search kernels.

Run:  python3 benchmarks/bench_kernels.py
"""

from __future__ import annotations

import time

from ncflow import complement_two_factor, enumerate_perfect_matchings
from ncflow import _kernels_py
from ncflow.flows import _conflict_pairs
from ncflow.generators import counterexample_family, fig3_graph, k23_with_p10v, petersen
from ncflow.graph import contract_two_factor

try:
    from ncflow import _kernels

    BACKENDS = [("c", _kernels), ("python", _kernels_py)]
except ImportError:
    BACKENDS = [("python", _kernels_py)]


def time_it(fn, repeat=3):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def flow_cases():
    out = []
    for name, g in [("petersen", petersen()), ("family-l1", counterexample_family(1))]:
        for i, f in enumerate(enumerate_perfect_matchings(g)):
            tf = complement_two_factor(g, f)
            h = contract_two_factor(g, tf)
            q = h.quotient
            eu = [e[0] for e in q.edges]
            ev = [e[1] for e in q.edges]
            pairs = _conflict_pairs(g, tf, h)
            out.append((f"{name}/m{i}", q.n, eu, ev, pairs))
            if i >= 2:
                break
    return out


def main():
    print(f"{'case':<28}{'backend':<10}{'seconds':>12}{'result':>16}")
    for label, nq, eu, ev, pairs in flow_cases():
        ref = None
        for bname, impl in BACKENDS:
            secs, res = time_it(
                lambda: impl.flow_search(nq, eu, ev, pairs, "min")
            )
            vals, conf, nodes, seen = res
            tag = f"conf={conf} n={nodes}"
            print(f"{label:<28}{bname:<10}{secs:>12.6f}{tag:>16}")
            if ref is None:
                ref = res
            else:
                assert res == ref, f"backend disagreement on {label}"
    for label, g, k in [("fig3/k6", fig3_graph(), 6), ("k23p10v/k4", k23_with_p10v(), 4)]:
        eu = [e[0] for e in g.edges]
        ev = [e[1] for e in g.edges]
        ref = None
        for bname, impl in BACKENDS:
            secs, res = time_it(lambda: impl.normal_coloring_search(g.n, eu, ev, k))
            colors, nodes = res
            tag = f"{'hit' if colors else 'miss'} n={nodes}"
            print(f"{label:<28}{bname:<10}{secs:>12.6f}{tag:>16}")
            if ref is None:
                ref = res
            else:
                assert res == ref, f"backend disagreement on {label}"


if __name__ == "__main__":
    main()
