"""Compare the C and pure-Python search kernels.

Run:  python3 benchmarks/bench_kernels.py [LIBRARY]

LIBRARY is a build of `src/ncflow/_kernels.c` (`cc -O2 -shared -fPIC
_kernels.c -o _kernels.so`); without it the script uses the library that
`ncflow.kernels` loads, if there is one, and times Python alone otherwise.

Cases (the kernel arguments `_kernel_args` builds, chords of F-bar
settled and left out):
- flow_search in "min" mode on three matchings each of Petersen (72
  nodes each; no chords) and counterexample_family(1) (5,842, 5,848 and
  7,789 nodes, against 5,860, 5,866 and 7,813 with the chords searched);
- flow_search in "first" mode on the quotients of 32 matchings of
  counterexample_family(2), one from each block of 160 in enumeration
  order: the exhaustive negatives whose speed decides whether a compiled
  flow kernel is worth keeping (ROADMAP item 7's gate).  Refuted in
  fail-first order they expand 6,721 nodes, against 74,671 with the
  vertices by id, and Python took 5.9-6.3x as long as C on them (5.3-5.9
  ms against 0.90-0.93 ms a pass, two runs on a shared 2-CPU x86-64
  host), against 22.1x with the vertices by id;
- normal_coloring_search at the palettes chi_n_exact searches: Petersen
  at k = 3 and k = 5, and k23_with_p10v, triangle_replace_all(petersen())
  and counterexample_family(2) at k = 5.

Each time is seconds per call, the best of three batches; a batch repeats
the call until it lasts 50 ms, so sub-millisecond calls are not read off a
single run.  Node counts are printed beside the times; both backends must
return the same result, node count included.  The "first" set is timed as
one pass over its 32 quotients, with its total node count, and with both
backends present the script prints the ratio of their times.  With the C
kernels, all 5,120 "first" searches of counterexample_family(2) are also
timed once each, summed (the exhaustive negative of the paper's family).
"""

from __future__ import annotations

import itertools
import os
import sys
import time

from ncflow import complement_two_factor, contract_two_factor, enumerate_perfect_matchings
from ncflow import _kernels_py, kernels
from ncflow.flows import _kernel_args
from ncflow.generators import counterexample_family, k23_with_p10v, petersen, triangle_replace_all

BATCH_SECONDS = 0.05
FAMILY2_BLOCK = 160


def time_it(fn, repeat=3):
    """(best seconds per call, last result)."""
    t0 = time.perf_counter()
    result = fn()
    once = time.perf_counter() - t0
    number = max(1, int(BATCH_SECONDS / once)) if once > 0 else 1000
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            result = fn()
        best = min(best, (time.perf_counter() - t0) / number)
    return best, result


def kernel_args(g, f):
    """The kernel's arguments for the matching f of g, chords settled."""
    return _kernel_args(contract_two_factor(g, complement_two_factor(g, f)))[1]


def min_cases():
    out = []
    for name, g in [("petersen", petersen()), ("family-l1", counterexample_family(1))]:
        for i, f in enumerate(itertools.islice(enumerate_perfect_matchings(g), 3)):
            out.append((f"{name}/m{i}", kernel_args(g, f)))
    return out


def family2_quotients(step=FAMILY2_BLOCK):
    g = counterexample_family(2)
    picks = itertools.islice(enumerate_perfect_matchings(g), 0, None, step)
    return [kernel_args(g, f) for f in picks]


def coloring_cases():
    petersen_graph = petersen()
    return [
        ("petersen/k3", petersen_graph, 3),
        ("petersen/k5", petersen_graph, 5),
        ("k23p10v/k5", k23_with_p10v(), 5),
        ("tri-petersen/k5", triangle_replace_all(petersen_graph), 5),
        ("family-l2/k5", counterexample_family(2), 5),
    ]


def backends():
    """[(name, kernels)]: C first when a library is given or built."""
    path = sys.argv[1] if len(sys.argv) > 1 else kernels.LIBRARY
    if os.path.exists(path):
        return [("c", kernels.bind(path)), ("python", _kernels_py)]
    return [("python", _kernels_py)]


BACKENDS = backends()


def compare(label, calls):
    """[(backend, seconds per call, result)] for the same calls on each
    backend; every backend must return the same."""
    rows = []
    for bname, impl in BACKENDS:
        secs, res = time_it(lambda: calls(impl))
        rows.append((bname, secs, res))
    if any(res != rows[0][2] for _b, _s, res in rows):
        raise SystemExit(f"backend disagreement on {label}")
    return rows


def show(label, bname, secs, nodes, tag):
    print(f"{label:<28}{bname:<10}{secs:>12.6f}{nodes:>12}{tag:>10}")


def main():
    print(f"{'case':<28}{'backend':<10}{'seconds':>12}{'nodes':>12}{'result':>10}")
    for label, args in min_cases():
        rows = compare(label, lambda impl: impl.flow_search(*args, "min"))
        for bname, secs, (_vals, conf, nodes) in rows:
            show(label, bname, secs, nodes, f"conf={conf}")
    quotients = family2_quotients()
    label = f"family-l2/first x{len(quotients)}"
    totals = [(bname, 0.0, 0) for bname, _impl in BACKENDS]
    for args in quotients:
        rows = compare(label, lambda impl: impl.flow_search(*args, "first"))
        for i, (bname, secs, (vals, conf, nodes)) in enumerate(rows):
            if vals is not None and conf == 0:
                raise SystemExit(f"{label}: {bname} found a flow on the negative family")
            totals[i] = (bname, totals[i][1] + secs, totals[i][2] + nodes)
    for bname, secs, nodes in totals:
        show(label, bname, secs, nodes, "none")
    if len(totals) == 2:
        print(f"{label:<28}{'python/c':<10}{totals[1][1] / totals[0][1]:>11.1f}x")
    if BACKENDS[0][0] == "c":
        every = family2_quotients(step=1)
        impl = BACKENDS[0][1]
        t0 = time.perf_counter()
        nodes = sum(impl.flow_search(*args, "first")[2] for args in every)
        show(f"family-l2/first all {len(every)}", "c", time.perf_counter() - t0, nodes, "none")
    for label, g, k in coloring_cases():
        eu = [e[0] for e in g.edges]
        ev = [e[1] for e in g.edges]
        rows = compare(label, lambda impl: impl.normal_coloring_search(g.n, eu, ev, k))
        for bname, secs, (colors, nodes, _trail) in rows:
            show(label, bname, secs, nodes, "hit" if colors else "miss")


if __name__ == "__main__":
    main()
