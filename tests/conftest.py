"""Shared corpora and helpers for the test suite."""

from __future__ import annotations

import itertools
import random
import shutil
import subprocess
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import pytest
from hypothesis import assume
from hypothesis import strategies as st

import ncflow
from ncflow import kernels
from ncflow.generators import (
    counterexample_family,
    fig3_graph,
    k4,
    k23_with_p10v,
    k33,
    permutation_graph,
    petersen,
    petersen_minus_vertex,
    replace_edge_with_string,
    replace_vertex_with_triangle,
    ring_of_diamonds,
    triangle_replace_all,
)
from ncflow.flows import KLEIN_VALUES, FlowAssignment, _kernel_args, _settle
from ncflow.graph import ContractedGraph, Pseudograph, bridges, build_graph, contract_two_factor, is_cubic
from ncflow.matchings import (
    Cycle,
    PerfectMatching,
    TwoFactor,
    complement_two_factor,
    enumerate_perfect_matchings,
)


def prism(n: int) -> Pseudograph:
    return permutation_graph(tuple(range(n)))


def small_corpus() -> List[Tuple[str, Pseudograph]]:
    """Bridgeless cubic graphs on at most 14 vertices."""
    graphs = [
        ("k4", k4()),
        ("k33", k33()),
        ("prism3", prism(3)),
        ("prism4", prism(4)),
        ("prism5", prism(5)),
        ("prism6", prism(6)),
        ("prism7", prism(7)),
        ("petersen", petersen()),
        ("moebius4", permutation_graph((1, 2, 3, 0))),
        ("perm5-shift2", permutation_graph((0, 2, 4, 1, 3))),
        ("perm6-rev", permutation_graph((5, 4, 3, 2, 1, 0))),
        ("ring2", ring_of_diamonds(2)),
        ("ring3", ring_of_diamonds(3)),
        ("tri-k4", triangle_replace_all(k4())),
    ]
    for name, g in graphs:
        assert is_cubic(g) and not bridges(g), name
        assert g.n <= 14, name
    return graphs


def corpus_16() -> List[Tuple[str, Pseudograph]]:
    """Bridgeless cubic graphs on at most 16 vertices (superset of the small corpus)."""
    extra = [
        ("prism8", prism(8)),
        ("perm8-shift3", permutation_graph((3, 4, 5, 6, 7, 0, 1, 2))),
    ]
    return small_corpus() + extra


def claw_free_corpus() -> List[Pseudograph]:
    """Acceptance 7's bridgeless claw-free cubic graphs."""
    graphs = [ring_of_diamonds(k) for k in range(2, 8)]
    for base in (k4(), k33(), prism(3), prism(4), prism(5), prism(6),
                 permutation_graph((1, 2, 3, 0)), permutation_graph((0, 2, 4, 1, 3)),
                 permutation_graph((5, 4, 3, 2, 1, 0)), petersen()):
        graphs.append(triangle_replace_all(base))
    for k in (2, 3, 4):
        ring = ring_of_diamonds(k)
        for spec in ("D", "2", "D2"):
            graphs.append(replace_edge_with_string(ring, ring.m - 1, spec))
    return graphs


def cubic_without_a_perfect_matching(k: int) -> Pseudograph:
    """Three k-prisms, each with one rung subdivided, and a hub joined by a
    bridge to each subdivision vertex: 6k + 4 vertices, all of degree 3.
    Removing the hub leaves three odd blocks, so there is no perfect
    matching, and the enumeration backtracks through the blocks' partial
    matchings before it ends.  It records the ones it refuted, which ends
    the search in under 0.05 s at k = 16; at k = 24 there are more of them
    than it records, and the search runs on for far longer."""
    hub = 3 * (2 * k + 1)
    edges = []
    for block in range(3):
        o = block * (2 * k + 1)
        mid = o + 2 * k  # subdivides the rung o - (o + k)
        for i in range(k):
            edges += [(o + i, o + (i + 1) % k), (o + k + i, o + k + (i + 1) % k)]
            if i:
                edges.append((o + i, o + k + i))
        edges += [(o, mid), (mid, o + k), (mid, hub)]
    return build_graph(hub + 1, edges)


@st.composite
def loop_free_cubic_multigraph(draw, max_n: int = 8):
    """A loop-free cubic multigraph (parallel edges allowed) on an even
    number of vertices up to max_n, from a random pairing of 3n half-edges."""
    n = draw(st.sampled_from(range(2, max_n + 1, 2)))
    stubs = draw(st.permutations([v for v in range(n) for _ in range(3)]))
    edges = [(stubs[i], stubs[i + 1]) for i in range(0, 3 * n, 2)]
    assume(all(u != v for u, v in edges))
    return build_graph(n, edges)


def seeded_cubic_multigraphs(seed: int, count: int, max_n: int) -> List[Pseudograph]:
    """`count` loop-free cubic multigraphs with at least one pair of
    parallel edges, from random pairings of half-edges seeded by `seed`."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randrange(2, max_n + 1, 2)
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = [(min(stubs[i], stubs[i + 1]), max(stubs[i], stubs[i + 1])) for i in range(0, 3 * n, 2)]
        if all(u != v for u, v in edges) and len(set(edges)) < len(edges):
            out.append(build_graph(n, edges))
    return out


@st.composite
def cubic_multigraph_and_matching(draw):
    """A loop-free cubic multigraph (parallel edges allowed) from a random
    pairing of 3n half-edges, with one of its perfect matchings."""
    g = draw(loop_free_cubic_multigraph(8))
    matchings = list(itertools.islice(enumerate_perfect_matchings(g), 20))
    assume(matchings)
    return g, matchings[draw(st.integers(0, len(matchings) - 1))]


def kernel_instance(g: Pseudograph, f: PerfectMatching) -> Tuple[int, List[int], List[int], List[int], List[int]]:
    """The (nq, eu, ev, first, second) arguments `find_nonconflicting_flow`
    hands the flow kernel for the matching f of g: F-bar's chords are
    settled, so they are left out."""
    return _kernel_args(contract_two_factor(g, complement_two_factor(g, f)))[1]


def settled_search(impl, g: Pseudograph, f: PerfectMatching, mode: str) -> Tuple[Optional[List[int]], int, int]:
    """`impl.flow_search` on `kernel_instance(g, f)` in `mode`, its values
    spread over every quotient edge of G/F-bar, chords at alpha+beta, as
    `find_nonconflicting_flow` and `min_conflict_flow` read them."""
    h = contract_two_factor(g, complement_two_factor(g, f))
    kept, args = _kernel_args(h)
    vals, conf, nodes = impl.flow_search(*args, mode)
    return None if vals is None else _settle(h, kept, vals), conf, nodes


def _vertex_sums(n: int, edges, values) -> Tuple[int, ...]:
    """The XOR of the values at each of n vertices; a loop cancels itself."""
    acc = [0] * n
    for x, (u, v) in zip(values, edges):
        if u != v:
            acc[u] ^= x
            acc[v] ^= x
    return tuple(acc)


def nz_flows(h: ContractedGraph) -> Iterator[FlowAssignment]:
    """Every nowhere-zero flow of h = G/F-bar, lazily, in lexicographic
    order of the values (KLEIN_VALUES is increasing): the tests' exhaustive
    oracle, which shares no code with the flow kernel.

    Brute force met in the middle: each assignment of the last half of the
    edges is filed under the vertex sums it leaves, and each assignment of
    the first half, in product order, is completed by those that leave the
    same sums, so 2 * 3 ** (m / 2) assignments are tried, not 3 ** m.
    """
    nq, edges = len(h.cycles), h.quotient_edges
    half = len(edges) // 2
    tails: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
    for tail in itertools.product(KLEIN_VALUES, repeat=len(edges) - half):
        tails.setdefault(_vertex_sums(nq, edges[half:], tail), []).append(tail)
    for head in itertools.product(KLEIN_VALUES, repeat=half):
        for tail in tails.get(_vertex_sums(nq, edges[:half], head), ()):
            yield FlowAssignment(head + tail)


def chords(g: Pseudograph, tf: TwoFactor) -> Tuple[int, ...]:
    """The F-edges with both ends on one cycle of tf, in id order: the
    loops of G/F-bar."""
    h = contract_two_factor(g, tf)
    return tuple(eid for eid, (a, b) in zip(h.edge_origin, h.quotient_edges) if a == b)


def flat(pairs: List[Tuple[int, int]]) -> Tuple[List[int], List[int]]:
    """Conflict pairs in the kernels' layout: every first edge, then every second."""
    return [a for a, _ in pairs], [b for _, b in pairs]


def k4_with_doubled_diagonal() -> Tuple[Pseudograph, TwoFactor]:
    """K4 with a second 0-2 edge, and its Hamiltonian 4-cycle 0-1-2-3 (edges
    0..3) as a 2-factor.  The edges off the cycle, 4 and 6 (both 0-2) and
    5 (1-3), meet twice at vertices 0 and 2: not a perfect matching."""
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (0, 2)])
    return g, TwoFactor((Cycle((0, 1, 2, 3), (0, 1, 2, 3)),))


def petersen_of_petersens() -> Pseudograph:
    """Petersen with every vertex replaced by a copy of
    `petersen_minus_vertex()`, whose three degree-2 ports (0, 3, 4) take the
    vertex's edges in incident order.  90 vertices, no triangle and no
    2-edge cut, so `chi_n_exact` has nothing to reduce and its k = 5 search
    runs for a long time (over 30 s on the pure-Python kernel)."""
    base, unit = petersen(), petersen_minus_vertex()
    ports = (0, 3, 4)
    port_of = {}
    for v in range(base.n):
        for j, eid in enumerate(base.incident(v)):
            port_of[v, eid] = unit.n * v + ports[j]
    edges = [(a + unit.n * v, b + unit.n * v) for v in range(base.n) for a, b in unit.edges]
    edges += [(port_of[u, eid], port_of[v, eid]) for eid, (u, v) in enumerate(base.edges)]
    g = build_graph(unit.n * base.n, edges)
    assert is_cubic(g)
    return g


def chi_n_snarks_corpus() -> List[Tuple[str, Pseudograph]]:
    """The 123 inputs of perfbench's `chi-n-snarks` workload, unshuffled:
    Petersen with every vertex subset of size <= 2 and every 3-subset
    holding vertex 0 or 1 replaced by triangles, plus `k23_with_p10v`,
    `counterexample_family(1)` and fig3."""
    out = []
    for size in (0, 1, 2, 3):
        for sub in itertools.combinations(range(10), size):
            if size == 3 and sub[0] > 1:
                continue
            g = petersen()
            for v in sub:
                g = replace_vertex_with_triangle(g, v)
            out.append((f"petersen-tri{sub}", g))
    out += [
        ("k23_with_p10v", k23_with_p10v()),
        ("counterexample_family(1)", counterexample_family(1)),
        ("fig3", fig3_graph()),
    ]
    return out


def bridged_pair(h1: Pseudograph, e1: int, h2: Pseudograph, e2: int) -> Pseudograph:
    """Subdivide edge e1 of h1 and edge e2 of h2, and join the two new
    vertices by a bridge (the last edge).  fig3 has this shape, with two
    copies of K4."""
    x = h1.n + h2.n
    a, b = h1.endpoints(e1)
    c, d = h2.endpoints(e2)
    edges = [e for i, e in enumerate(h1.edges) if i != e1] + [(a, x), (x, b)]
    edges += [(u + h1.n, v + h1.n) for i, (u, v) in enumerate(h2.edges) if i != e2]
    edges += [(c + h1.n, x + 1), (x + 1, d + h1.n), (x, x + 1)]
    return build_graph(x + 2, edges)


def ladder(rungs: int) -> Pseudograph:
    """A ladder with its end rungs doubled: rails u_i = 2i and v_i = 2i + 1,
    rungs u_i v_i.  Each gap {u_i u_{i+1}, v_i v_{i+1}} is a 2-edge cut of
    its own class, the classes in a chain along the ladder."""
    edges = [(2 * i, 2 * i + 1) for i in range(rungs)]
    edges += [(2 * i + s, 2 * i + 2 + s) for i in range(rungs - 1) for s in (0, 1)]
    edges += [(0, 1), (2 * rungs - 2, 2 * rungs - 1)]
    return build_graph(2 * rungs, edges)


def glue_two_cut(g1: Pseudograph, e1: int, g2: Pseudograph, e2: int) -> Tuple[Pseudograph, Tuple[int, int]]:
    """Remove an edge from each graph and join the stubs, creating a 2-cut.

    Returns the glued graph and the ids of the two new cut edges.
    """
    u1, v1 = g1.endpoints(e1)
    u2, v2 = g2.endpoints(e2)
    off = g1.n
    edges = [e for i, e in enumerate(g1.edges) if i != e1]
    edges += [(a + off, b + off) for i, (a, b) in enumerate(g2.edges) if i != e2]
    edges.append((u1, u2 + off))
    edges.append((v1, v2 + off))
    return build_graph(g1.n + g2.n, edges), (len(edges) - 2, len(edges) - 1)


def hub_graph(rungs: int) -> Pseudograph:
    """The prism on two `rungs`-cycles (outer i, inner rungs + i) with each
    rung i replaced by a path i - x = y - (rungs + i) through a doubled
    edge x = y, where x = 2 rungs + 2i and y = x + 1.  Each rung's two
    single edges form a 2-edge cut of its own class, and all the digons
    hang off the one prism: cut at every class, it falls into the prism and
    `rungs` two-vertex pieces."""
    r = rungs
    edges = [(i, (i + 1) % r) for i in range(r)] + [(r + i, r + (i + 1) % r) for i in range(r)]
    for i in range(r):
        x = 2 * r + 2 * i
        edges += [(i, x), (x, x + 1), (x, x + 1), (x + 1, r + i)]
    return build_graph(4 * r, edges)


SPLICE_BASES = (k4, k33, lambda: prism(3), lambda: prism(4), petersen,
                lambda: bridged_pair(prism(3), 6, prism(4), 0))


@st.composite
def spliced_cubic_graph(draw, max_n=20):
    """A small cubic graph (one bridged) with up to two splices: a vertex
    replaced by a triangle, or another small graph glued in across a new
    2-edge cut.  A splice that would pass max_n vertices is skipped, which
    keeps the plain searches of the oracle short."""
    g = draw(st.sampled_from(SPLICE_BASES))()
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            if g.n + 2 <= max_n:
                g = replace_vertex_with_triangle(g, draw(st.integers(0, g.n - 1)))
        else:
            h = draw(st.sampled_from(SPLICE_BASES[:5]))()
            if g.n + h.n <= max_n:
                g, _cut = glue_two_cut(g, draw(st.integers(0, g.m - 1)), h, draw(st.integers(0, h.m - 1)))
    return g


def triangle_and_nine_cycle(chords: List[Tuple[int, int]]) -> Pseudograph:
    """Cubic graph whose canonical 2-factor is a triangle plus a chorded 9-cycle.

    Triangle 0,1,2; 9-cycle 3..11; cross matching edges 0-3, 1-6, 2-9 (ids
    12..14); chords given as 9-cycle positions (ids 15..17).
    """
    edges = [(0, 1), (1, 2), (0, 2)]
    edges += [(3 + i, 3 + (i + 1) % 9) for i in range(9)]
    edges += [(0, 3), (1, 6), (2, 9)]
    edges += [(3 + a, 3 + b) for a, b in chords]
    g = build_graph(12, edges)
    assert is_cubic(g)
    return g


# chord layouts covering all three triangle-elimination sub-branches
CHORD_LAYOUTS = [
    [(1, 5), (2, 7), (4, 8)],
    [(1, 4), (2, 7), (5, 8)],
    [(1, 8), (2, 5), (4, 7)],
    [(1, 5), (2, 8), (4, 7)],
    [(1, 7), (2, 5), (4, 8)],
    [(1, 4), (2, 8), (5, 7)],
    [(1, 7), (2, 4), (5, 8)],
    [(1, 8), (2, 4), (5, 7)],
    [(1, 8), (2, 7), (4, 5)],
    [(1, 2), (4, 5), (7, 8)],
]


@pytest.fixture(scope="session")
def corpus():
    return small_corpus()


@pytest.fixture(scope="session")
def corpus16():
    return corpus_16()


@pytest.fixture(scope="session")
def kernel_library(tmp_path_factory) -> Path:
    """The package's `_kernels.c` compiled with `cc -O2 -shared -fPIC` into a
    temporary directory, under the file name `ncflow.kernels` loads, with
    `-Wall -Wextra -Werror`: a warning fails the build.

    The C file uses no Python headers, so only a C compiler is needed;
    skips when there is none.
    """
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler (cc) on PATH; C kernels not built")
    src = Path(ncflow.__file__).with_name("_kernels.c")
    out = tmp_path_factory.mktemp("kernels") / Path(kernels.LIBRARY).name
    build = subprocess.run(
        [cc, "-O2", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC", str(src), "-o", str(out)],
        capture_output=True,
        text=True,
    )
    if build.returncode != 0:
        pytest.fail(f"compiling {src.name} failed:\n{build.stderr}")
    return out


@pytest.fixture(scope="session")
def compiled(kernel_library):
    """The C kernels, bound through `ncflow.kernels.bind` as the package
    binds them."""
    return kernels.bind(str(kernel_library))
