"""The C and pure-Python kernels must agree result-for-result, including
node counts, so certificates are backend-independent.

`compiled` (tests/conftest.py) builds the package's `_kernels.c` into a
temporary directory and binds it as `ncflow.kernels` does; these tests
skip only when no C compiler is present.
"""

import ctypes
import itertools
import os
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncflow
from ncflow import _kernels_py, kernels
from ncflow.generators import (
    counterexample_family,
    fig3_graph,
    k4,
    k23_with_p10v,
    k33,
    permutation_graph,
    petersen,
    replace_vertex_with_triangle,
    triangle_replace_all,
)
from ncflow.matchings import enumerate_perfect_matchings

from conftest import (
    claw_free_corpus,
    corpus_16,
    flat,
    kernel_instance,
    loop_free_cubic_multigraph,
    prism,
    seeded_cubic_multigraphs,
    settled_search,
    small_corpus,
)


def flow_instances():
    """((nq, eu, ev, first, second), bits) from real quotients plus fuzz.

    Real quotients go through `kernel_instance`, as
    `find_nonconflicting_flow` hands them to the kernel; the
    `counterexample_family(1)` ones are those it searches.  The fuzz draws
    loop-free edge lists and conflict pairs with duplicates but no
    self-pairs, over Z2^2 and Z2^3.
    """
    out = []
    for g in (petersen(), k33(), k4(), counterexample_family(1)):
        out += [(kernel_instance(g, f), 2) for f in enumerate_perfect_matchings(g)]
    rng = random.Random(99)
    for _ in range(85):
        bits = rng.choice((2, 3))
        nq = rng.randint(2, 4)
        m = rng.randint(1, 9 if bits == 2 else 6)
        eu = [rng.randrange(nq) for _ in range(m)]
        ev = [(u + rng.randrange(1, nq)) % nq for u in eu]
        pairs = []
        if m > 1:
            firsts = [rng.randrange(m) for _ in range(rng.randint(0, 2 * m))]
            pairs = [(a, (a + rng.randrange(1, m)) % m) for a in firsts]
            pairs += pairs[: rng.randint(0, len(pairs))]
        out.append(((nq, eu, ev, *flat(pairs)), bits))
    return out


class TestFlowParity:
    @pytest.mark.parametrize("mode", ["first", "min"])
    def test_exact_agreement(self, mode, compiled):
        for args, bits in flow_instances():
            a = _kernels_py.flow_search(*args, mode, bits)
            b = compiled.flow_search(*args, mode, bits)
            assert a == b, (args, mode, bits)

    def test_deadline_raises_in_both(self, compiled):
        g = petersen()
        instance = kernel_instance(g, next(enumerate_perfect_matchings(g)))
        for impl in (_kernels_py, compiled):
            with pytest.raises(_kernels_py.SearchTimeout):
                impl.flow_search(*instance, "min", deadline=0.0)

    def test_deadline_inside_the_search(self, compiled):
        # "min" on this quotient expands 36,242,033 nodes (about 0.5 s in
        # C), so a deadline 2 ms ahead passes inside the search, at a
        # strided check, on hosts far faster than this one; the backend
        # then answers the next call as usual
        g = counterexample_family(3)
        matching = next(enumerate_perfect_matchings(g))
        instance = kernel_instance(g, matching)
        for impl in (_kernels_py, compiled):
            with pytest.raises(_kernels_py.SearchTimeout):
                impl.flow_search(*instance, "min", deadline=time.monotonic() + 0.002)
            assert impl.flow_search(*instance, "first") == (None, 0, 356)

    @pytest.mark.parametrize(
        "bits, mode", [(b, m) for b in (0, 1, 4, 2.0, True) for m in ("first", "min")] + [(2, "count"), (3, "count")]
    )
    def test_other_groups_and_an_unknown_mode_raise_in_both(self, bits, mode, compiled):
        # the kernels search Z2^2 and Z2^3 only; 2.0 and True equal ints,
        # and are refused all the same
        for impl in (_kernels_py, compiled):
            with pytest.raises(ValueError):
                impl.flow_search(2, [0, 0, 1], [1, 1, 0], [0], [1], mode, bits)

    def test_a_loop_or_a_self_pair_is_refused_in_both(self, compiled):
        # the package sends neither: F-bar's chords, the loops of G/F-bar,
        # are settled outside the search, and a self-pair would be a
        # 2-factor edge parallel to its own F-edge, which is such a chord
        for impl in (_kernels_py, compiled):
            for mode in ("first", "min"):
                with pytest.raises(ValueError, match="equal ends"):
                    impl.flow_search(2, [0, 0, 1], [1, 0, 0], [], [], mode)
                with pytest.raises(ValueError, match="equal ends"):
                    impl.flow_search(2, [0, 0, 1], [1, 1, 0], [0, 2], [1, 2], mode)
            with pytest.raises(ValueError, match="equal ends"):
                impl.normal_coloring_search(2, [0, 0, 1], [1, 1, 1], 3)

    def test_out_of_range_index_raises_in_both(self, compiled):
        # the C kernels check every index before touching memory
        for impl in (_kernels_py, compiled):
            with pytest.raises(IndexError):
                impl.flow_search(2, [0, 0, 2], [1, 1, 0], [], [], "first")
            with pytest.raises(IndexError):
                impl.flow_search(2, [0, 0, 1], [1, 1, 0], [0], [3], "min")
            with pytest.raises(IndexError):
                impl.normal_coloring_search(2, [0, 0, 1], [1, 1, 2], 3)

    @pytest.mark.parametrize("bad", [-1, -2, 2, 7])
    def test_every_vertex_id_is_range_checked_in_both(self, bad, compiled):
        # a negative id would index Python lists from the end
        for impl in (_kernels_py, compiled):
            for mode in ("first", "min"):
                with pytest.raises(IndexError):
                    impl.flow_search(2, [0, 0, bad], [1, 1, 0], [], [], mode)
                with pytest.raises(IndexError):
                    impl.flow_search(2, [0, 0, 1], [1, bad, 0], [], [], mode)
            with pytest.raises(IndexError):
                impl.normal_coloring_search(2, [bad, 0, 0], [1, 1, 1], 3)
            with pytest.raises(IndexError):
                impl.normal_coloring_search(2, [0, 0, 0], [1, 1, bad], 3)

    @pytest.mark.parametrize("pair", [(-1, 0), (0, -3), (3, 0), (1, 9)])
    def test_every_conflict_pair_id_is_range_checked_in_both(self, pair, compiled):
        for impl in (_kernels_py, compiled):
            for mode in ("first", "min"):
                with pytest.raises(IndexError):
                    impl.flow_search(2, [0, 0, 1], [1, 1, 0], *flat([(0, 1), pair]), mode)

    def test_edge_lists_of_different_lengths_raise_in_both(self, compiled):
        # C would read past the end of the shorter array
        for impl in (_kernels_py, compiled):
            with pytest.raises(ValueError):
                impl.flow_search(2, [0, 0, 1], [1, 1], [], [], "first")
            with pytest.raises(ValueError):
                impl.flow_search(2, [0, 0, 1], [1, 1, 0], [0, 1], [2], "first")
            with pytest.raises(ValueError):
                impl.normal_coloring_search(2, [0, 0], [1, 1, 1], 3)


def static_order(nq, eu, ev):
    """The kernels' edge order: the vertices by their number of edges, then
    by id, each taking its incident edges in id order, every edge at its
    first appearance."""
    edges_at = [sum(v in (eu[e], ev[e]) for e in range(len(eu))) for v in range(nq)]
    order = []
    for v in sorted(range(nq), key=lambda v: (edges_at[v], v)):
        for e in range(len(eu)):
            if v in (eu[e], ev[e]) and e not in order:
                order.append(e)
    return order


def enumerate_flows(nq, eu, ev, bits):
    """Every nowhere-zero Z2^bits flow, in the kernels' order, by brute force.

    The edges take the values 1..2^bits - 1 in product order over the
    static order, which is the kernels' order: an edge that closes a vertex
    there has one value that conservation allows, and every other edge
    tries the values in increasing order.  Yields values indexed by edge id.
    """
    order = static_order(nq, eu, ev)
    for assignment in itertools.product(range(1, 1 << bits), repeat=len(order)):
        val = [0] * len(eu)
        acc = [0] * nq
        for e, x in zip(order, assignment):
            val[e] = x
            acc[eu[e]] ^= x
            acc[ev[e]] ^= x
        if not any(acc):
            yield val


def conflict_count(val, pairs):
    """Pairs whose values are alpha + beta apart; a duplicate pair counts twice."""
    return sum(val[a] ^ val[b] == 3 for a, b in pairs)


@st.composite
def small_flow_instances(draw):
    """Loop-free multigraphs, and conflict pairs with duplicates but no
    self-pairs, small enough to enumerate every assignment, over Z2^2 and
    Z2^3."""
    bits = draw(st.sampled_from([2, 3]))
    nq = draw(st.integers(2, 3))
    m = draw(st.integers(0, 4 if bits == 3 else 6))
    eu = draw(st.lists(st.integers(0, nq - 1), min_size=m, max_size=m))
    shifts = draw(st.lists(st.integers(1, nq - 1), min_size=m, max_size=m))
    ev = [(u + s) % nq for u, s in zip(eu, shifts)]
    pairs = []
    if m > 1:
        drawn = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(1, m - 1)), max_size=2 * m))
        pairs = [(a, (a + s) % m) for a, s in drawn]
        pairs += pairs[: draw(st.integers(0, len(pairs)))]
    return nq, eu, ev, pairs, bits


class TestFlowOracle:
    """Both backends against brute-force enumeration in the static order.

    "first" and "min" break the alpha <-> beta symmetry, which may change
    only node counts: "first" must still return the first conflict-free
    flow and "min" the first flow with the fewest conflicts.
    """

    @settings(max_examples=300, deadline=None)
    @given(small_flow_instances())
    def test_first_and_min_match_enumeration(self, compiled, instance):
        nq, eu, ev, pairs, bits = instance
        flows = [(val, conflict_count(val, pairs)) for val in enumerate_flows(nq, eu, ev, bits)]
        clean = [val for val, conf in flows if conf == 0]
        fewest = min(flows, key=lambda fc: fc[1], default=None)  # min keeps the first

        results = {}
        for mode in ("first", "min"):
            results[mode] = _kernels_py.flow_search(nq, eu, ev, *flat(pairs), mode, bits)
            assert compiled.flow_search(nq, eu, ev, *flat(pairs), mode, bits) == results[mode]
        vals, conf, _nodes = results["first"]
        assert (vals, conf) == ((clean[0], 0) if clean else (None, 0))
        vals, conf, _nodes = results["min"]
        assert (vals, conf) == (fewest if fewest else (None, 0))


# The first conflict-free flow of every matching, in enumeration order,
# with F-bar's chords at alpha+beta (`settled_search`); None where there
# is none.  Before the chords were settled, the search valued them too and
# returned the flows it found first in fail-first order, which were also
# those of the search in vertex-id order: on k23_with_p10v matchings 10,
# 11, 14 and 15, whose first six F-edges are chords, gave "133133132",
# and the three edges left now come first and take "123"; the positive
# matchings of
# triangle_replace_all(k33), which contract triangles only, so that every
# F-edge is a chord, gave "1" * 9.
FIRST_FLOW_GOLDEN = {
    "k23_with_p10v": (
        ["133313332"] * 3 + ["133333132", "331313332", "331333132"] + ["133313332"] * 2
        + ["313331332", "313313332", "333333123", "333333123", "133331332", "133313332"]
        + ["333333123"] * 2
    ),
    "triangle_replace_all(k33)": [None if c == "-" else "3" * 9 for c in "-----11--1-11-1-"],
}


class TestFailFirst:
    """Both modes take the quotient vertices by number of edges, then by id."""

    @pytest.mark.parametrize("name", sorted(FIRST_FLOW_GOLDEN))
    def test_flows_are_those_of_the_canonical_order(self, name, compiled):
        g = {"k23_with_p10v": k23_with_p10v, "triangle_replace_all(k33)": lambda: triangle_replace_all(k33())}[name]()
        for f, want in zip(enumerate_perfect_matchings(g), FIRST_FLOW_GOLDEN[name], strict=True):
            for impl in (_kernels_py, compiled):
                vals, conf, _nodes = settled_search(impl, g, f, "first")
                assert (vals and "".join(map(str, vals)), conf) == (want, 0)

    def test_nodes_of_the_exhaustive_negative(self, compiled):
        # all 5,120 matchings of counterexample_family(2) (ROADMAP's W2):
        # 11,650,048 nodes in vertex-id order
        g = counterexample_family(2)
        instances = [kernel_instance(g, f) for f in enumerate_perfect_matchings(g)]
        for impl in (_kernels_py, compiled):
            results = [impl.flow_search(*args, "first") for args in instances]
            assert {r[:2] for r in results} == {(None, 0)}
            assert sum(r[2] for r in results) == 1063936

    @pytest.mark.parametrize(
        "name, mode, total",
        [
            # with the chords searched as loops: 2,165, 4,869, 756, 1,812,
            # 10,819 and 45,895; before the fail-first order: 2,454, 4,869,
            # 3,906, 4,776, 11,056 and 56,842,915
            ("corpus16", "first", 1353),
            ("corpus16", "min", 2460),
            ("k23_with_p10v", "first", 552),
            ("k23_with_p10v", "min", 1488),
            ("claw-free corpus", "first", 4435),
            ("claw-free corpus, 40 per graph", "min", 23236),
        ],
    )
    def test_node_totals(self, name, mode, total, compiled):
        # node counts are deterministic and equal on both backends: a
        # regression signal with no timing in it
        graphs = {
            "corpus16": [g for _name, g in corpus_16()],
            "k23_with_p10v": [k23_with_p10v()],
            "claw-free corpus": claw_free_corpus(),
            "claw-free corpus, 40 per graph": claw_free_corpus(),
        }[name]
        limit = 40 if name.endswith("per graph") else None
        instances = [kernel_instance(g, f) for g in graphs for f in itertools.islice(enumerate_perfect_matchings(g), limit)]
        for impl in (_kernels_py, compiled):
            assert sum(impl.flow_search(*args, mode)[2] for args in instances) == total, impl.BACKEND

    @pytest.mark.parametrize("mode", ["first", "min"])
    def test_deadline_inside_both_modes(self, mode, compiled):
        # Petersen, which has no nowhere-zero Klein flow, with a pendant
        # digon (two parallel edges to a new vertex) at each vertex and a
        # second one at vertex 0.  Fail first, both modes value the digons
        # before any Petersen edge, and each digon adds nothing to
        # conservation and triples the search (94,330,788 nodes, about a
        # second in C), so a deadline 2 ms ahead passes inside
        g = petersen()
        hosts = list(range(10)) + [0]
        eu = [u for u, _ in g.edges] + [w for w in hosts for _ in (0, 1)]
        ev = [v for _, v in g.edges] + [10 + i for i in range(len(hosts)) for _ in (0, 1)]
        for impl in (_kernels_py, compiled):
            with pytest.raises(_kernels_py.SearchTimeout):
                impl.flow_search(10 + len(hosts), eu, ev, [], [], mode, deadline=time.monotonic() + 0.002)


DEEP_SEARCH = """
import resource, sys
from ncflow import kernels
from conftest import prism

resource.setrlimit(resource.RLIMIT_STACK, (1 << 20, resource.RLIM_INFINITY))
impl = kernels.bind(sys.argv[1])
m = 20000  # parallel edges between two vertices
for mode in ("first", "min"):
    vals, conf, _nodes = impl.flow_search(2, [0] * m, [1] * m, [], [], mode)
    assert (vals, conf) == ([1] * m, 0), mode
g = prism(4000)  # 12,000 edges
colors = impl.normal_coloring_search(g.n, [u for u, _ in g.edges], [v for _, v in g.edges], 3)[0]
assert all(len({colors[e] for e in g.incident(v)}) == 3 for v in range(g.n))
print("ok")
"""


@pytest.fixture
def c_library(kernel_library, monkeypatch):
    """The ctypes library that `kernels.bind` loads and declares its entry
    points on, recorded as it is built."""
    libraries = []

    class Recorded(ctypes.CDLL):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            libraries.append(self)

    monkeypatch.setattr(ctypes, "CDLL", Recorded)
    kernels.bind(str(kernel_library))
    (library,) = libraries
    return library


class TestCEntryPoints:
    def test_bindings_declare_every_parameter(self, c_library):
        # ctypes passes what argtypes declares, so a parameter added to a
        # prototype but not to its binding would read garbage
        source = Path(ncflow.__file__).with_name("_kernels.c").read_text()
        prototypes = dict(re.findall(r"^int (nc_\w+)\(([^)]*)\)", source, re.M))
        assert sorted(prototypes) == ["nc_flow_search", "nc_normal_coloring_search"]
        for name, params in prototypes.items():
            argtypes = getattr(c_library, name).argtypes
            assert argtypes is not None and len(argtypes) == len(params.split(",")), name

    def test_c_guards_its_own_arguments(self, c_library):
        # the Python checks come first on both backends; C refuses a group
        # other than Z2^2 and Z2^3, a loop and a self-pair by itself
        # (NC_BADARG), without reading past its arrays
        def ints(xs):
            return bytes((ctypes.c_int * len(xs))(*xs))

        def flow_status(eu, ev, pairs, bits):
            out, conf, nodes = (ctypes.c_int * len(eu))(), ctypes.c_int(), ctypes.c_longlong()
            return c_library.nc_flow_search(
                2, len(eu), ints(eu), ints(ev), len(pairs) // 2, ints(pairs), 0, bits, -1.0,
                ctypes.addressof(out), ctypes.byref(conf), ctypes.byref(nodes),
            )

        badarg = 5
        assert flow_status([0, 0, 1], [1, 1, 0], [0, 1], 2) == 1  # a flow with no conflict
        for bits in (0, 1, 4, 31):
            assert flow_status([0, 0, 1], [1, 1, 0], [0, 1], bits) == badarg
        assert flow_status([0, 0, 1], [1, 0, 0], [], 2) == badarg
        assert flow_status([0, 0, 1], [1, 1, 0], [2, 2], 2) == badarg
        out, nodes, searched = (ctypes.c_int * 3)(), (ctypes.c_longlong * 1)(), ctypes.c_int()
        status = c_library.nc_normal_coloring_search(
            2, 3, ints([0, 0, 1]), ints([1, 1, 1]), 1, ints([3]), -1.0,
            ctypes.addressof(out), ctypes.addressof(nodes), ctypes.byref(searched),
        )
        assert status == badarg


class TestDeepCompiledSearches:
    def test_a_search_deeper_than_the_stack_answers(self, kernel_library):
        # each C search keeps its candidates in per-depth arrays, so its
        # depth is bounded by memory, not by the stack: a child process
        # whose stack is held to 1 MB searches 20,000 and 12,000 edges
        # deep (a search recursing once per edge crashed here at 10,000)
        tests = Path(__file__).parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
        out = subprocess.run(
            [sys.executable, "-c", DEEP_SEARCH, str(kernel_library)], env=env, capture_output=True, text=True
        )
        assert (out.returncode, out.stdout) == (0, "ok\n"), out.stderr


def petersen_with_triangles(vertices):
    g = petersen()
    for v in vertices:
        g = replace_vertex_with_triangle(g, v)
    return g


def edge_lists(g):
    return [e[0] for e in g.edges], [e[1] for e in g.edges]


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

    def test_multigraphs_with_parallel_edges(self, compiled):
        # the look-ahead fires once per edge, when the second-to-last edge of
        # its closed star is colored; parallel edges make stars of 3 or 4
        # edges, whose counts and color sets both backends must get right
        for g in seeded_cubic_multigraphs(seed=16, count=40, max_n=12):
            eu, ev = edge_lists(g)
            for k in range(3, 8):
                a = _kernels_py.normal_coloring_search(g.n, eu, ev, k)
                b = compiled.normal_coloring_search(g.n, eu, ev, k)
                assert a == b, (g.edges, k)

    def test_palettes_wider_than_a_word(self, compiled):
        # both backends keep colors 1..min(k, m + 1), as no edge takes a
        # color above m; C keeps them 64 to a word.  prism(22) has 66 edges
        g = prism(22)
        eu, ev = edge_lists(g)
        for k in (63, 64, 65, 200, 10**9):
            a = _kernels_py.normal_coloring_search(g.n, eu, ev, k)
            assert compiled.normal_coloring_search(g.n, eu, ev, k) == a, k


class TestPaletteSequences:
    """One call searches several palettes on tables built once."""

    def test_each_palette_counts_as_if_alone(self, compiled):
        # a palette's nodes are those of a call with that palette alone,
        # and the call stops at the first palette that admits a coloring
        palettes = (3, 5, 6, 7)
        for g in (k4(), petersen(), fig3_graph(), k23_with_p10v(), counterexample_family(1)):
            eu, ev = edge_lists(g)
            for impl in (_kernels_py, compiled):
                colors, total, trail = impl.normal_coloring_search(g.n, eu, ev, palettes)
                alone = [impl.normal_coloring_search(g.n, eu, ev, k) for k in palettes[: len(trail)]]
                assert trail == tuple(nodes for _c, nodes, _t in alone), impl.BACKEND
                assert total == sum(trail)
                assert [c is None for c, _n, _t in alone] == [True] * (len(trail) - 1) + [False]
                assert colors == alone[-1][0]

    def test_no_palette_every_palette_exhausted_and_a_passed_deadline(self, compiled):
        eu, ev = edge_lists(petersen())
        for impl in (_kernels_py, compiled):
            assert impl.normal_coloring_search(10, eu, ev, ()) == (None, 0, ())
            # Petersen has no normal 3- or 4-coloring: both palettes exhausted
            assert impl.normal_coloring_search(10, eu, ev, (3, 4)) == (None, 208, (90, 118))
            with pytest.raises(_kernels_py.SearchTimeout):
                impl.normal_coloring_search(10, eu, ev, (3, 5), deadline=time.monotonic() - 1)

    def test_palettes_outside_a_c_int(self, compiled):
        # a palette searches as min(max(k, 0), m + 1) colors on both backends
        eu, ev = edge_lists(petersen())
        a = _kernels_py.normal_coloring_search(10, eu, ev, (-(2**40), 3, 2**40))
        assert a[1:] == (139, (0, 90, 49))
        assert compiled.normal_coloring_search(10, eu, ev, (-(2**40), 3, 2**40)) == a


def line_graph(n, eu, ev):
    """(each vertex's edges, each edge's adjacent edges: those sharing an
    endpoint with it, itself excluded, parallel edges once)."""
    incid = [[] for _ in range(n)]
    for e in range(len(eu)):
        incid[eu[e]].append(e)
        incid[ev[e]].append(e)
    adjacent = [
        list(dict.fromkeys(f for v in (eu[e], ev[e]) for f in incid[v] if f != e))
        for e in range(len(eu))
    ]
    return incid, adjacent


def closed_star_order(m, adjacent):
    """The kernels' coloring order, every key recomputed at every step:
    next the uncolored edge that completes the most closed stars (the
    stars whose only uncolored edge it is), then the one with the most
    colored adjacent edges, then the lowest id.  O(m^2) scans, against
    the kernels' heap."""
    stars = [set(adjacent[e]) | {e} for e in range(m)]
    colored = set()
    order = []

    def key(f):
        completes = sum(stars[g] - colored == {f} for g in stars[f])
        return -completes, -len(colored.intersection(adjacent[f])), f

    while len(order) < m:
        e = min((f for f in range(m) if f not in colored), key=key)
        order.append(e)
        colored.add(e)
    return order


def reference_coloring_search(n, eu, ev, k, look_ahead=False):
    """The normal-coloring search as it was before the look-ahead: the same
    edge order (`closed_star_order`), canonical color introduction, and
    one abnormality check per edge once its closed star is fully colored.
    Returns (colors or None, nodes).

    With `look_ahead`, after the edge e is colored every edge g whose
    closed star e belongs to and now has one uncolored edge f is tried
    against each color b in 1..k not at f's ends: the branch lives only
    if some b leaves g normal (its star's colors with b are not 4).  That
    is the kernels' look-ahead, stated color by color instead of in masks,
    and gives the node count the kernels must reach.
    """
    m = len(eu)
    incid, adjacent = line_graph(n, eu, ev)
    order = closed_star_order(m, adjacent)
    checks = [[] for _ in range(m)]
    depth_of = [0] * m
    for d, e in enumerate(order):
        depth_of[e] = d
    for e in range(m):
        done = max(depth_of[f] for f in adjacent[e] + [e])
        checks[done].append((eu[e], ev[e]))
    steps = [(e, eu[e], ev[e], tuple(checks[d])) for d, e in enumerate(order)]
    choices = [
        tuple((c, 1 << c) for c in range(1, min(k, top + 1) + 1))
        for top in range(max(k, 0) + 1)
    ]
    pal = [0] * n
    color = [0] * m
    nodes = 0

    def star_colors(g):
        return {color[f] for v in (eu[g], ev[g]) for f in incid[v]} - {0}

    def some_color_keeps_normal(g):
        (f,) = [h for h in adjacent[g] + [g] if color[h] == 0]
        seen, taken = star_colors(g), star_colors(f)
        return any(len(seen | {b}) != 4 for b in range(1, k + 1) if b not in taken)

    def rec(depth, maxused):
        nonlocal nodes
        if depth == m:
            return True
        e, u, v, star_checks = steps[depth]
        used = pal[u] | pal[v]
        for c, bit in choices[maxused]:
            nodes += 1
            if used & bit:
                continue
            pal[u] |= bit
            pal[v] |= bit
            color[e] = c
            alive = all((pal[a] | pal[b]).bit_count() != 4 for a, b in star_checks)
            if alive and look_ahead:
                for g in adjacent[e] + [e]:
                    left = [h for h in adjacent[g] + [g] if color[h] == 0]
                    if len(left) == 1 and not some_color_keeps_normal(g):
                        alive = False
                        break
            if alive and rec(depth + 1, c if c > maxused else maxused):
                return True
            color[e] = 0
            pal[u] ^= bit
            pal[v] ^= bit
        return False

    if rec(0, 0):
        return color, nodes
    return None, nodes


def coloring_oracle_cases():
    """The small corpus, fig3 (bridged, chi'_N = 7), `k23_with_p10v` and
    Petersen with one or two triangles.  `counterexample_family(1)` is left
    out: the reference's plain 3-coloring search on it expands 2.8M nodes."""
    graphs = [g for _name, g in small_corpus()]
    graphs += [fig3_graph(), k23_with_p10v()]
    graphs += [petersen_with_triangles(vs) for vs in ((0,), (0, 1))]
    return graphs


class TestColoringOracle:
    """Both backends against the search without look-ahead.

    The look-ahead may cut only branches with no normal completion, so the
    coloring found (or None) must be the reference's and the node count
    no larger; the count must be the one the color-by-color look-ahead of
    `reference_coloring_search` reaches.
    """

    @staticmethod
    def check(g, compiled):
        eu, ev = edge_lists(g)
        for k in range(3, 8):
            plain = reference_coloring_search(g.n, eu, ev, k)
            ahead = reference_coloring_search(g.n, eu, ev, k, look_ahead=True)
            for impl in (_kernels_py, compiled):
                colors, nodes, _trail = impl.normal_coloring_search(g.n, eu, ev, k)
                label = (impl.BACKEND, g.edges, k)
                assert colors == plain[0], label
                assert nodes <= plain[1], label
                assert (colors, nodes) == ahead, label

    def test_fixed_corpus(self, compiled):
        for g in coloring_oracle_cases():
            self.check(g, compiled)

    def test_the_heap_takes_the_edges_in_the_scan_order(self):
        # graphs too large for the reference search; the C order is held
        # to this one by the node counts of the parity tests
        sigma = list(range(50))
        random.Random(0).shuffle(sigma)
        graphs = [counterexample_family(1), triangle_replace_all(petersen()), permutation_graph(sigma)]
        graphs += seeded_cubic_multigraphs(seed=23, count=10, max_n=40)
        for g in graphs:
            eu, ev = edge_lists(g)
            _incid, adjacent = line_graph(g.n, eu, ev)
            steps = _kernels_py._coloring_steps(eu, ev, adjacent)
            assert [e for e, *_rest in steps] == closed_star_order(g.m, adjacent), g.edges

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(loop_free_cubic_multigraph(14))
    def test_random_cubic_multigraphs(self, compiled, g):
        self.check(g, compiled)


class TestBackendSelection:
    """`ncflow.kernels` picks its backend at import, in a fresh process
    importing a copy of the package."""

    @staticmethod
    def backend(package_parent, **env_extra):
        code = "import sys; from ncflow import kernels; print(kernels.BACKEND, 'ctypes' in sys.modules)"
        env = {k: v for k, v in os.environ.items() if k != "NZFLOW_PURE_PYTHON"}
        env.update(env_extra, PYTHONPATH=str(package_parent))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=package_parent, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        return out.stdout.split()

    def test_library_next_to_the_package_is_used(self, kernel_library, tmp_path):
        package = tmp_path / "ncflow"
        library_name = Path(kernels.LIBRARY).name
        shutil.copytree(Path(ncflow.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__", library_name))
        library = package / library_name
        assert self.backend(tmp_path) == ["python", "False"]  # no library: ctypes stays unloaded
        shutil.copyfile(kernel_library, library)
        assert self.backend(tmp_path) == ["c", "True"]
        assert self.backend(tmp_path, NZFLOW_PURE_PYTHON="1") == ["python", "False"]
        library.write_bytes(b"not a shared library\n" * 64)
        assert self.backend(tmp_path)[0] == "python"

    def test_env_var_forces_fallback(self):
        code = "from ncflow import kernels; print(kernels.BACKEND)"
        env = dict(os.environ, NZFLOW_PURE_PYTHON="1")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.stdout.strip() == "python"
