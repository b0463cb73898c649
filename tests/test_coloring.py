"""Edge classification, exact normal chromatic index, flow-derived colorings,
reductions over 2-cuts and triangles, and H-colorings."""

import dataclasses
import inspect
import itertools
import random
import time

import pytest
from hypothesis import given, settings

from ncflow.coloring import (
    ABNORMAL,
    EdgeColoring,
    POOR,
    RICH,
    Z2CubedFlow,
    admits_normal_k_coloring,
    chi_n_exact,
    classify_edge,
    coloring_from_flow,
    contract_triangle,
    h_coloring,
    is_normal,
    is_proper,
    lift_over_2_cut,
    lift_over_triangle,
    split_two_cut,
    structural_abnormality,
    verify_conjecture4_witness,
    verify_h_coloring,
    verify_z2cubed_flow,
    z2cubed_flow_coloring,
)
from ncflow import _kernels_py, coloring, graph
from ncflow.errors import InputError, NcflowError
from ncflow.flows import ALPHA, BETA, find_nonconflicting_flow
from ncflow.generators import (
    counterexample_family,
    diamond,
    fig3_graph,
    fig3_published_coloring,
    fig4_graph,
    k4,
    k23,
    k23_with_p10v,
    k33,
    permutation_graph,
    petersen,
    replace_vertex_with_triangle,
    ring_of_diamonds,
    triangle_replace_all,
)
from ncflow.graph import bridges, build_graph, contract_two_factor, is_isomorphic_to_petersen
from ncflow.kernels import SearchTimeout
from ncflow.matchings import complement_two_factor, enumerate_perfect_matchings

from conftest import (
    bridged_pair,
    chi_n_snarks_corpus,
    corpus_16,
    glue_two_cut,
    hub_graph,
    ladder,
    nz_flows,
    prism,
    small_corpus,
    spliced_cubic_graph,
)


def three_coloring(g):
    """A proper 3-edge-coloring by exhaustive search, if one exists."""
    for colors in itertools.product((1, 2, 3), repeat=g.m):
        c = EdgeColoring(colors, 3)
        if is_proper(g, c):
            return c
    return None


class TestClassification:
    def test_three_coloring_is_all_poor(self):
        g = k4()
        c = three_coloring(g)
        assert c is not None
        for e in range(g.m):
            assert classify_edge(g, c, e).kind == POOR
        assert is_normal(g, c).ok

    def test_rainbow_edge_is_rich(self):
        # star K_{1,3} plus pendant edges: color the middle edge and its four
        # neighbors all differently
        g = build_graph(8, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7)])
        c = EdgeColoring((1, 2, 3, 4, 5, 1, 3), 5)
        assert classify_edge(g, c, 0).kind == RICH
        assert classify_edge(g, c, 0).union_size == 5

    def test_published_seven_coloring_of_the_bridge_graph(self):
        g = fig3_graph()
        c = EdgeColoring(fig3_published_coloring(), 7)
        verdict = is_normal(g, c)
        assert verdict.ok
        assert classify_edge(g, c, 14).kind == POOR  # the bridge
        for e in range(14):
            assert classify_edge(g, c, e).kind == RICH

    def test_abnormal_detection(self):
        # 4 colors on a closed neighborhood: recolor one pendant of the rich star
        g = build_graph(8, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7)])
        c = EdgeColoring((1, 2, 3, 4, 2, 1, 3), 4)
        assert classify_edge(g, c, 0).kind == ABNORMAL

    def test_is_normal_checks_properness_once(self, monkeypatch):
        from ncflow import coloring

        calls = []

        def counted(g, c):
            calls.append(c)
            return is_proper(g, c)

        g = petersen()
        c = chi_n_exact(g, 5).witness
        monkeypatch.setattr(coloring, "is_proper", counted)
        assert is_normal(g, c).ok
        assert len(calls) == 1

    def test_improper_rejected(self):
        g = k4()
        with pytest.raises(InputError):
            classify_edge(g, EdgeColoring((1,) * 6, 3), 0)


class TestChiN:
    def test_known_values(self):
        assert chi_n_exact(k4(), 7).k == 3
        assert chi_n_exact(petersen(), 7).k == 5

    def test_bridge_graph_needs_seven(self):
        res = chi_n_exact(fig3_graph(), 7)
        assert res.k == 7
        assert not res.multigraph
        # every smaller palette was settled: k = 3 by the triangle lemma
        # (its first triangle contracts to a graph with no normal coloring),
        # k = 4 by Lemma A, and k = 5 and 6 by exhausted searches on fig3
        assert [k for k, _n in res.nodes_per_k] == [3, 4, 5, 6, 7]
        assert res.settled_by == ((3, "triangle"), (4, "lemma-A"))
        assert dict(res.nodes_per_k)[4] == 0
        assert all(n > 0 for k, n in res.nodes_per_k if k != 4)
        assert admits_normal_k_coloring(fig3_graph(), 6) is None

    def test_bridge_stays_poor_without_a_two_cut_reduction(self):
        g = fig3_graph()
        res = chi_n_exact(g, 7)
        assert bridges(g) == [14]
        assert all(lemma != "2-cut" for _k, lemma in res.settled_by)
        assert classify_edge(g, res.witness, 14).kind == POOR

    def test_witness_is_normal_and_minimal(self):
        for name, g in small_corpus():
            res = chi_n_exact(g, 7)
            assert res is not None, name
            assert is_normal(g, res.witness).ok, name
            assert res.witness.k == res.k
            if res.k > 3:
                assert admits_normal_k_coloring(g, res.k - 1) is None, name

    def test_palettes_stop_at_one_more_than_the_edges(self):
        # canonical introduction uses at most m colors, so a k_max far above
        # m searches no more palettes than k_max = m + 1 does
        res = chi_n_exact(petersen(), 10**12, deadline=time.monotonic() + 5)
        assert (res.k, res.nodes_per_k) == (5, ((3, 90), (4, 0), (5, 513)))
        assert chi_n_exact(fig4_graph(), 10**12, deadline=time.monotonic() + 5) is None

    def test_three_colorable_corpus_members_have_index_three(self):
        for name, g in (("k33", k33()), ("k4", k4()), ("ring2", ring_of_diamonds(2))):
            assert chi_n_exact(g, 7).k == 3, name

    def test_k_max_exceeded_returns_none(self):
        assert chi_n_exact(petersen(), 4) is None
        assert chi_n_exact(triangle_replace_all(petersen()), 4) is None
        assert chi_n_exact(counterexample_family(1), 4) is None
        assert chi_n_exact(fig3_graph(), 6) is None

    def test_disjoint_union_of_k4_and_petersen(self):
        k, p = k4(), petersen()
        g = build_graph(k.n + p.n, list(k.edges) + [(u + k.n, v + k.n) for u, v in p.edges])
        res = chi_n_exact(g, 7)
        assert res.k == 5
        assert is_normal(g, res.witness).ok
        assert len(set(res.witness.colors)) == 5
        # K4's triangle contracts; the union has no 2-edge cut to split
        assert res.settled_by == ((3, "triangle"), (4, "lemma-A"), (5, "triangle"))

    def test_k4_contracts_to_a_triple_edge_and_stays_three(self):
        gq, _emap = contract_triangle(k4(), (0, 1, 2))
        assert gq.n == 2 and gq.multiplicity(0, 1) == 3
        res = chi_n_exact(k4(), 7)
        assert res.k == 3 and res.settled_by == ((3, "triangle"),)
        assert is_normal(k4(), res.witness).ok

    def test_two_cut_sides_merge(self):
        res = chi_n_exact(counterexample_family(2), 7)
        assert res.k == 5
        assert res.settled_by == ((3, "2-cut"), (4, "lemma-A"), (5, "2-cut"))
        assert is_normal(counterexample_family(2), res.witness).ok

    def test_long_chains_of_two_edge_cuts_split_in_halves(self):
        # 2,000 vertices: after the triangle round, one class of 500 2-edge
        # cuts; splitting it off one link at a time would nest 500 levels
        g = ring_of_diamonds(500)
        res = chi_n_exact(g, 7)
        assert res.k == 3 and res.settled_by == ((3, "triangle"),)
        assert is_normal(g, res.witness).ok

    def test_a_chain_of_distinct_cut_classes_is_cut_in_one_pass(self, monkeypatch):
        # 600 rungs, 599 classes of one 2-edge cut each: one DFS finds them
        # all and cuts the ladder into its 600 rungs at once
        calls = []
        real = graph._cycle_space

        def counted(g):
            calls.append(g.n)
            return real(g)

        monkeypatch.setattr(graph, "_cycle_space", counted)
        g = ladder(600)
        res = chi_n_exact(g, 7)
        assert res.k == 3 and res.settled_by == ((3, "2-cut"),)
        assert is_normal(g, res.witness).ok
        assert calls == [1200]

    def test_reductions_do_not_nest_python_calls(self, monkeypatch):
        # triangle rounds run in a loop and the 2-cut pieces one after
        # another, so every search runs at one stack depth, for one round
        # or three, and for two pieces or six hundred
        depths = []
        real = coloring.normal_coloring_search

        def traced(*args, **kwargs):
            depths.append(len(inspect.stack(0)))
            return real(*args, **kwargs)

        monkeypatch.setattr(coloring, "normal_coloring_search", traced)
        for g in (triangle_replace_all(k4()), triangle_replace_all(triangle_replace_all(k4()))):
            assert chi_n_exact(g, 7).settled_by == ((3, "triangle"),)
        for g in (ladder(2), ladder(600)):
            assert chi_n_exact(g, 7).settled_by == ((3, "2-cut"),)
        assert len(depths) == 2 + 2 + 600
        assert depths[0] == depths[1] and depths[2] == depths[-1]

    def test_each_triangle_contracted_once(self, monkeypatch):
        calls = []
        real = coloring._contract_triangles

        def counted(g, tris):
            calls.append(tris)
            return real(g, tris)

        monkeypatch.setattr(coloring, "_contract_triangles", counted)
        res = chi_n_exact(triangle_replace_all(petersen()), 7)
        assert res.k == 5
        # the ten disjoint triangles, contracted together in one pass
        assert len(calls) == 1 and len(calls[0]) == 10

    def test_deadline_checked_on_entry_and_at_every_reduction_step(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("searched after the deadline")

        monkeypatch.setattr(coloring, "normal_coloring_search", no_search)
        g = triangle_replace_all(triangle_replace_all(k4()))
        with pytest.raises(SearchTimeout):
            chi_n_exact(g, 7, deadline=time.monotonic() - 1)
        # three rounds of contractions (12 triangles, then 4, then 1) come
        # before any search; the deadline passes during the second
        real = coloring._contract_triangles

        def slow(g, tris):
            time.sleep(0.05)
            return real(g, tris)

        monkeypatch.setattr(coloring, "_contract_triangles", slow)
        with pytest.raises(SearchTimeout):
            chi_n_exact(g, 7, deadline=time.monotonic() + 0.07)

    def test_multigraph_flagged(self):
        res = chi_n_exact(k23(), 7)
        assert res is not None and res.multigraph

    def test_decision_version_refuses_non_cubic_graphs(self):
        c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(InputError):
            admits_normal_k_coloring(c4, 3)
        with pytest.raises(InputError):
            admits_normal_k_coloring(build_graph(2, [(0, 0), (0, 1), (1, 1)]), 3)

    def test_decision_version_checks_its_witness(self, monkeypatch):
        monkeypatch.setattr(coloring, "is_normal", lambda g, c: coloring.NormalVerdict(False, (0,)))
        with pytest.raises(NcflowError):
            admits_normal_k_coloring(k33(), 3)


# chi_n_exact(g, 7) on the pure-Python kernel: node counts per palette, the
# lemmas that settled the others, and the witness, which the search order
# and the fixed order of the reductions fix exactly
CHI_N_GOLDEN = [
    (
        "petersen",
        petersen,
        ((3, 90), (4, 0), (5, 513)),
        ((4, "lemma-A"),),
        (1, 2, 4, 3, 5, 3, 1, 4, 5, 2, 4, 3, 5, 1, 2),
    ),
    (
        "k23_with_p10v",
        k23_with_p10v,
        ((3, 90), (4, 0), (5, 558)),
        ((4, "lemma-A"),),
        (1, 2, 4, 4, 5, 2, 3, 1, 4, 3, 5, 1, 1, 2, 4, 4, 5, 2, 3, 1, 4, 3, 5, 1, 5, 3, 2),
    ),
    (
        "counterexample_family(1)",
        lambda: counterexample_family(1),
        ((3, 276), (4, 0), (5, 1524)),
        ((3, "2-cut"), (4, "lemma-A"), (5, "2-cut")),
        (1, 2, 4, 3, 4, 5, 2, 3, 1, 2, 4, 3, 5, 1, 1, 2, 5, 3, 5, 4, 2, 3, 1, 2, 5, 3,
         4, 1, 2, 4, 3, 5, 3, 1, 4, 5, 2, 4, 3, 5, 1, 2, 5, 4, 4, 1, 1, 5, 1, 5, 4),
    ),
    (
        "fig3",
        fig3_graph,
        ((3, 6), (4, 0), (5, 71), (6, 75), (7, 219)),
        ((3, "triangle"), (4, "lemma-A")),
        (1, 2, 4, 6, 5, 7, 3, 1, 2, 4, 6, 5, 7, 3, 3),
    ),
    (
        "triangle_replace_all(petersen)",
        lambda: triangle_replace_all(petersen()),
        ((3, 90), (4, 0), (5, 513)),
        ((3, "triangle"), (4, "lemma-A"), (5, "triangle")),
        (1, 2, 4, 3, 5, 3, 1, 4, 5, 2, 4, 3, 5, 1, 2, 4, 5, 1, 3, 2, 1, 5, 4, 2, 1, 3,
         4, 2, 5, 3, 4, 2, 3, 3, 5, 4, 5, 1, 3, 1, 2, 5, 2, 4, 1),
    ),
]


@pytest.mark.parametrize("name,build,trail,settled_by,witness", CHI_N_GOLDEN, ids=[c[0] for c in CHI_N_GOLDEN])
def test_pure_python_kernel_golden(monkeypatch, name, build, trail, settled_by, witness):
    monkeypatch.setattr(coloring, "normal_coloring_search", _kernels_py.normal_coloring_search)
    res = chi_n_exact(build(), 7)
    assert res.nodes_per_k == trail
    assert res.settled_by == settled_by
    assert res.k == trail[-1][0]
    assert res.witness.colors == witness


class TestWhatTheClosedStarOrderOpens:
    """Searches that the closed-star edge order answers at once, on both
    backends.  In breadth-first order over the line graph the search on
    each permutation graph below ran past 20 s, and the one at k = 5 on
    `counterexample_family(2)` took 557,887 nodes."""

    @pytest.fixture(params=["python", "c"])
    def kernel(self, request, monkeypatch):
        impl = _kernels_py if request.param == "python" else request.getfixturevalue("compiled")
        monkeypatch.setattr(coloring, "normal_coloring_search", impl.normal_coloring_search)
        return impl

    @pytest.mark.parametrize("seed,nodes", [(0, 13023), (1, 1175), (2, 13871)])
    def test_seeded_100_vertex_permutation_graphs_at_k5(self, kernel, seed, nodes):
        sigma = list(range(50))
        random.Random(seed).shuffle(sigma)
        g = permutation_graph(sigma)
        assert admits_normal_k_coloring(g, 5, deadline=time.monotonic() + 1) is not None
        eu, ev = [a for a, _ in g.edges], [b for _, b in g.edges]
        assert kernel.normal_coloring_search(g.n, eu, ev, 5)[1:] == (nodes, (nodes,))

    def test_chi_n_of_counterexample_family_2(self, kernel):
        res = chi_n_exact(counterexample_family(2), 7, deadline=time.monotonic() + 1)
        assert res.k == 5 and not res.multigraph
        assert res.nodes_per_k == ((3, 552), (4, 0), (5, 3048))
        assert res.settled_by == ((3, "2-cut"), (4, "lemma-A"), (5, "2-cut"))
        g = counterexample_family(2)
        eu, ev = [a for a, _ in g.edges], [b for _, b in g.edges]
        assert kernel.normal_coloring_search(g.n, eu, ev, 5)[1] == 2778


def oracle_chi_n(g, k_max=7):
    """The smallest k <= k_max with a normal k-coloring, one plain
    single-palette search per k (no lemma, no reduction)."""
    for k in range(3, k_max + 1):
        if admits_normal_k_coloring(g, k) is not None:
            return k
    return None


def assert_agrees_with_oracle(g, label):
    res = chi_n_exact(g, 7)
    expected = oracle_chi_n(g)
    if expected is None:
        assert res is None, label
        return
    assert res is not None and res.k == expected, label
    assert res.witness.k == res.k, label
    assert is_normal(g, res.witness).ok, label
    assert len(set(res.witness.colors)) == res.k, label
    assert [k for k, _n in res.nodes_per_k] == list(range(3, res.k + 1)), label


# subdivided pairs joined by a bridge where contracting the disjoint
# triangles raises chi'_N (6 -> 7, 6 -> no normal coloring, 7 -> none), so
# chi_n_exact must search G itself after the reduction fails
BRIDGED_PAIRS = [
    ("prism4:0|tri-k4:0", lambda: bridged_pair(prism(4), 0, triangle_replace_all(k4()), 0), 6),
    ("tri-k4:0|tri-k4:0", lambda: bridged_pair(triangle_replace_all(k4()), 0, triangle_replace_all(k4()), 0), 6),
    ("prism3:6|prism3:6", lambda: bridged_pair(prism(3), 6, prism(3), 6), 6),
    ("k4:0|k4:0", lambda: bridged_pair(k4(), 0, k4(), 0), 7),
]


class TestChiNOracle:
    def test_chi_n_snarks_corpus(self):
        corpus = chi_n_snarks_corpus()
        assert len(corpus) == 123
        values = []
        for name, g in corpus:
            assert_agrees_with_oracle(g, name)
            values.append(chi_n_exact(g, 7).k)
        assert values.count(5) == 122 and values[-1] == 7

    def test_counterexample_family(self):
        assert_agrees_with_oracle(counterexample_family(1), "counterexample_family(1)")

    @pytest.mark.parametrize("name,build,value", BRIDGED_PAIRS, ids=[c[0] for c in BRIDGED_PAIRS])
    def test_reductions_that_raise_the_index_fall_back(self, name, build, value):
        g = build()
        gq, _emap = coloring._contract_triangles(g, coloring._disjoint_triangles(g))
        reduced = oracle_chi_n(gq)
        assert reduced is None or reduced > value
        assert oracle_chi_n(g) == value
        assert_agrees_with_oracle(g, name)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(spliced_cubic_graph())
    def test_spliced_graphs(self, g):
        assert_agrees_with_oracle(g, g.edges)


class TestStructuralAbnormality:
    def test_fig4_witness(self):
        g = fig4_graph()
        w = structural_abnormality(g)
        assert w is not None
        u, v = g.endpoints(w.doubled_edges[0])
        assert g.endpoints(w.doubled_edges[1]) in ((u, v), (v, u))
        assert g.multiplicity(u, v) == 2
        # the two remaining edges share a vertex
        assert set(g.endpoints(w.third_edge_u)) & set(g.endpoints(w.third_edge_v))
        # and indeed no normal coloring exists at any reasonable palette size
        assert admits_normal_k_coloring(g, 8) is None

    def test_absent_on_normal_colorable_graphs(self):
        assert structural_abnormality(k23()) is None
        assert structural_abnormality(petersen()) is None


class TestColoringFromFlow:
    def _cases(self):
        for name, g in small_corpus():
            if is_isomorphic_to_petersen(g):
                continue
            for f in enumerate_perfect_matchings(g):
                theta = find_nonconflicting_flow(g, f)
                if theta is not None:
                    yield name, g, f, theta
                    break

    def test_invariants(self):
        checked = 0
        for name, g, f, theta in self._cases():
            tf = complement_two_factor(g, f)
            h = contract_two_factor(g, tf)
            res = coloring_from_flow(g, f, tf, theta)
            c = res.coloring
            assert c.k == 6
            assert is_normal(g, c).ok, name
            fset = f.as_set()
            for e in range(g.m):
                if e in fset:
                    assert c.colors[e] in {1, 2}, name
                else:
                    assert c.colors[e] in {3, 4, 5, 6}, name
                assert classify_edge(g, c, e).kind in (POOR, RICH), name
            # the intermediate 3-bit flow witnesses the matching structure
            assert verify_z2cubed_flow(g, res.mu)
            assert verify_conjecture4_witness(g, res.mu, ALPHA, BETA), name
            checked += 1
        assert checked >= 8

    def test_conflicting_flow_rejected(self):
        from ncflow.flows import FlowAssignment, conflicts

        g = petersen()
        f = next(enumerate_perfect_matchings(g))
        tf = complement_two_factor(g, f)
        h = contract_two_factor(g, tf)
        theta = next(nz_flows(h))
        assert not conflicts(g, f, tf, theta).is_empty()
        with pytest.raises(InputError):
            coloring_from_flow(g, f, tf, theta)


class TestZ2CubedColoring:
    def test_seven_coloring_on_bridgeless_corpus(self):
        for name, g in small_corpus():
            mu, c = z2cubed_flow_coloring(g)
            assert verify_z2cubed_flow(g, mu), name
            assert c.k == 7
            assert is_normal(g, c).ok, name

    def test_bridge_rejected(self):
        with pytest.raises(InputError):
            z2cubed_flow_coloring(fig3_graph())

    def test_degenerate_witness_pair(self):
        # x == y: the witness conditions degrade to "x-edges form an induced
        # matching", which an all-distinct star never satisfies in a cubic graph
        g = k4()
        mu, _c = z2cubed_flow_coloring(g)
        for x in set(mu.values):
            assert not verify_conjecture4_witness(g, mu, x, x)

    def test_invalid_flow_rejected(self):
        g = k4()
        with pytest.raises(InputError):
            verify_conjecture4_witness(g, Z2CubedFlow((1,) * 6), ALPHA, BETA)


class TestTwoCutReduction:
    def _glued(self):
        g1 = ring_of_diamonds(2)
        g2 = triangle_replace_all(k4())
        return glue_two_cut(g1, 2, g2, 0)

    def test_split_round_trip(self):
        g, cut = self._glued()
        split = split_two_cut(g, cut)
        assert split.g1.n + split.g2.n == g.n
        assert split.g1.m + split.g2.m == g.m  # two cut edges -> two h-edges
        for eid in range(g.m):
            if eid in cut:
                continue
            s, se = split.edge_to_side[eid]
            side_g = split.g1 if s == 1 else split.g2
            assert side_g.endpoints(se)  # maps to a real edge

    def test_non_cut_pair_rejected(self):
        g = petersen()
        with pytest.raises(InputError):
            split_two_cut(g, (0, 7))

    def test_lift_preserves_normality(self):
        g, cut = self._glued()
        split = split_two_cut(g, cut)
        r1 = chi_n_exact(split.g1, 7)
        r2 = chi_n_exact(split.g2, 7)
        k = max(r1.k, r2.k, 4)
        c1 = admits_normal_k_coloring(split.g1, k)
        c2 = admits_normal_k_coloring(split.g2, k)
        merged = lift_over_2_cut(g, cut, c1, c2, split)
        assert is_normal(g, merged).ok
        assert merged.colors[cut[0]] == merged.colors[cut[1]]

    def test_lift_requires_normal_sides(self):
        g, cut = self._glued()
        split = split_two_cut(g, cut)
        c1 = admits_normal_k_coloring(split.g1, 5)
        bad = EdgeColoring(tuple([0] * split.g2.m), 5)
        with pytest.raises(InputError):
            lift_over_2_cut(g, cut, c1, bad, split)


    def test_the_gluing_rule_on_glued_pairs(self):
        # every ordered pair of bases glued at two edge pairs, each side
        # colored with 3 colors when it can be and with up to 5, and the
        # second side's palette rotated five ways: the rule gives a normal
        # coloring whose cut edges take the first side's replacement edge
        # color, with as many colors as the side with more
        bases = (k4, k33, lambda: prism(3), lambda: prism(4), lambda: prism(5), petersen,
                 lambda: triangle_replace_all(k4()))
        checked = 0
        for b1, b2 in itertools.product(bases, repeat=2):
            for e1, e2 in ((0, 0), (1, 2)):
                g, cut = glue_two_cut(b1(), e1, b2(), e2)
                split = split_two_cut(g, cut)
                sides = [
                    [c for c in (admits_normal_k_coloring(h, k) for k in (3, 5)) if c is not None]
                    for h in (split.g1, split.g2)
                ]
                for c1, c2 in itertools.product(*sides):
                    for shift in range(5):
                        turned = EdgeColoring(tuple((x - 1 + shift) % c2.k + 1 for x in c2.colors), c2.k)
                        merged = lift_over_2_cut(g, cut, c1, turned, split)
                        assert is_normal(g, merged).ok
                        assert merged.colors[cut[0]] == merged.colors[cut[1]] == c1.colors[split.h1]
                        assert len(set(merged.colors)) == max(len(set(c1.colors)), len(set(c2.colors)))
                        checked += 1
        assert checked > 1000

    def test_hub_graphs_agree_with_the_oracle(self):
        for r in range(3, 9):
            assert_agrees_with_oracle(hub_graph(r), f"hub_graph({r})")

    def test_one_cycle_space_pass_per_hub_graph(self, monkeypatch):
        # every 2-edge cut of G is found by one DFS, and the pieces have none
        calls = []
        real = graph._cycle_space

        def counted(g):
            calls.append(g.n)
            return real(g)

        monkeypatch.setattr(graph, "_cycle_space", counted)
        for r in (3, 4, 10, 100):
            calls.clear()
            res = chi_n_exact(hub_graph(r), 7)
            assert res.k == 3 and len(calls) == 1, r


class TestTriangleReduction:
    def test_contract_recovers_base(self):
        g = replace_vertex_with_triangle(k4(), 0)
        # locate the new triangle: three mutually adjacent vertices
        tris = [
            t
            for t in itertools.combinations(range(g.n), 3)
            if all(g.multiplicity(a, b) == 1 for a, b in itertools.combinations(t, 2))
        ]
        assert tris
        gq, emap = contract_triangle(g, tris[0])
        assert gq.n == g.n - 2
        assert gq.m == g.m - 3
        assert sorted(emap.values()) == sorted(
            e
            for e in range(g.m)
            if not set(g.endpoints(e)) <= set(tris[0])
        )

    def test_lift_is_normal_and_t_edges_poor(self):
        g = replace_vertex_with_triangle(k4(), 0)
        tris = [
            t
            for t in itertools.combinations(range(g.n), 3)
            if all(g.multiplicity(a, b) == 1 for a, b in itertools.combinations(t, 2))
        ]
        tri = tris[0]
        gq, emap = contract_triangle(g, tri)
        qc = admits_normal_k_coloring(gq, chi_n_exact(gq, 7).k)
        lifted = lift_over_triangle(g, tri, qc)
        assert is_normal(g, lifted).ok
        ts = set(tri)
        for eid, (u, v) in enumerate(g.edges):
            if u in ts and v in ts:
                assert classify_edge(g, lifted, eid).kind == POOR
        # quotient colors are preserved off the triangle
        for qe, ge in emap.items():
            assert lifted.colors[ge] == qc.colors[qe]

    def test_multiedge_triangle_rejected(self):
        g = k23()
        with pytest.raises(InputError):
            contract_triangle(g, (0, 1, 1))


class TestLiftChecks:
    """Each lifted coloring is checked for properness once, on G, and a lift
    that fails its check raises NcflowError, not the InputError of bad input."""

    def _triangle_case(self):
        g = replace_vertex_with_triangle(k4(), 0)
        tri = next(
            t
            for t in itertools.combinations(range(g.n), 3)
            if all(g.multiplicity(a, b) == 1 for a, b in itertools.combinations(t, 2))
        )
        gq, emap = contract_triangle(g, tri)
        return g, tri, emap, admits_normal_k_coloring(gq, chi_n_exact(gq, 7).k)

    def _two_cut_case(self):
        g, cut = glue_two_cut(ring_of_diamonds(2), 2, triangle_replace_all(k4()), 0)
        split = split_two_cut(g, cut)
        c1 = admits_normal_k_coloring(split.g1, 5)
        c2 = admits_normal_k_coloring(split.g2, 5)
        return g, cut, split, c1, c2

    def _proper_calls_on(self, monkeypatch, g):
        """The colorings `is_proper` is asked about on g itself."""
        calls = []
        real = coloring.is_proper

        def counted(graph, c):
            if graph is g:
                calls.append(c.colors)
            return real(graph, c)

        monkeypatch.setattr(coloring, "is_proper", counted)
        return calls

    def test_triangle_lift_checks_properness_once(self, monkeypatch):
        g, tri, _emap, qc = self._triangle_case()
        calls = self._proper_calls_on(monkeypatch, g)
        lifted = lift_over_triangle(g, tri, qc)
        assert calls == [lifted.colors]

    def test_broken_triangle_lift_is_ncflow_error(self, monkeypatch):
        g, tri, emap, qc = self._triangle_case()
        # two quotient edges sent to one edge of G leave another uncolored
        q0, q1 = sorted(emap)[:2]
        broken = dict(emap)
        broken[q0] = emap[q1]
        real = coloring._contract_triangles
        monkeypatch.setattr(coloring, "_contract_triangles", lambda g, tris: (real(g, tris)[0], broken))
        calls = self._proper_calls_on(monkeypatch, g)
        with pytest.raises(NcflowError, match="triangle lift"):
            lift_over_triangle(g, tri, qc)
        assert len(calls) == 1

    def test_two_cut_lift_checks_properness_once(self, monkeypatch):
        g, cut, split, c1, c2 = self._two_cut_case()
        calls = self._proper_calls_on(monkeypatch, g)
        merged = lift_over_2_cut(g, cut, c1, c2, split)
        assert calls == [merged.colors]

    def test_broken_two_cut_lift_is_ncflow_error(self, monkeypatch):
        g, cut, split, c1, c2 = self._two_cut_case()
        # two edges of G at one vertex read the same side edge, so the
        # glued coloring gives them one color
        v = next(v for v in range(g.n) if not set(g.incident(v)) & set(cut))
        e, e2 = g.incident(v)[:2]
        broken = dict(split.edge_to_side)
        broken[e2] = broken[e]
        calls = self._proper_calls_on(monkeypatch, g)
        with pytest.raises(NcflowError, match="2-cut gluing"):
            lift_over_2_cut(g, cut, c1, c2, dataclasses.replace(split, edge_to_side=broken))
        assert len(calls) == 1


class TestHColoring:
    def test_k33_maps_to_k4(self):
        phi = h_coloring(k33(), k4())
        assert phi is not None
        assert verify_h_coloring(k33(), k4(), phi)

    def test_petersen_maps_to_itself(self):
        g = petersen()
        phi = h_coloring(g, g)
        assert phi is not None
        assert verify_h_coloring(g, g, phi)

    def test_petersen_coloring_iff_normal_five(self, corpus16):
        checked = 0
        p10 = petersen()
        for name, g in corpus16:
            if g.n > 16 or not g.is_simple():
                continue
            has_phi = h_coloring(g, p10) is not None
            has_n5 = admits_normal_k_coloring(g, 5) is not None
            assert has_phi == has_n5, name
            checked += 1
        assert checked >= 10

    def test_verify_rejects_bad_map(self):
        g = k33()
        phi = h_coloring(g, k4())
        bad = dict(phi)
        bad[0] = (phi[0] + 1) % 6
        assert not verify_h_coloring(g, k4(), bad)

    def test_non_cubic_rejected(self):
        with pytest.raises(InputError):
            h_coloring(diamond(), k4())

    def test_a_search_deeper_than_the_recursion_limit_answers(self):
        # 1,400 depths, one per vertex, walked in a loop
        g = prism(700)
        phi = h_coloring(g, k4())
        assert phi is not None and verify_h_coloring(g, k4(), phi)


class TestDeepPurePythonColoringSearch:
    """The pure-Python coloring kernel walks its depths in a loop, as the C
    kernel does, so a search deeper than the interpreter's recursion limit
    answers as C does, nodes included."""

    def test_the_kernel(self, compiled):
        g = prism(700)
        eu, ev = [a for a, _ in g.edges], [b for _, b in g.edges]
        found = _kernels_py.normal_coloring_search(g.n, eu, ev, 5)
        assert found == compiled.normal_coloring_search(g.n, eu, ev, 5)
        assert found[0] is not None

    def test_chi_n_exact(self, monkeypatch, compiled):
        # the prism piece of this graph has 1,800 edges
        results = []
        for impl in (_kernels_py, compiled):
            monkeypatch.setattr(coloring, "normal_coloring_search", impl.normal_coloring_search)
            results.append(chi_n_exact(hub_graph(600), 7))
        assert results[0] == results[1]
        assert results[0].k == 3
