"""Graph model: construction, bridges, girth, contraction, cuts, isomorphism."""

import hashlib
import itertools
import json
import random

import networkx as nx
import pytest
from hypothesis import given, settings

from ncflow.errors import ContractError, InputError
from ncflow.generators import (
    counterexample_family,
    diamond,
    fig3_graph,
    fig4_graph,
    k4,
    k23,
    k33,
    permutation_graph,
    petersen,
    replace_edge_with_string,
    ring_of_diamonds,
)
from ncflow.graph import (
    Pseudograph,
    bridges,
    build_graph,
    connected_components,
    contract_two_factor,
    girth,
    is_claw_free,
    is_connected,
    is_cubic,
    is_isomorphic_to_petersen,
    three_edge_cuts,
    _cut_classes,
    _cycle_space,
    _two_cut_pieces,
)
from ncflow.matchings import Cycle, PerfectMatching, TwoFactor, complement_two_factor, enumerate_perfect_matchings

from conftest import (
    chords,
    claw_free_corpus,
    hub_graph,
    k4_with_doubled_diagonal,
    ladder,
    small_corpus,
    spliced_cubic_graph,
)


def to_nx(g: Pseudograph) -> nx.MultiGraph:
    M = nx.MultiGraph()
    M.add_nodes_from(range(g.n))
    for u, v in g.edges:
        M.add_edge(u, v)
    return M


class TestBuild:
    def test_edge_ids_are_stable_and_ordered(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.endpoints(0) == (0, 1)
        assert g.endpoints(2) == (0, 2)
        assert g.m == 3

    def test_loop_counts_twice_toward_degree(self):
        g = build_graph(2, [(0, 0), (0, 1)])
        assert g.degree(0) == 3
        assert g.degree(1) == 1
        assert g.is_loop(0) and not g.is_loop(1)

    def test_parallel_edges_are_distinguishable(self):
        g = k23()
        assert g.m == 3
        assert g.multiplicity(0, 1) == 3
        assert sorted(g.incident(0)) == [0, 1, 2]

    def test_endpoint_out_of_range_rejected(self):
        with pytest.raises(InputError):
            build_graph(2, [(0, 2)])

    def test_graphs_share_their_endpoint_pairs(self):
        a = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 1)])
        b = build_graph(3, [(1, 2), (0, 1)])
        assert a.edges[0] is a.edges[3] is b.edges[1]
        assert a.edges[1] is b.edges[0]
        assert a.edges == ((0, 1), (1, 2), (2, 3), (0, 1))

    def test_cubic_checks(self):
        assert is_cubic(petersen())
        assert is_cubic(k23())
        assert is_cubic(fig4_graph())
        assert not is_cubic(diamond())


class TestBridges:
    def test_fig3_has_exactly_the_bridge(self):
        assert bridges(fig3_graph()) == [14]

    def test_bridgeless_instances(self):
        for name, g in small_corpus():
            assert bridges(g) == [], name

    def test_parallel_pair_is_not_a_bridge(self):
        g = build_graph(2, [(0, 1), (0, 1)])
        assert bridges(g) == []

    def test_path_graph_every_edge_bridges(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert bridges(g) == [0, 1, 2]

    def test_agrees_with_networkx_on_simple_corpus(self):
        for name, g in small_corpus():
            if not g.is_simple():
                continue
            nx_bridges = set(nx.bridges(nx.Graph(to_nx(g))))
            mine = {tuple(sorted(g.endpoints(e))) for e in bridges(g)}
            assert mine == {tuple(sorted(b)) for b in nx_bridges}, name

    def test_agrees_with_edge_removal_on_random_multigraphs(self):
        # loops, parallel edges, isolated vertices and several components
        rng = random.Random(2027)
        for _ in range(400):
            n = rng.randrange(1, 10)
            g = build_graph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(2 * n + 2))])
            base = len(connected_components(g))
            expect = [e for e in range(g.m)
                      if not g.is_loop(e) and len(connected_components(g, frozenset({e}))) > base]
            assert bridges(g) == expect, g.edges

    def test_bridgeless_iff_every_edge_on_cycle(self):
        # cross-check on instances <= 20 vertices: an edge is on a cycle iff
        # its endpoints stay connected after removing it
        for g in (fig3_graph(), petersen(), ring_of_diamonds(2)):
            bset = set(bridges(g))
            for eid in range(g.m):
                u, v = g.endpoints(eid)
                if u == v:
                    continue
                comps = connected_components(g, frozenset({eid}))
                still = any(u in c and v in c for c in comps)
                assert (eid in bset) == (not still)


class TestGirth:
    def test_known_values(self):
        assert girth(petersen()) == 5
        assert girth(k4()) == 3
        assert girth(k33()) == 4
        assert girth(k23()) == 2

    def test_loop_is_girth_one(self):
        assert girth(build_graph(1, [(0, 0)])) == 1

    def test_forest_is_infinite(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert girth(g) == float("inf")


class TestContraction:
    def test_petersen_quotient_shape(self):
        g = petersen()
        f = next(enumerate_perfect_matchings(g))
        tf = complement_two_factor(g, f)
        h = contract_two_factor(g, tf)
        assert h.quotient.n == 2
        assert h.quotient.m == 5
        assert all(u != v for u, v in h.quotient.edges)

    def test_edge_origin_is_a_bijection_onto_the_matching(self):
        for name, g in small_corpus():
            f = next(enumerate_perfect_matchings(g))
            tf = complement_two_factor(g, f)
            h = contract_two_factor(g, tf)
            assert sorted(h.edge_origin) == sorted(f.edge_ids), name
            for qe, ge in enumerate(h.edge_origin):
                assert [h.matching_edge_at[v] for v in g.edges[ge]] == [qe, qe]

    def test_degree_sum_invariant(self):
        # sum of quotient degrees (loops twice) = |F| * 2 = |E| - |E(2-factor)| doubled
        for name, g in small_corpus():
            for f in itertools.islice(enumerate_perfect_matchings(g), 3):
                tf = complement_two_factor(g, f)
                h = contract_two_factor(g, tf)
                total = sum(h.quotient.degree(v) for v in range(h.quotient.n))
                assert total == 2 * (g.m - len(tf.edge_ids())), name

    def test_chords_become_loops(self):
        g = ring_of_diamonds(2)
        f = PerfectMatching((0, 4, 5, 9))  # complement is one 8-cycle, 4 chords
        tf = complement_two_factor(g, f)
        assert chords(g, tf) == (0, 4, 5, 9)
        h = contract_two_factor(g, tf)
        assert h.quotient.n == 1
        assert all(u == v for u, v in h.quotient.edges)

    def test_refuses_a_two_factor_whose_complement_is_not_a_perfect_matching(self):
        # edges 4 and 6 both end at vertices 0 and 2: the quotient would give
        # each of them two matching edges, and matching_edge_at only one
        g, tf = k4_with_doubled_diagonal()
        with pytest.raises(ContractError):
            contract_two_factor(g, tf)
        # as many edges off the 2-cycles 0=1 and 2=3 as a perfect matching
        # has, but two of them share vertex 0, or one is a loop
        two_cycles = TwoFactor((Cycle((0, 1), (0, 1)), Cycle((2, 3), (2, 3))))
        for off in ([(0, 2), (0, 3)], [(0, 0), (1, 2)]):
            g = build_graph(4, [(0, 1), (0, 1), (2, 3), (2, 3)] + off)
            with pytest.raises(ContractError):
                contract_two_factor(g, two_cycles)

    @pytest.mark.parametrize(
        "cycles",
        [
            [((0, 2, 1), (1, 3, 0)), ((1, 3), (4, 4))],  # both hold vertex 1
            [((0, 2), (1, 1)), ((2, 1), (3, 3))],  # both hold vertex 2, none vertex 3
            [((0, 2, 1), (1, 3, 0))],  # vertex 3 on no cycle
            [((0, 2, 1, 3), (1, 3, 4, -1))],  # no edge -1
            [((0, 2, 1, 3), (1, 3, 4, 6))],  # no edge m
            [((0, 2, 1, 3), (1, 3, 4))],  # edges 0, 2 and 5 left off, two at vertex 0
        ],
    )
    def test_each_kind_of_bad_two_factor_raises_contract_error(self, cycles):
        # in k4(), F = (0, 5) leaves the 2-factor 0-2-1-3 on edges 1, 3, 4, 2
        tf = TwoFactor(tuple(Cycle(vs, es) for vs, es in cycles))
        with pytest.raises(ContractError) as info:
            contract_two_factor(k4(), tf)
        assert info.type is ContractError

    def test_girth_monotone_under_contraction(self):
        for name, g in small_corpus():
            f = next(enumerate_perfect_matchings(g))
            tf = complement_two_factor(g, f)
            q = contract_two_factor(g, tf).quotient
            if q.m and girth(q) != float("inf"):
                assert girth(q) <= girth(g), name


def brute_force_three_edge_cuts(g: Pseudograph):
    """Reference: a triple is a cut when some bipartition of the components
    of G - T has all three edges crossing (C(m,3) component scans)."""
    cuts = []
    for trip in itertools.combinations(range(g.m), 3):
        if any(g.is_loop(e) for e in trip):
            continue
        comps = connected_components(g, frozenset(trip))
        if len(comps) < 2:
            continue
        comp_of = {}
        for ci, comp in enumerate(comps):
            for v in comp:
                comp_of[v] = ci
        ends = [(comp_of[g.endpoints(e)[0]], comp_of[g.endpoints(e)[1]]) for e in trip]
        if any(a == b for a, b in ends):
            continue
        k = len(comps)
        for mask in range(1, 1 << (k - 1)):
            if all((mask >> a & 1) != (mask >> b & 1) for a, b in ends):
                cuts.append(trip)
                break
    return cuts


def random_connected_cubic_multigraph(n: int, rng: random.Random) -> Pseudograph:
    """Configuration model (loops and parallel edges kept), redrawn until connected."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        g = build_graph(n, zip(stubs[::2], stubs[1::2]))
        if is_connected(g):
            return g


class TestThreeEdgeCuts:
    def test_agrees_with_brute_force_on_acceptance_7_graphs(self):
        for g in claw_free_corpus():
            assert three_edge_cuts(g) == brute_force_three_edge_cuts(g), g

    def test_agrees_with_brute_force_on_a_bridged_graph(self):
        g = fig3_graph()
        assert bridges(g)
        assert three_edge_cuts(g) == brute_force_three_edge_cuts(g)

    def test_agrees_with_brute_force_on_random_multigraphs(self):
        rng = random.Random(2024)
        graphs = [random_connected_cubic_multigraph(rng.choice((2, 4, 6, 8, 10, 12)), rng)
                  for _ in range(120)]
        assert any(not g.is_simple() for g in graphs)
        assert any(any(g.is_loop(e) for e in range(g.m)) for g in graphs)
        for g in graphs:
            assert three_edge_cuts(g) == brute_force_three_edge_cuts(g), g.edges

    def test_loops_lie_in_no_cut(self):
        # vertex 0 carries a loop, so its star is not a boundary
        g = build_graph(4, [(0, 0), (0, 1), (1, 2), (1, 3), (2, 3), (2, 3)])
        cuts = three_edge_cuts(g)
        assert cuts == brute_force_three_edge_cuts(g)
        assert all(0 not in cut for cut in cuts)

    def test_disconnected_graph_rejected(self):
        with pytest.raises(InputError):
            three_edge_cuts(build_graph(4, [(0, 1), (0, 1), (0, 1), (2, 3), (2, 3), (2, 3)]))

    def test_petersen_only_trivial_cuts(self):
        g = petersen()
        cuts = three_edge_cuts(g)
        assert len(cuts) == 10
        for cut in cuts:
            stars = [frozenset(g.incident(v)) for v in range(g.n)]
            assert frozenset(cut) in stars

    def test_k4_cuts_are_the_stars(self):
        assert len(three_edge_cuts(k4())) == 4

    def test_ring_has_nontrivial_cuts(self):
        g = ring_of_diamonds(2)
        cuts = three_edge_cuts(g)
        stars = {frozenset(g.incident(v)) for v in range(g.n)}
        nontrivial = [c for c in cuts if frozenset(c) not in stars]
        assert len(cuts) == 12 and len(nontrivial) == 4

    def test_disconnecting_triple_with_internal_edge_is_not_a_cut(self):
        # ring: the 2-cut {10, 11} plus any inside edge disconnects but is no
        # boundary of a vertex set
        g = ring_of_diamonds(2)
        assert len(connected_components(g, frozenset({10, 11, 0}))) > 1
        assert (0, 10, 11) not in three_edge_cuts(g)


    def test_lists_unchanged_on_the_claw_free_sweep_graphs(self):
        # the acceptance-7 graphs and every ring of 2 or 3 diamonds with one
        # edge replaced by a 2-cycle or a diamond; the digest is of the lists
        # three_edge_cuts returned before it shared its DFS with the 2-edge cuts
        graphs = claw_free_corpus()
        for k in (2, 3):
            ring = ring_of_diamonds(k)
            for spec in ("2", "D"):
                graphs += [replace_edge_with_string(ring, eid, spec) for eid in range(ring.m)]
        lists = [three_edge_cuts(g) for g in graphs]
        assert len(graphs) == 85 and sum(map(len, lists)) == 2702
        digest = hashlib.sha256(json.dumps(lists).encode()).hexdigest()
        assert digest == "95d898468900899fbdf82cfa59b304a530023a20e535e24f21892535f5af8b2d"


def brute_force_two_edge_cuts(g: Pseudograph):
    """Reference: pairs of non-bridge edges whose removal adds a component."""
    base = len(connected_components(g))
    bridge_set = set(bridges(g))
    return [
        (a, b)
        for a, b in itertools.combinations(range(g.m), 2)
        if a not in bridge_set and b not in bridge_set
        and len(connected_components(g, frozenset((a, b)))) > base
    ]


def two_edge_cuts(g: Pseudograph):
    return _cut_classes(_cycle_space(g)[0])


def cut_pairs(classes):
    return sorted(pair for cls in classes for pair in itertools.combinations(cls, 2))


class TestTwoEdgeCuts:
    def test_agrees_with_brute_force_on_random_multigraphs(self):
        rng = random.Random(2025)
        graphs = [random_connected_cubic_multigraph(rng.choice((2, 4, 6, 8, 10, 12)), rng)
                  for _ in range(120)]
        graphs += [fig3_graph(), ring_of_diamonds(3), petersen()]
        assert any(two_edge_cuts(g) for g in graphs)
        for g in graphs:
            classes = two_edge_cuts(g)
            assert classes == sorted(classes) and all(len(c) > 1 and list(c) == sorted(c) for c in classes)
            assert cut_pairs(classes) == brute_force_two_edge_cuts(g), g.edges

    def test_a_ring_is_one_class(self):
        # any two of the k links between consecutive diamonds form a 2-edge cut
        g = ring_of_diamonds(4)
        assert [len(c) for c in two_edge_cuts(g)] == [4]

    def test_disconnected_graph_accepted(self):
        # a ring of two diamonds beside K4: the cuts are the ring's alone
        ring = ring_of_diamonds(2)
        g = build_graph(ring.n + 4, list(ring.edges) + [(a + ring.n, b + ring.n) for a, b in k4().edges])
        assert two_edge_cuts(g) == two_edge_cuts(ring)
        assert cut_pairs(two_edge_cuts(g)) == brute_force_two_edge_cuts(g)
        assert two_edge_cuts(ring)

    def test_bridges_and_loops_lie_in_no_class(self):
        g = fig3_graph()
        assert all(14 not in cls for cls in two_edge_cuts(g))
        assert two_edge_cuts(build_graph(2, [(0, 0), (0, 1), (1, 1)])) == []

    def test_petersen_has_none(self):
        assert two_edge_cuts(petersen()) == []


def stub_pairs(g: Pseudograph, cls, same) -> set:
    """The pairs of stubs (ends of the class's edges) that `same` puts together."""
    stubs = sorted({v for e in cls for v in g.endpoints(e)})
    return {(a, b) for a, b in itertools.combinations(stubs, 2) if same(a, b)}


def brute_force_stub_pairs(g: Pseudograph, cls) -> set:
    """Reference: the stubs of a class connected in G minus the class."""
    comp_of = {v: i for i, comp in enumerate(connected_components(g, frozenset(cls))) for v in comp}
    return stub_pairs(g, cls, lambda a, b: comp_of[a] == comp_of[b])


def check_pieces(g: Pseudograph, pieces, classes):
    """`pieces` is g cut at `classes`: they partition V in G's order, keep
    every other edge, gain one virtual edge per class edge, one per ring a
    piece lies on, and put two stubs together iff G minus their class does;
    each class edge runs from a "+" stub to a "-" stub."""
    graphs, piece_of, edge_at, rings = pieces
    assert len(piece_of) == g.n
    assert [piece_of.count(p) for p in range(len(graphs))] == [h.n for h in graphs]
    assert [piece_of.index(p) for p in range(len(graphs))] == sorted({piece_of.index(p) for p in piece_of})
    local, seen = [], [0] * len(graphs)
    for v in range(g.n):
        local.append(seen[piece_of[v]])
        seen[piece_of[v]] += 1
    ring_of = {e: r for r, cls in enumerate(classes) for e in cls}
    for eid, (u, v) in enumerate(g.edges):
        if eid in ring_of:
            assert edge_at[eid] == (-1, ring_of[eid])
        else:
            p, e = edge_at[eid]
            assert piece_of[u] == piece_of[v] == p and graphs[p].edges[e] == (local[u], local[v])
    assert sum(h.m for h in graphs) == g.m
    assert [len(ring) for ring in rings] == [len(cls) for cls in classes]
    at = {(piece_of[v], local[v]): v for v in range(g.n)}
    for cls, ring in zip(classes, rings):
        assert len({p for p, _e in ring}) == len(ring)
        ends = [tuple(at[p, x] for x in graphs[p].edges[e]) for p, e in ring]
        minus, plus = {a for a, _b in ends}, {b for _a, b in ends}
        assert all(len(set(g.endpoints(e)) & minus) == len(set(g.endpoints(e)) & plus) == 1 for e in cls)
        assert stub_pairs(g, cls, lambda a, b: piece_of[a] == piece_of[b]) == brute_force_stub_pairs(g, cls)


def check_all_pieces(g: Pseudograph):
    classes = _cut_classes(_cycle_space(g)[0])
    pieces = _two_cut_pieces(g)
    assert (pieces is None) == (not classes)
    if pieces is None:
        return 0
    check_pieces(g, pieces, classes)
    for h in pieces[0]:
        assert is_cubic(h) and not bridges(h) and not _cut_classes(_cycle_space(h)[0])
    return len(pieces[0])


class TestTwoCutPieces:
    def test_hub_graphs_fall_into_the_prism_and_one_piece_per_rung(self):
        for r in range(3, 9):
            g = hub_graph(r)
            assert check_all_pieces(g) == r + 1
            prism, *digons = _two_cut_pieces(g)[0]
            assert prism.n == 2 * r and all(h.n == 2 for h in digons)
        assert check_all_pieces(hub_graph(40)) == 41

    def test_named_graphs(self):
        for k in range(2, 7):
            assert check_all_pieces(ring_of_diamonds(k)) == k
        for k in range(2, 9):
            assert check_all_pieces(ladder(k)) == k
        # each block is a Petersen graph less an edge, closed up again.  The
        # hubs and path centers make K4 for one hub; for two, the edges at
        # blocks 0 and 3 form one class, whose ring runs through the two
        # hubs' halves and those two blocks
        assert check_all_pieces(counterexample_family(1)) == 4
        assert check_all_pieces(counterexample_family(2)) == 8
        for g in (petersen(), k4()):
            for eid in range(g.m):
                for spec in ("2", "D", "2D"):
                    check_all_pieces(replace_edge_with_string(g, eid, spec))

    def test_random_bridgeless_multigraphs(self):
        rng = random.Random(2026)
        graphs = [random_connected_cubic_multigraph(rng.choice((2, 4, 6, 8, 10, 12, 14)), rng)
                  for _ in range(300)]
        graphs = [g for g in graphs if not bridges(g)]
        counts = list(map(check_all_pieces, graphs))
        assert len(graphs) > 100 and sum(c > 0 for c in counts) > 40

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(spliced_cubic_graph())
    def test_spliced_graphs(self, g):
        if is_connected(g) and not bridges(g):
            check_all_pieces(g)
        else:
            assert _two_cut_pieces(g) is None

    def test_one_cut_of_a_larger_class(self):
        # any two links of a ring of diamonds: the two arcs between them
        g = ring_of_diamonds(4)
        (links,) = _cut_classes(_cycle_space(g)[0])
        for cut in itertools.combinations(links, 2):
            pieces = _two_cut_pieces(g, cut)
            check_pieces(g, pieces, [cut])
            assert len(pieces[0]) == 2

    def test_none_without_a_cut_or_with_a_bridge_or_two_components(self):
        assert _two_cut_pieces(petersen()) is None
        assert _two_cut_pieces(fig3_graph()) is None
        ring = ring_of_diamonds(2)
        both = build_graph(ring.n + 4, list(ring.edges) + [(a + ring.n, b + ring.n) for a, b in k4().edges])
        assert _two_cut_pieces(both) is None
        assert _two_cut_pieces(petersen(), (0, 7)) is None


class TestClawFree:
    def test_known_answers(self):
        assert not is_claw_free(petersen())
        assert not is_claw_free(k33())
        assert is_claw_free(k4())
        assert is_claw_free(ring_of_diamonds(2))
        assert is_claw_free(k23())

    def test_agrees_with_brute_force_oracle(self):
        def oracle(g):
            for quad in itertools.combinations(range(g.n), 4):
                for center in quad:
                    leaves = [x for x in quad if x != center]
                    if any(g.multiplicity(center, x) != 1 for x in leaves):
                        continue
                    if any(g.multiplicity(a, b) for a, b in itertools.combinations(leaves, 2)):
                        continue
                    if any(g.multiplicity(x, x) for x in quad):
                        continue
                    return False
            return True

        for name, g in small_corpus():
            assert is_claw_free(g) == oracle(g), name


class TestPetersenRecognition:
    def test_positive(self):
        assert is_isomorphic_to_petersen(petersen())
        assert is_isomorphic_to_petersen(permutation_graph((0, 2, 4, 1, 3)))

    def test_negative(self):
        assert not is_isomorphic_to_petersen(k33())
        assert not is_isomorphic_to_petersen(permutation_graph((0, 1, 2, 3, 4)))
        # subdividing an edge changes the order
        g = petersen()
        edges = [e for i, e in enumerate(g.edges) if i != 0] + [(0, 10), (10, 11), (11, 1)]
        assert not is_isomorphic_to_petersen(build_graph(12, edges))

    def test_agrees_with_networkx_on_ten_vertex_cubic_graphs(self):
        graphs = [permutation_graph(s) for s in itertools.permutations(range(5))]
        # a ring of five digons, a K4 beside K33, and a vertex with a loop
        graphs.append(build_graph(10, [(i, i + 1) for i in range(0, 10, 2)] * 2
                                  + [(i + 1, (i + 2) % 10) for i in range(0, 10, 2)]))
        graphs.append(build_graph(10, list(itertools.combinations(range(4), 2))
                                  + [(a, b) for a in (4, 5, 6) for b in (7, 8, 9)]))
        graphs.append(build_graph(10, [(0, 0), (0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 5),
                                       (4, 5), (4, 6), (5, 7), (6, 7), (6, 8), (7, 9),
                                       (8, 9), (8, 9)]))
        target = nx.MultiGraph(nx.petersen_graph())
        seen = set()
        for g in graphs:
            assert g.n == 10 and is_cubic(g)
            expected = nx.is_isomorphic(to_nx(g), target)
            assert is_isomorphic_to_petersen(g) == expected, g.edges
            seen.add(expected)
        assert seen == {True, False}


class TestComponents:
    def test_connectivity(self):
        assert is_connected(petersen())
        g = build_graph(4, [(0, 1), (2, 3)])
        assert not is_connected(g)
        assert len(connected_components(g, frozenset())) == 2
