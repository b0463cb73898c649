"""Perfect matchings, complementary 2-factors, and 3-cut-respecting streams."""

import dataclasses
import hashlib
import itertools
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncflow import matchings
from ncflow.errors import ContractError, InputError
from ncflow.generators import (
    counterexample_family,
    fig3_graph,
    k4,
    k23,
    k33,
    petersen,
    ring_of_diamonds,
    triangle_replace_all,
)
from ncflow.graph import build_graph, connected_components, three_edge_cuts
from ncflow.kernels import SearchTimeout
from ncflow.matchings import (
    PerfectMatching,
    TwoFactor,
    complement_two_factor,
    covered_vertices,
    enumerate_perfect_matchings,
    matchings_meeting_all_3cuts_once,
    matchings_through_edge,
    odd_cycle_count,
)

from conftest import (
    chords,
    claw_free_corpus,
    cubic_multigraph_and_matching,
    cubic_without_a_perfect_matching,
    small_corpus,
)


def reference_matchings(g, covered, chosen):
    """Recursive DFS: branch on the lowest uncovered vertex, its edges in id order."""
    v = next((i for i, c in enumerate(covered) if not c), None)
    if v is None:
        yield tuple(sorted(chosen))
        return
    for eid in g.incident(v):
        w = g.other_end(eid, v)
        if g.is_loop(eid) or covered[w]:
            continue
        covered[v] = covered[w] = True
        yield from reference_matchings(g, covered, chosen + [eid])
        covered[v] = covered[w] = False


def reference_complement(g, f):
    """Cycles of G - F by the first unused non-F edge at each vertex, each
    cycle from its lowest vertex: the order complement_two_factor keeps."""
    fs = set(f.edge_ids)
    rem = [[] for _ in range(g.n)]
    for eid, (u, v) in enumerate(g.edges):
        if eid not in fs:
            rem[u].append(eid)
            rem[v].append(eid)
    used = set()
    seen = [False] * g.n
    cycles = []
    for start in range(g.n):
        if seen[start]:
            continue
        verts, edges, v = [start], [], start
        seen[start] = True
        while True:
            eid = next(e for e in rem[v] if e not in used)
            used.add(eid)
            edges.append(eid)
            v = g.other_end(eid, v)
            if v == start:
                break
            verts.append(v)
            seen[v] = True
        cycles.append((tuple(verts), tuple(edges)))
    return cycles


def reference_corpus():
    return small_corpus() + [("cef1", counterexample_family(1))]


class TestEnumeration:
    def test_known_counts(self):
        assert len(list(enumerate_perfect_matchings(petersen()))) == 6
        assert len(list(enumerate_perfect_matchings(k4()))) == 3
        assert len(list(enumerate_perfect_matchings(k23()))) == 3

    def test_odd_order_gives_empty_stream(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert list(enumerate_perfect_matchings(g)) == []

    def test_each_matching_exactly_once_and_valid(self):
        for name, g in small_corpus():
            seen = set()
            for f in enumerate_perfect_matchings(g):
                assert f.edge_ids not in seen, name
                seen.add(f.edge_ids)
                covered = [0] * g.n
                for eid in f.edge_ids:
                    u, v = g.endpoints(eid)
                    covered[u] += 1
                    covered[v] += 1
                assert all(c == 1 for c in covered), name

    def test_deterministic_order(self):
        g = petersen()
        assert list(enumerate_perfect_matchings(g)) == list(enumerate_perfect_matchings(g))

    def test_same_stream_as_recursive_reference(self):
        for name, g in reference_corpus():
            got = [f.edge_ids for f in enumerate_perfect_matchings(g)]
            assert got == list(reference_matchings(g, [False] * g.n, [])), name

    def test_stream_is_lazy(self):
        stream = enumerate_perfect_matchings(petersen())
        first = next(stream)
        assert isinstance(first, PerfectMatching)

    def test_petersen_each_edge_in_two_matchings(self):
        g = petersen()
        count = {e: 0 for e in range(g.m)}
        for f in enumerate_perfect_matchings(g):
            for e in f.edge_ids:
                count[e] += 1
        assert set(count.values()) == {2}


# k4(): edge i joins the i-th pair, so (0, 5), (1, 4) and (2, 3) are its
# perfect matchings
K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


class TestComplement:
    def test_petersen_always_two_five_cycles(self):
        g = petersen()
        for f in enumerate_perfect_matchings(g):
            tf = complement_two_factor(g, f)
            assert sorted(len(c) for c in tf.cycles) == [5, 5]
            assert chords(g, tf) == ()

    def test_k4_one_four_cycle(self):
        g = k4()
        for f in enumerate_perfect_matchings(g):
            tf = complement_two_factor(g, f)
            assert [len(c) for c in tf.cycles] == [4]
            assert chords(g, tf) == f.edge_ids  # both matching edges chord the cycle

    def test_k33_always_even_cycles(self):
        g = k33()
        for f in enumerate_perfect_matchings(g):
            tf = complement_two_factor(g, f)
            assert odd_cycle_count(tf) == 0

    def test_the_contraction_is_taken_by_keyword_only(self):
        # a positional second field, as the removed chord list was, is refused
        tf = complement_two_factor(k4(), next(enumerate_perfect_matchings(k4())))
        with pytest.raises(TypeError):
            TwoFactor(tf.cycles, ())
        assert TwoFactor(tf.cycles, contraction=None) == tf

    def test_k23_two_factor_is_a_2_cycle(self):
        g = k23()
        f = next(enumerate_perfect_matchings(g))
        tf = complement_two_factor(g, f)
        assert [len(c) for c in tf.cycles] == [2]

    def test_partition_invariant(self):
        for name, g in small_corpus():
            for f in itertools.islice(enumerate_perfect_matchings(g), 5):
                tf = complement_two_factor(g, f)
                fac = tf.edge_ids()
                assert fac.isdisjoint(f.as_set()), name
                assert fac | f.as_set() == set(range(g.m)), name
                assert set(chords(g, tf)) <= f.as_set(), name

    def test_cycle_edges_join_consecutive_vertices(self):
        for name, g in small_corpus():
            f = next(enumerate_perfect_matchings(g))
            tf = complement_two_factor(g, f)
            for cyc in tf.cycles:
                k = len(cyc.vertices)
                for i, eid in enumerate(cyc.edges):
                    ends = set(g.endpoints(eid))
                    want = {cyc.vertices[i], cyc.vertices[(i + 1) % k]}
                    assert ends == want or (len(want) == 1 and len(ends) == 2 and k == 2), name

    def test_same_cycles_as_reference(self):
        for name, g in reference_corpus() + [("k23", k23()), ("ring2", ring_of_diamonds(2))]:
            for f in enumerate_perfect_matchings(g):
                tf = complement_two_factor(g, f)
                got = [(cyc.vertices, cyc.edges) for cyc in tf.cycles]
                assert got == reference_complement(g, f), name

    def test_wrong_matching_rejected(self):
        g = petersen()
        with pytest.raises(ContractError):
            complement_two_factor(g, PerfectMatching((0, 1, 2, 3, 4)))
        f = next(enumerate_perfect_matchings(g))
        for bad in (f.edge_ids + f.edge_ids[:1], f.edge_ids[:-1] + (g.m,)):
            with pytest.raises(ContractError):
                complement_two_factor(g, PerfectMatching(bad))

    def test_non_cubic_rejected(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(InputError):
            complement_two_factor(g, PerfectMatching((0,)))

    @pytest.mark.parametrize(
        "edges,ids,error",
        [
            (K4_EDGES, (-1, 5), ContractError),  # no edge -1
            (K4_EDGES, (0, 6), ContractError),  # no edge m
            (K4_EDGES, (0, 0), ContractError),  # an id listed twice
            (K4_EDGES, (0, 1), ContractError),  # both at vertex 0
            (K4_EDGES, (0,), ContractError),  # too few to cover the graph
            ([(0, 0), (0, 1), (1, 1)], (1,), InputError),  # cubic with loops
            ([(0, 1)], (0,), InputError),  # not cubic
        ],
    )
    def test_each_kind_of_bad_input_raises_its_error(self, edges, ids, error):
        g = build_graph(max(max(e) for e in edges) + 1, edges)
        with pytest.raises(InputError) as info:
            complement_two_factor(g, PerfectMatching(ids))
        assert info.type is error


class TestOddCycleCount:
    def test_parity_is_always_even(self):
        for name, g in small_corpus():
            for f in enumerate_perfect_matchings(g):
                tf = complement_two_factor(g, f)
                assert odd_cycle_count(tf) % 2 == 0, name


class TestThroughEdge:
    def test_nonempty_on_bridgeless_corpus(self):
        for name, g in small_corpus():
            for eid in range(g.m):
                assert next(matchings_through_edge(g, eid), None) is not None, (name, eid)

    def test_same_stream_as_recursive_reference(self):
        for name, g in reference_corpus():
            for eid in range(g.m):
                covered = [False] * g.n
                u, v = g.endpoints(eid)
                covered[u] = covered[v] = True
                got = [f.edge_ids for f in matchings_through_edge(g, eid)]
                assert got == list(reference_matchings(g, covered, [eid])), (name, eid)

    def test_fig3_bridge_lies_in_every_matching(self):
        g = fig3_graph()
        all_f = list(enumerate_perfect_matchings(g))
        assert all_f, "the bridge graph still has perfect matchings"
        assert all(14 in f.edge_ids for f in all_f)
        assert list(matchings_through_edge(g, 14)) == all_f

    def test_subset_of_all_matchings(self):
        g = petersen()
        every = set(f.edge_ids for f in enumerate_perfect_matchings(g))
        through = list(matchings_through_edge(g, 0))
        assert len(through) == 2
        assert all(f.edge_ids in every and 0 in f.edge_ids for f in through)


class TestThreeCutRespecting:
    def test_k4_unique_matching_qualifies(self):
        g = k4()
        for eid in range(g.m):
            got = list(matchings_meeting_all_3cuts_once(g, eid))
            assert got == list(matchings_through_edge(g, eid))

    def test_petersen_all_through_matchings_qualify(self):
        g = petersen()
        for eid in range(g.m):
            assert list(matchings_meeting_all_3cuts_once(g, eid)) == list(
                matchings_through_edge(g, eid)
            )

    def test_every_cut_met_exactly_once(self):
        g = triangle_replace_all(k4())
        cuts = three_edge_cuts(g)
        for eid in range(0, g.m, 5):
            for f in matchings_meeting_all_3cuts_once(g, eid, cuts):
                fs = f.as_set()
                assert all(len(fs & set(c)) == 1 for c in cuts)

    def test_nonempty_for_every_edge_of_clawfree_instances(self):
        for g in (ring_of_diamonds(2), triangle_replace_all(k4())):
            cuts = three_edge_cuts(g)
            for eid in range(g.m):
                got = next(matchings_meeting_all_3cuts_once(g, eid, cuts), None)
                assert got is not None, eid

    def test_triangle_stars_met_once(self):
        # every new triangle of a triangle-replacement is a 3-cut, so any
        # respecting matching meets it in exactly one edge
        g = triangle_replace_all(k4())
        for f in matchings_meeting_all_3cuts_once(g, 0):
            fs = f.as_set()
            for v in range(g.n):
                star = set(g.incident(v))
                assert len(fs & star) == 1
            break


def filtered_reference(g, eid, cuts):
    """matchings_through_edge, then keep the matchings meeting every cut in exactly one edge."""
    sets = [frozenset(c) for c in cuts]
    return [f for f in matchings_through_edge(g, eid) if all(len(f.as_set() & c) == 1 for c in sets)]


def assert_pruned_stream_is_filtered(g, cuts, name="", rng=None):
    """Every edge's stream, all through one cut index, against the filter.
    With `rng` the edges come shuffled, and twice, so that a stream meets
    states that the streams before it refuted."""
    order = range(g.m) if rng is None else rng.sample(range(g.m), g.m) * 2
    for eid in order:
        got = list(matchings_meeting_all_3cuts_once(g, eid, cuts))
        assert got == filtered_reference(g, eid, cuts), (name, eid)


class TestPrunedCutStream:
    """The cut-pruned search yields the filtered stream, in the same order."""

    def test_claw_free_corpus(self):
        for g in claw_free_corpus():
            assert_pruned_stream_is_filtered(g, three_edge_cuts(g), repr(g))

    def test_claw_free_streams_are_unchanged(self):
        # the digest of every edge's cut stream over the claw-free corpus,
        # as the search without the look-ahead gave it
        digest = hashlib.sha256()
        count = 0
        for g in claw_free_corpus():
            cuts = three_edge_cuts(g)
            for eid in range(g.m):
                for f in matchings_meeting_all_3cuts_once(g, eid, cuts):
                    digest.update(f"{eid}: {' '.join(map(str, f.edge_ids))}\n".encode())
                    count += 1
        assert count == 6618
        assert digest.hexdigest() == "9d84ec8342a2a31afe2de02f2bb1828a93079d6308a956800467ad8f19572246"

    def test_the_look_ahead_cuts_dead_ends(self):
        # through edge 0 of triangle_replace_all(k4()) every branch the
        # look-ahead lets through yields a matching, so no state is
        # refuted; without it the search walks into dead ends
        g = triangle_replace_all(k4())
        index = matchings._build_index(g, three_edge_cuts(g))
        blind = dataclasses.replace(index, ahead=None, dead=set())
        start = dict(index.partners[g.endpoints(0)[0]])[0]
        stream = list(matchings._match_dfs(index, [0], start, None))
        assert stream and stream == list(matchings._match_dfs(blind, [0], start, None))
        assert not index.dead and blind.dead
        assert matchings._build_index(g, ()).ahead is None  # plain streams do not look ahead

    def test_small_corpus_family_and_fig3(self):
        graphs = small_corpus() + [("cef1", counterexample_family(1)), ("fig3", fig3_graph())]
        for name, g in graphs:
            assert_pruned_stream_is_filtered(g, three_edge_cuts(g), name)

    @settings(max_examples=150, deadline=None)
    @given(cubic_multigraph_and_matching(), st.randoms(use_true_random=False))
    def test_random_connected_cubic_multigraphs(self, gf, rng):
        g, _f = gf
        assume(len(connected_components(g)) == 1)
        assert_pruned_stream_is_filtered(g, three_edge_cuts(g), rng=rng)

    @settings(max_examples=100, deadline=None)
    @given(cubic_multigraph_and_matching(), st.randoms(use_true_random=False))
    def test_edge_triples_that_are_not_cuts(self, gf, rng):
        # the parity argument needs real cuts; any other triple, an id
        # listed twice or out of range included, must still be filtered
        g, _f = gf
        triples = [tuple(rng.randrange(-1, g.m + 1) for _ in range(3)) for _ in range(rng.randrange(1, 5))]
        assert_pruned_stream_is_filtered(g, triples, rng=rng)

    def test_vertex_stars_only_prune_nothing(self):
        for name, g in small_corpus() + [("tri-k4", triangle_replace_all(k4()))]:
            stars = [tuple(g.incident(v)) for v in range(g.n)]
            for eid in range(g.m):
                assert list(matchings_meeting_all_3cuts_once(g, eid, stars)) == list(
                    matchings_through_edge(g, eid)
                ), (name, eid)

    def test_default_cuts_and_cut_lists_that_change(self):
        # the index is kept for one (graph, cuts) pair: alternating graphs
        # and cut lists must rebuild it every time
        rng = random.Random(3)
        graphs = [triangle_replace_all(k4()), ring_of_diamonds(3), triangle_replace_all(k33())]
        cut_lists = [(g, three_edge_cuts(g)) for g in graphs]
        cut_lists += [(g, cuts[: len(cuts) // 2]) for g, cuts in cut_lists]
        for _ in range(30):
            g, cuts = rng.choice(cut_lists)
            eid = rng.randrange(g.m)
            assert list(matchings_meeting_all_3cuts_once(g, eid, cuts)) == filtered_reference(g, eid, cuts)
            assert list(matchings_meeting_all_3cuts_once(g, eid)) == filtered_reference(g, eid, three_edge_cuts(g))


@st.composite
def small_pseudograph(draw):
    """Any graph on up to 10 vertices, loops and parallel edges allowed."""
    n = draw(st.integers(1, 10))
    vertex = st.integers(0, n - 1)
    return build_graph(n, draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n)))


class TestRefutedStates:
    """The search skips states it has refuted, and that changes no stream."""

    def test_family_stream_is_unchanged(self):
        # the digest of the stream as the search without refuted states gave it
        digest = hashlib.sha256()
        count = 0
        for f in enumerate_perfect_matchings(counterexample_family(2)):
            digest.update((" ".join(map(str, f.edge_ids)) + "\n").encode())
            count += 1
        assert count == 5120
        assert digest.hexdigest() == "eef9a314010b34792b7c1890c38fc9bed8bde94a89815b43f29c0509e4af9412"

    @settings(max_examples=200, deadline=None)
    @given(small_pseudograph())
    def test_plain_streams_are_the_reference(self, g):
        got = [f.edge_ids for f in enumerate_perfect_matchings(g)]
        assert got == list(reference_matchings(g, [False] * g.n, []))
        for eid in range(g.m):
            expected = []
            if not g.is_loop(eid):
                covered = [False] * g.n
                u, v = g.endpoints(eid)
                covered[u] = covered[v] = True
                expected = list(reference_matchings(g, covered, [eid]))
            assert [f.edge_ids for f in matchings_through_edge(g, eid)] == expected

    def test_first_matching_of_the_family_at_l4(self):
        g = counterexample_family(4)
        f = next(enumerate_perfect_matchings(g, deadline=time.monotonic() + 5))
        assert len(covered_vertices(g, f.edge_ids)) == g.n

    def test_memory_stays_under_the_cap(self, monkeypatch):
        # 244 vertices and no perfect matching: the search refutes states
        # until its deadline.  tracemalloc slows it about tenfold, so the
        # cap is lowered to one it passes well before then.
        monkeypatch.setattr(matchings, "_DEAD_CAP", 1 << 12)
        g = cubic_without_a_perfect_matching(40)
        # a state's int, and at most four 16-byte slots of the set's table
        per_state = sys.getsizeof((1 << g.n) - 1) + 64
        tracemalloc.start()
        try:
            with pytest.raises(SearchTimeout):
                next(enumerate_perfect_matchings(g, deadline=time.monotonic() + 0.5), None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < matchings._DEAD_CAP * per_state + (64 << 10)


    def test_a_timed_out_cut_stream_releases_its_states(self):
        # 244 vertices, 256 three-edge cuts and no perfect matching: the cut
        # stream refutes states until its deadline.  The index kept for the
        # graph and its cuts outlives the stream, but the states in it go
        # with the timeout; a stream that ends normally leaves them to the
        # graph's next edge.
        g = cubic_without_a_perfect_matching(40)
        cuts = three_edge_cuts(g)
        with pytest.raises(SearchTimeout):
            next(matchings_meeting_all_3cuts_once(g, 0, cuts, deadline=time.monotonic() + 0.3), None)
        assert matchings._last_index[0] is g and not matchings._last_index[2].dead
        # triangle_replace_all(k4()) would do, but its cut streams look
        # ahead past every dead end and refute no state
        h = triangle_replace_all(petersen())
        h_cuts = three_edge_cuts(h)
        assert list(matchings_meeting_all_3cuts_once(h, 0, h_cuts))
        index = matchings._last_index[2]
        assert index is not None and index.dead
        assert list(matchings_meeting_all_3cuts_once(h, 1, h_cuts))
        assert matchings._last_index[2] is index


class TestDeadline:
    """A search through counterexample_family(3)'s 294,912 matchings stops at its deadline."""

    @staticmethod
    def assert_stops_early(stream):
        yielded = 0
        with pytest.raises(SearchTimeout):
            for _f in stream:
                yielded += 1
                if yielded == 2000:
                    pytest.fail("2,000 matchings yielded after the deadline")

    def test_enumeration(self):
        g = counterexample_family(3)
        self.assert_stops_early(enumerate_perfect_matchings(g, deadline=time.monotonic() - 1))

    def test_through_edge_and_cut_streams(self):
        g = counterexample_family(3)
        past = time.monotonic() - 1
        self.assert_stops_early(matchings_through_edge(g, 0, deadline=past))
        self.assert_stops_early(matchings_meeting_all_3cuts_once(g, 0, three_edge_cuts(g), deadline=past))

    def test_no_deadline_changes_nothing(self):
        g = triangle_replace_all(k4())
        later = time.monotonic() + 300
        assert list(enumerate_perfect_matchings(g, deadline=later)) == list(enumerate_perfect_matchings(g))


class TestCoveredVertices:
    def test_matchings_and_non_matchings(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 2)])
        assert covered_vertices(g, [0, 2]) == {0, 1, 2, 3}
        assert covered_vertices(g, [1]) == {1, 2}
        assert covered_vertices(g, []) == set()
        assert covered_vertices(g, [0, 1]) is None  # both at vertex 1
        assert covered_vertices(g, [0, 4]) is None  # a loop covers its vertex twice
        assert covered_vertices(g, [0, 0]) is None
        assert covered_vertices(g, [0, 5]) is None  # no edge 5
        assert covered_vertices(g, [0, -1]) is None  # no edge -1
