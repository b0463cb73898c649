"""Flow engine: conservation, conflicts, search, and the constructive routes."""

import collections
import dataclasses
import functools
import hashlib
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncflow import _kernels_py, coloring, flows
from ncflow.certificates import flow_certificate, verify_certificate
from ncflow.coloring import coloring_from_flow
from ncflow.errors import ContractError, InputError, NcflowError, ResourceLimitError
from ncflow.flows import (
    ALPHA,
    ALPHA_BETA,
    BETA,
    KLEIN_VALUES,
    ConflictEdge,
    ConflictReport,
    FlowAssignment,
    conflicts,
    even_cycle_flow,
    extract_disjoint_matchings,
    find_nonconflicting_flow,
    klein_bits,
    klein_from_bits,
    klein_name,
    loop_canonicalize,
    min_conflict_flow,
    nonconflicting_for_every_two_factor,
    two_cycle_factor_flow,
    two_odd_cycle_flow,
    verify_flow,
)
from ncflow.generators import (
    counterexample_family,
    expand_vertices_to_5cycles,
    fig3_graph,
    k4,
    k6,
    k23,
    k33,
    permutation_graph,
    petersen,
    replace_vertex_with_triangle,
    ring_of_diamonds,
    triangle_replace_all,
)
from ncflow.graph import ContractedGraph, Pseudograph, build_graph, contract_two_factor
from ncflow.kernels import SearchTimeout
from ncflow.matchings import (
    PerfectMatching,
    complement_two_factor,
    enumerate_perfect_matchings,
    odd_cycle_count,
)

from conftest import (
    CHORD_LAYOUTS,
    claw_free_corpus,
    cubic_multigraph_and_matching,
    k4_with_doubled_diagonal,
    kernel_instance,
    nz_flows,
    settled_search,
    small_corpus,
    triangle_and_nine_cycle,
)


def contraction_of(g, f):
    tf = complement_two_factor(g, f)
    return tf, contract_two_factor(g, tf)


def fake_contracted(q):
    """ContractedGraph wrapper when only the quotient matters: no G, and a
    placeholder for each cycle (one per quotient vertex)."""
    return ContractedGraph(
        graph=None,
        cycles=(None,) * q.n,
        quotient_edges=q.edges,
        matching_edge_at=(-1,) * q.n,
        edge_origin=tuple(range(q.m)),
        vertex_cycle=tuple(range(q.n)),
    )


class TestKleinEncoding:
    def test_bits_round_trip(self):
        for v in (ALPHA, BETA, ALPHA_BETA):
            assert klein_from_bits(klein_bits(v)) == v
        assert klein_bits(ALPHA) == "10"
        assert klein_bits(BETA) == "01"
        assert klein_bits(ALPHA_BETA) == "11"

    def test_names(self):
        assert klein_name(ALPHA_BETA) == "a+b"

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            FlowAssignment((ALPHA, 0))


class TestVerifyFlow:
    def test_triple_edge_all_distinct_values_conserve(self):
        h = fake_contracted(k23())
        assert verify_flow(h, FlowAssignment((ALPHA, BETA, ALPHA_BETA)))

    def test_constant_alpha_fails(self):
        h = fake_contracted(k23())
        assert not verify_flow(h, FlowAssignment((ALPHA, ALPHA, ALPHA)))

    def test_loops_always_cancel(self):
        h = fake_contracted(build_graph(1, [(0, 0), (0, 0)]))
        for vals in itertools.product((ALPHA, BETA, ALPHA_BETA), repeat=2):
            assert verify_flow(h, FlowAssignment(vals))

    def test_partial_assignment_rejected(self):
        h = fake_contracted(k23())
        with pytest.raises(InputError):
            verify_flow(h, FlowAssignment((ALPHA,)))


class TestEnumerateFlows:
    """The tests' exhaustive oracle, `conftest.nz_flows`."""

    def test_triple_edge_has_six_flows(self):
        h = fake_contracted(k23())
        assert len(list(nz_flows(h))) == 6

    def test_loops_multiply_by_three(self):
        for k in (1, 2, 3):
            h = fake_contracted(build_graph(1, [(0, 0)] * k))
            assert len(list(nz_flows(h))) == 3 ** k

    def test_matches_brute_force_on_small_quotients(self):
        for name, g in small_corpus():
            for f in itertools.islice(enumerate_perfect_matchings(g), 2):
                tf, h = contraction_of(g, f)
                if h.quotient.m > 9:
                    continue
                fast = [fl.values for fl in nz_flows(h)]
                slow = [
                    vals
                    for vals in itertools.product(
                        (BETA, ALPHA, ALPHA_BETA), repeat=h.quotient.m
                    )
                    if verify_flow(h, FlowAssignment(vals))
                ]
                assert fast == slow, name  # in the same order

    def test_bridge_quotient_has_no_flow(self):
        g = fig3_graph()
        f = next(enumerate_perfect_matchings(g))
        tf, h = contraction_of(g, f)
        assert list(nz_flows(h)) == []


class TestConflicts:
    def test_constant_alpha_beta_never_conflicts(self):
        for name, g in small_corpus():
            f = next(enumerate_perfect_matchings(g))
            tf, h = contraction_of(g, f)
            theta = FlowAssignment((ALPHA_BETA,) * h.quotient.m)
            if verify_flow(h, theta):
                assert conflicts(g, f, tf, theta).is_empty(), name

    def test_triangle_remark(self):
        # a 2-factor triangle whose three matching edges carry alpha, beta,
        # alpha+beta hosts exactly one conflict
        g = replace_vertex_with_triangle(k4(), 0)
        for f in enumerate_perfect_matchings(g):
            tf = complement_two_factor(g, f)
            tri = [c for c in tf.cycles if len(c) == 3]
            if not tri:
                continue
            h = contract_two_factor(g, tf)
            for theta in nz_flows(h):
                owner_vals = set()
                for v in tri[0].vertices:
                    for eid in g.incident(v):
                        if eid in f.as_set():
                            owner_vals.add(theta.values[h.matching_edge_at[v]])
                if owner_vals == {ALPHA, BETA, ALPHA_BETA}:
                    rep = conflicts(g, f, tf, theta)
                    on_tri = [c for c in rep.conflicting_edges if c.fbar_edge in tri[0].edges]
                    assert len(on_tri) == 1
                    return
        pytest.fail("no witness configuration found")

    def test_petersen_every_flow_conflicts(self):
        g = petersen()
        for f in enumerate_perfect_matchings(g):
            tf, h = contraction_of(g, f)
            for theta in nz_flows(h):
                assert not conflicts(g, f, tf, theta).is_empty()

    def test_alpha_beta_swap_invariance(self):
        swap = {ALPHA: BETA, BETA: ALPHA, ALPHA_BETA: ALPHA_BETA}
        g = petersen()
        f = next(enumerate_perfect_matchings(g))
        tf, h = contraction_of(g, f)
        for theta in itertools.islice(nz_flows(h), 10):
            swapped = FlowAssignment(tuple(swap[v] for v in theta.values))
            a = [c.fbar_edge for c in conflicts(g, f, tf, theta).conflicting_edges]
            b = [c.fbar_edge for c in conflicts(g, f, tf, swapped).conflicting_edges]
            assert a == b

    def test_matching_other_than_the_complement_rejected(self):
        g = k33()
        f, other = list(enumerate_perfect_matchings(g))[:2]
        tf, h = contraction_of(g, f)
        theta = FlowAssignment((ALPHA_BETA,) * h.quotient.m)
        with pytest.raises(ContractError):
            conflicts(g, other, tf, theta)

    def test_unsorted_complement_accepted(self):
        g = petersen()
        f = next(enumerate_perfect_matchings(g))
        tf, h = contraction_of(g, f)
        theta = next(nz_flows(h))
        backwards = PerfectMatching(tuple(reversed(f.edge_ids)))
        assert conflicts(g, backwards, tf, theta) == conflicts(g, f, tf, theta)

    def test_report_contents(self):
        g = petersen()
        f = next(enumerate_perfect_matchings(g))
        tf, h = contraction_of(g, f)
        theta = next(nz_flows(h))
        for c in conflicts(g, f, tf, theta).conflicting_edges:
            assert {c.value_u, c.value_v} == {ALPHA, BETA}
            assert c.u in g.endpoints(c.fbar_edge) and c.v in g.endpoints(c.fbar_edge)
            assert c.f_edge_u in f.as_set() and c.f_edge_v in f.as_set()


def contracted_conflicts(g, f, tf, theta):
    """conflicts() as computed on the quotient G/F-bar: the reference for the
    read-on-G implementation, with the same exceptions."""
    h = contract_two_factor(g, tf)
    if len(theta.values) != h.quotient.m:
        raise InputError("flow does not match the contraction of this 2-factor")
    if f.as_set() != frozenset(h.edge_origin) or -1 in h.matching_edge_at:
        raise ContractError("matching is not the perfect-matching complement of this 2-factor")
    at = h.matching_edge_at
    out = []
    for cyc in tf.cycles:
        for eid in cyc.edges:
            u, v = g.endpoints(eid)
            val_u, val_v = theta.values[at[u]], theta.values[at[v]]
            if val_u ^ val_v == ALPHA_BETA:
                out.append(ConflictEdge(eid, u, h.edge_origin[at[u]], val_u, v, h.edge_origin[at[v]], val_v))
    out.sort(key=lambda c: c.fbar_edge)
    return ConflictReport(tuple(out))


def check_read_on_g(g, f, theta):
    """conflicts and coloring_from_flow, read on G, agree with the quotient."""
    tf, h = contraction_of(g, f)
    ref = contracted_conflicts(g, f, tf, theta)
    assert conflicts(g, f, tf, theta) == ref
    if verify_flow(h, theta) and ref.is_empty():
        res = coloring_from_flow(g, f, tf, theta)
        assert coloring.is_normal(g, res.coloring).ok
        for qe, eid in enumerate(h.edge_origin):
            assert res.mu.values[eid] == theta.values[qe]
    else:
        with pytest.raises(InputError):
            coloring_from_flow(g, f, tf, theta)


def flows_to_check(h, rng):
    """Valid flows, random (mostly non-conserving) values, and alpha/beta swaps."""
    out = list(itertools.islice(nz_flows(h), 6))
    out += [FlowAssignment(tuple(rng.choice(KLEIN_VALUES) for _ in range(h.quotient.m))) for _ in range(4)]
    swap = {ALPHA: BETA, BETA: ALPHA, ALPHA_BETA: ALPHA_BETA}
    out += [FlowAssignment(tuple(swap[v] for v in th.values)) for th in out[:2]]
    return out


class TestReadOnG:
    """conflicts and coloring_from_flow read theta on G, not on G/F-bar."""

    def test_agrees_with_the_quotient_on_the_corpora(self):
        rng = random.Random(7)
        graphs = [g for _name, g in small_corpus()] + claw_free_corpus()
        for g in graphs:
            for f in itertools.islice(enumerate_perfect_matchings(g), 3):
                _tf, h = contraction_of(g, f)
                for theta in flows_to_check(h, rng):
                    check_read_on_g(g, f, theta)

    @settings(max_examples=150, deadline=None)
    @given(cubic_multigraph_and_matching(), st.randoms(use_true_random=False))
    def test_agrees_with_the_quotient_on_random_multigraphs(self, gf, rng):
        g, f = gf
        _tf, h = contraction_of(g, f)
        for theta in flows_to_check(h, rng):
            check_read_on_g(g, f, theta)

    def test_exceptions_match_the_quotient(self):
        g = k33()
        f, other = list(enumerate_perfect_matchings(g))[:2]
        tf, h = contraction_of(g, f)
        theta = FlowAssignment((ALPHA_BETA,) * h.quotient.m)
        short = FlowAssignment((ALPHA_BETA,) * (h.quotient.m - 1))
        doubled = PerfectMatching(f.edge_ids + f.edge_ids[-1:])
        for fn in (contracted_conflicts, conflicts):
            with pytest.raises(ContractError):
                fn(g, other, tf, theta)
            with pytest.raises(InputError):
                fn(g, f, tf, short)
        # the quotient check saw a set and let an edge listed twice through
        assert contracted_conflicts(g, doubled, tf, theta).is_empty()
        with pytest.raises(ContractError):
            conflicts(g, doubled, tf, theta)
        for bad_f, bad_theta in ((other, theta), (f, short), (doubled, theta)):
            with pytest.raises(InputError):
                coloring_from_flow(g, bad_f, tf, bad_theta)

    def test_refuses_a_two_factor_whose_complement_is_not_a_perfect_matching(self):
        g, tf = k4_with_doubled_diagonal()
        theta = FlowAssignment((ALPHA_BETA,) * 3)
        for ids in ((4, 5, 6), (4, 5), (5, 6)):
            f = PerfectMatching(ids)
            with pytest.raises(ContractError):
                conflicts(g, f, tf, theta)
            with pytest.raises(ContractError):
                coloring_from_flow(g, f, tf, theta)
            assert not verify_certificate(flow_certificate(g, f, theta, {}), g)


class TestFindNonconflicting:
    def test_bipartite_always_present(self):
        g = k33()
        for f in enumerate_perfect_matchings(g):
            assert find_nonconflicting_flow(g, f) is not None

    def test_k4_present(self):
        g = k4()
        for f in enumerate_perfect_matchings(g):
            theta = find_nonconflicting_flow(g, f)
            assert theta is not None
            tf, h = contraction_of(g, f)
            assert verify_flow(h, theta)
            assert conflicts(g, f, tf, theta).is_empty()

    def test_petersen_absent_for_all_matchings(self):
        g = petersen()
        for f in enumerate_perfect_matchings(g):
            assert find_nonconflicting_flow(g, f) is None

    def test_triangle_in_two_factor_forces_absence(self):
        g = replace_vertex_with_triangle(k4(), 0)
        hits = 0
        for f in enumerate_perfect_matchings(g):
            tf = complement_two_factor(g, f)
            if any(len(c) == 3 for c in tf.cycles):
                hits += 1
                assert find_nonconflicting_flow(g, f) is None
        assert hits > 0


class TestMinConflict:
    def test_petersen_minimum_is_one(self):
        g = petersen()
        for f in enumerate_perfect_matchings(g):
            res = min_conflict_flow(g, f)
            assert res is not None and res.conflict_count == 1

    def test_bipartite_minimum_is_zero(self):
        g = k33()
        f = next(enumerate_perfect_matchings(g))
        assert min_conflict_flow(g, f).conflict_count == 0

    def test_no_flow_reported_as_none(self):
        g = fig3_graph()
        f = next(enumerate_perfect_matchings(g))
        assert min_conflict_flow(g, f) is None  # bridge kills every NZ flow

    def test_minimum_matches_exhaustive_oracle(self):
        g = petersen()
        f = next(enumerate_perfect_matchings(g))
        tf, h = contraction_of(g, f)
        oracle = min(
            conflicts(g, f, tf, th).count for th in nz_flows(h)
        )
        assert min_conflict_flow(g, f).conflict_count == oracle


class TestSettledChords:
    """The kernel searches no chord of F-bar: each holds alpha+beta, and
    brute force over every flow of the whole G/F-bar agrees."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(cubic_multigraph_and_matching())
    def test_verdicts_and_minima_match_brute_force(self, gf):
        g, f = gf
        tf, h = contraction_of(g, f)
        counts = [conflicts(g, f, tf, theta).count for theta in nz_flows(h)]
        first = find_nonconflicting_flow(g, f)
        assert (first is None) == (0 not in counts)
        res = min_conflict_flow(g, f)
        assert (res is None) == (not counts)
        assert res is None or res.conflict_count == min(counts)
        loops = [i for i, (a, b) in enumerate(h.quotient_edges) if a == b]
        for theta in (first, res and res.flow):
            assert theta is None or all(theta.values[i] == ALPHA_BETA for i in loops)


class TestEvenCycleFlow:
    def test_constant_value_and_conflict_free(self):
        for name, g in small_corpus():
            for f in enumerate_perfect_matchings(g):
                tf = complement_two_factor(g, f)
                if odd_cycle_count(tf) != 0:
                    continue
                theta = even_cycle_flow(g, tf)
                assert set(theta.values) == {ALPHA_BETA}
                h = contract_two_factor(g, tf)
                assert verify_flow(h, theta)
                assert conflicts(g, f, tf, theta).is_empty(), name

    def test_odd_cycle_rejected(self):
        g = petersen()
        tf = complement_two_factor(g, next(enumerate_perfect_matchings(g)))
        with pytest.raises(InputError):
            even_cycle_flow(g, tf)


class TestLoopCanonicalize:
    def test_loops_forced_to_alpha_beta_and_conflicts_never_increase(self):
        g = ring_of_diamonds(2)
        f = PerfectMatching((0, 4, 5, 9))
        tf, h = contraction_of(g, f)
        for theta in nz_flows(h):
            canon = loop_canonicalize(theta, h)
            for eid, (u, v) in enumerate(h.quotient.edges):
                if u == v:
                    assert canon.values[eid] == ALPHA_BETA
            assert verify_flow(h, canon)
            before = conflicts(g, f, tf, theta).count
            after = conflicts(g, f, tf, canon).count
            assert after <= before

    def test_no_loops_is_identity(self):
        g = petersen()
        f = next(enumerate_perfect_matchings(g))
        tf, h = contraction_of(g, f)
        theta = next(nz_flows(h))
        assert loop_canonicalize(theta, h).values == theta.values

    @pytest.mark.parametrize("size", [1, 3])
    def test_a_flow_of_the_wrong_length_is_refused(self, size):
        # K4's first matching contracts to one vertex with two loops
        g = k4()
        _tf, h = contraction_of(g, next(enumerate_perfect_matchings(g)))
        assert h.quotient_edges == ((0, 0), (0, 0))
        theta = FlowAssignment((ALPHA,) * size)
        with pytest.raises(InputError):
            verify_flow(h, theta)
        with pytest.raises(InputError):
            loop_canonicalize(theta, h)


class TestTwoCycleTheorem:
    def _check(self, g, res):
        tf, h = res.two_factor, contract_two_factor(g, res.two_factor)
        assert verify_flow(h, res.flow)
        assert conflicts(g, res.matching, tf, res.flow).is_empty()
        # oracle: exhaustive search agrees a flow exists for that matching
        assert find_nonconflicting_flow(g, res.matching) is not None

    @pytest.mark.parametrize("sigma, branch", [((0, 1, 2), "case2a"), ((0, 1, 2, 3, 4), "case1-3ec")])
    def test_deadline_reaches_the_fallback_routes(self, monkeypatch, sigma, branch):
        n = len(sigma)
        g = permutation_graph(sigma)
        tf = complement_two_factor(g, PerfectMatching(tuple(range(2 * n, 3 * n))))
        assert two_cycle_factor_flow(g, tf).branch == branch
        with pytest.raises(SearchTimeout):
            two_cycle_factor_flow(g, tf, deadline=0.0)
        # with no 3-edge-colorable matching found, the exhaustive route is next
        monkeypatch.setattr(flows, "_three_colorable_route", lambda g, deadline: None)
        assert two_cycle_factor_flow(g, tf).branch == "fallback-exhaustive"
        with pytest.raises(SearchTimeout):
            two_cycle_factor_flow(g, tf, deadline=0.0)

    def test_even_branch(self):
        g = permutation_graph((0, 1, 2, 3))
        f = PerfectMatching((8, 9, 10, 11))
        tf = complement_two_factor(g, f)
        res = two_cycle_factor_flow(g, tf)
        assert res.branch == "even"
        self._check(g, res)

    @pytest.mark.parametrize(
        "sigma, branch",
        [((0, 1, 2, 3), "even"), ((1, 0, 2, 4, 3, 6, 5), "case1")],
    )
    def test_contracts_the_two_factor_once(self, monkeypatch, sigma, branch):
        """One contraction for the route and the coloring of its flow: every
        contract_two_factor call after the first returns that one."""
        import ncflow
        from ncflow import certificates, graph

        made = []

        def counted(g, tf):
            made.append(contract_two_factor(g, tf))
            return made[-1]

        for mod in (ncflow, graph, flows, coloring, certificates):
            if getattr(mod, "contract_two_factor", None) is contract_two_factor:
                monkeypatch.setattr(mod, "contract_two_factor", counted)
        n = len(sigma)
        g = permutation_graph(sigma)
        tf = complement_two_factor(g, PerfectMatching(tuple(range(2 * n, 3 * n))))
        res = two_cycle_factor_flow(g, tf)
        assert res.branch == branch
        coloring_from_flow(g, res.matching, res.two_factor, res.flow)
        assert all(h is made[0] for h in made)

    def test_petersen_refused(self):
        g = petersen()
        f = next(enumerate_perfect_matchings(g))
        tf = complement_two_factor(g, f)
        assert two_cycle_factor_flow(g, tf) is None
        assert two_odd_cycle_flow(g, tf) is None

    def test_three_or_more_cycles_rejected(self):
        g = permutation_graph((0, 1, 2, 3, 4, 5))
        # a 2-factor with three 4-cycles exists in the hexagonal prism
        for f in enumerate_perfect_matchings(g):
            tf = complement_two_factor(g, f)
            if len(tf.cycles) > 2:
                with pytest.raises(InputError):
                    two_cycle_factor_flow(g, tf)
                return
        pytest.skip("no multi-cycle 2-factor found")

    def test_case1_flow_shape(self):
        g = permutation_graph((1, 0, 2, 4, 3, 6, 5))  # two 7-cycles
        f = PerfectMatching(tuple(range(14, 21)))
        tf = complement_two_factor(g, f)
        res = two_odd_cycle_flow(g, tf)
        self._check(g, res)
        if res.branch == "case1":
            vals = list(res.flow.values)
            assert vals.count(ALPHA) == 1 and vals.count(BETA) == 1
            assert set(vals) - {ALPHA, BETA} == {ALPHA_BETA}

    def test_all_permutation_graphs_n3_to_6(self):
        import itertools as it

        from ncflow.graph import is_isomorphic_to_petersen

        for n in range(3, 7):
            for sigma in it.permutations(range(n)):
                g = permutation_graph(sigma)
                f = PerfectMatching(tuple(range(2 * n, 3 * n)))
                tf = complement_two_factor(g, f)
                res = two_cycle_factor_flow(g, tf)
                if res is None:
                    assert is_isomorphic_to_petersen(g)
                    continue
                self._check(g, res)

    def test_triangle_elimination_branches_all_fire(self):
        seen = set()
        for chords in CHORD_LAYOUTS:
            g = triangle_and_nine_cycle(chords)
            f = PerfectMatching((12, 13, 14, 15, 16, 17))
            tf = complement_two_factor(g, f)
            assert len(tf.cycles) == 2 and odd_cycle_count(tf) == 2
            res = two_odd_cycle_flow(g, tf)
            assert res is not None, chords
            self._check(g, res)
            seen.add(res.branch)
        assert {"case2b-even", "case2b-rewire", "case2b-recursion"} <= seen


def two_cycle_inputs():
    """(g, F-bar, route) for every sigma with n <= 7 and the ten chorded
    layouts, the route being the one each is run through."""
    for n in range(3, 8):
        for sigma in itertools.permutations(range(n)):
            g = permutation_graph(sigma)
            yield g, complement_two_factor(g, PerfectMatching(tuple(range(2 * n, 3 * n)))), two_cycle_factor_flow
    for chords in CHORD_LAYOUTS:
        g = triangle_and_nine_cycle(chords)
        yield g, complement_two_factor(g, PerfectMatching((12, 13, 14, 15, 16, 17))), two_odd_cycle_flow


# sha256 of one line per input of two_cycle_inputs(): the route's matching
# ids, flow values and branch and its flow's 6-coloring, or None for the
# Petersen graph; recorded before the route and coloring_from_flow shared
# one F-bar index
TWO_CYCLE_DIGEST = "27c8054395455f8fefd427e6d7b0eb8f683390b4f394610ee8bfb0c6adf37af5"


def test_two_cycle_outputs_are_pinned():
    digest = hashlib.sha256()
    for g, tf, route in two_cycle_inputs():
        res = route(g, tf)
        if res is None:
            digest.update(b"None\n")
            continue
        col = coloring_from_flow(g, res.matching, res.two_factor, res.flow).coloring
        line = (res.matching.edge_ids, res.flow.values, res.branch, col.colors)
        digest.update(repr(line).encode() + b"\n")
    assert digest.hexdigest() == TWO_CYCLE_DIGEST


class TestOneIndexPerTwoFactor:
    """Each (G, F-bar) index is built once in an item and read by every
    later step, and these paths never build a quotient Pseudograph."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The (G, F-bar cycles) of each index built, and the number of
        quotients built, since the fixture started."""
        from ncflow import graph

        real_index = graph._two_factor_index
        real_quotient = graph.ContractedGraph.quotient.func
        seen = {"index": [], "quotient": 0}

        def index(g, cycles):
            seen["index"].append((g, tuple(cycles)))
            return real_index(g, cycles)

        def quotient(h):
            seen["quotient"] += 1
            return real_quotient(h)

        for name, mod in list(sys.modules.items()):
            if name == "ncflow" or name.startswith("ncflow."):
                for key, val in list(vars(mod).items()):
                    if val is real_index:
                        monkeypatch.setattr(mod, key, index)
        counted = functools.cached_property(quotient)
        counted.__set_name__(graph.ContractedGraph, "quotient")
        monkeypatch.setattr(graph.ContractedGraph, "quotient", counted)
        return seen

    def test_two_cycle_items(self, builds):
        inputs = list(two_cycle_inputs())
        branches = collections.Counter()
        for g, tf, route in inputs:
            builds["index"].clear()
            builds["quotient"] = 0
            res = route(g, tf)
            if res is None:
                continue
            coloring_from_flow(g, res.matching, res.two_factor, res.flow)
            branches[res.branch] += 1
            keys = collections.Counter(builds["index"])
            assert max(keys.values()) == 1, res.branch  # no 2-factor indexed twice
            if res.branch in ("case1", "even"):
                assert len(keys) == 1 and builds["quotient"] == 0
            elif res.branch.startswith("case2b"):
                # the input 2-factor and the rebuilt one (with the graph
                # the recursion solves, more)
                assert len(keys) >= 2
        assert {"case1", "even", "case2b-even", "case2b-rewire", "case2b-recursion"} <= set(branches)

    def test_a_carried_contraction_is_dropped_with_other_cycles(self, builds):
        g = permutation_graph((1, 0, 2, 4, 3, 6, 5))
        res = two_cycle_factor_flow(g, complement_two_factor(g, PerfectMatching(tuple(range(14, 21)))))
        f = PerfectMatching((0, 3, 7, 10, 16, 19, 20))
        fresh = complement_two_factor(g, f)
        replaced = dataclasses.replace(res.two_factor, cycles=fresh.cycles)
        theta = find_nonconflicting_flow(g, f)
        builds["index"].clear()
        assert contract_two_factor(g, replaced) == contract_two_factor(g, fresh)
        assert builds["index"] == [(g, fresh.cycles)] * 2
        assert (
            coloring_from_flow(g, f, replaced, theta).coloring
            == coloring_from_flow(g, f, fresh, theta).coloring
        )

    def test_a_carried_contraction_is_dropped_on_another_graph(self, builds):
        g = permutation_graph((1, 0, 2, 4, 3, 6, 5))
        f = PerfectMatching(tuple(range(14, 21)))
        carried = two_cycle_factor_flow(g, complement_two_factor(g, f)).two_factor
        # the same two 7-cycles, with other spokes between them
        other = permutation_graph((0, 2, 4, 6, 1, 3, 5))
        fresh = complement_two_factor(other, f)
        assert fresh == carried
        theta = find_nonconflicting_flow(other, f)
        builds["index"].clear()
        h = contract_two_factor(other, carried)
        assert h == contract_two_factor(other, fresh) and h.graph is other
        assert builds["index"] == [(other, carried.cycles)] * 2
        assert (
            coloring_from_flow(other, f, carried, theta).coloring
            == coloring_from_flow(other, f, fresh, theta).coloring
        )
        assert conflicts(other, f, carried, theta) == conflicts(other, f, fresh, theta)

    def test_the_quotient_is_built_once_when_first_read(self, builds):
        for name, g in small_corpus():
            for f in itertools.islice(enumerate_perfect_matchings(g), 3):
                tf, h = contraction_of(g, f)
                assert builds["quotient"] == 0
                q = h.quotient
                plain = Pseudograph(len(h.cycles), h.quotient_edges)
                assert (q.n, q.edges) == (plain.n, plain.edges), name
                for v in range(q.n):
                    assert q.incident(v) == plain.incident(v), name
                    assert q.degree(v) == plain.degree(v), name
                assert h.quotient is q and builds["quotient"] == 1
                builds["quotient"] = 0

    @pytest.mark.parametrize("search", [find_nonconflicting_flow, min_conflict_flow])
    def test_kernel_searches(self, builds, search):
        graphs = [k33(), ring_of_diamonds(3), petersen(), counterexample_family(1)]
        cases = [(g, f) for g in graphs for f in itertools.islice(enumerate_perfect_matchings(g), 8)]
        for g, f in cases:
            builds["index"].clear()
            builds["quotient"] = 0
            out = search(g, f)
            assert len(builds["index"]) == 1 and builds["quotient"] == 0
            if search is min_conflict_flow and out is not None and out.conflict_count == 0:
                # the result's 2-factor carries its index to the coloring
                coloring_from_flow(g, f, out.two_factor, out.flow)
                assert len(builds["index"]) == 1

    def test_disjoint_matching_extraction(self, builds):
        h5 = k6()
        g, tf = expand_vertices_to_5cycles(h5)
        theta = find_nonconflicting_flow(g, PerfectMatching(tuple(sorted(set(range(g.m)) - tf.edge_ids()))))
        builds["index"].clear()
        extract_disjoint_matchings(h5, g, tf, theta)
        assert len(builds["index"]) == 1 and builds["quotient"] == 0


class TestDisjointMatchingExtraction:
    def test_k6_pipeline(self):
        h5 = k6()
        g, tf = expand_vertices_to_5cycles(h5)
        f = PerfectMatching(tuple(sorted(set(range(g.m)) - tf.edge_ids())))
        theta = find_nonconflicting_flow(g, f)
        assert theta is not None
        a, b = extract_disjoint_matchings(h5, g, tf, theta)
        assert not set(a) & set(b)
        for sel in (a, b):
            seen = set()
            for eid in sel:
                u, v = h5.endpoints(eid)
                seen.update((u, v))
            assert len(sel) == 3 and len(seen) == 6

    def test_conflicting_flow_rejected(self):
        h5 = k6()
        g, tf = expand_vertices_to_5cycles(h5)
        h = contract_two_factor(g, tf)
        f = PerfectMatching(tuple(sorted(set(range(g.m)) - tf.edge_ids())))
        for theta in nz_flows(h):
            if not conflicts(g, f, tf, theta).is_empty():
                with pytest.raises(InputError):
                    extract_disjoint_matchings(h5, g, tf, theta)
                return
        pytest.fail("expected some conflicting flow")


class TestEveryTwoFactor:
    def test_k4_true(self):
        assert nonconflicting_for_every_two_factor(k4()).all_nonconflicting

    def test_ring_true(self):
        rep = nonconflicting_for_every_two_factor(ring_of_diamonds(2))
        assert rep.all_nonconflicting
        assert all(ok for _f, ok in rep.verdicts)

    def test_petersen_false_with_witnesses(self):
        rep = nonconflicting_for_every_two_factor(petersen())
        assert not rep.all_nonconflicting
        assert len(rep.verdicts) == 6
        assert all(not ok for _f, ok in rep.verdicts)


class TestResultChecks:
    """Failed result checks raise NcflowError, which `python -O` keeps."""

    def test_failed_checks_raise(self, monkeypatch):
        g = k33()
        f = next(enumerate_perfect_matchings(g))
        monkeypatch.setattr(flows, "verify_flow", lambda h, theta: False)
        with pytest.raises(NcflowError):
            find_nonconflicting_flow(g, f)
        with pytest.raises(NcflowError):
            even_cycle_flow(g, complement_two_factor(g, f))
        monkeypatch.setattr(
            coloring, "is_normal", lambda g, c: coloring.NormalVerdict(False, (0,))
        )
        with pytest.raises(NcflowError):
            coloring.chi_n_exact(g, 4)

    @pytest.mark.parametrize("off_by", [-1, 1])
    def test_a_misreported_conflict_count_is_refused(self, monkeypatch, off_by):
        # the kernel's real minimum-conflict flow on Petersen (one conflict),
        # reported with one conflict fewer or more
        real = flows.flow_search

        def miscounting(*args, deadline=None):
            vals, conf, nodes = real(*args[:-1], "min", deadline=deadline)
            return vals, conf + off_by, nodes

        monkeypatch.setattr(flows, "flow_search", miscounting)
        g = petersen()
        f = next(enumerate_perfect_matchings(g))
        with pytest.raises(NcflowError, match="conflicts"):
            min_conflict_flow(g, f)
        with pytest.raises(NcflowError, match="conflicts"):
            find_nonconflicting_flow(g, f)


class TestNoQuotientCeiling:
    """The kernel path takes quotients of any size; a long search ends at
    the deadline like any other."""

    def test_65_quotient_edges_get_an_answer(self, monkeypatch, compiled):
        # the rungs of the 65-prism: F-bar is two 65-cycles, F has 65 edges
        g = permutation_graph(tuple(range(65)))
        rungs = PerfectMatching(tuple(range(130, 195)))
        for impl in (_kernels_py, compiled):
            monkeypatch.setattr(flows, "flow_search", impl.flow_search)
            assert find_nonconflicting_flow(g, rungs) is not None
            mc = min_conflict_flow(g, rungs)
            assert (mc.conflict_count, mc.nodes_expanded) == (0, 210)


class TestDeepPurePythonSearches:
    """The pure-Python kernels recurse once per edge; past the interpreter's
    limit they raise ResourceLimitError, not RecursionError."""

    @pytest.mark.parametrize("mode", ["first", "min"])
    def test_flow_search(self, mode):
        m = 3 * sys.getrecursionlimit()
        with pytest.raises(ResourceLimitError, match=f"flow search over {m} edges"):
            _kernels_py.flow_search(1, [0] * m, [0] * m, [], [], mode)


# _kernels_py.flow_search on fixed quotients: the values, conflict count
# and node count that the search order fixes exactly.  Values and
# conflict counts were recorded before the kernel was rewritten around its
# step table, "min" node counts once it broke the alpha <-> beta symmetry
# (which changes node counts only), and "first" node counts once its
# exhaustive negatives ran in fail-first order (22,144 nodes before).
# Since "min" also runs fail first, the third matching of
# triangle_replace_all(k33) gets another flow with the same 2 conflicts
# (([1, 2, 3, 1, 2, 1, 2, 3, 3], 2, 978) in vertex-id order).  "min" is
# read with F-bar's chords at alpha+beta (`settled_search`); while the
# kernel still searched them, triangle_replace_all(k4) gave
# ([1, 2, 3, 1, 3, 1], 1, 25) and ([1] * 6, 0, 17) on its second and
# third matchings, and triangle_replace_all(k33) ([1, 2, 3, 2, 3, 2, 1, 3,
# 3], 2, 51) and ([2, 3, 1, 2, 3, 2, 1, 3, 3], 2, 51) on its second and
# third: the same conflict counts, fewer nodes.
FAMILY1_FIRST_NODES = (
    ((356, 356, 342, 342, 342, 342, 356, 356) + (152,) * 8)
    + ((349, 349, 335, 335, 335, 335, 349, 349) + (145,) * 8) * 2
    + ((356, 356, 342, 342, 342, 342, 356, 356) + (152,) * 8)
    + (51,) * 32
)

MIN_GOLDEN = {
    "petersen": [([1, 2, 3, 3, 3], 1, 72)] * 3,
    "triangle_replace_all(k4)": [
        ([1, 2, 3, 3, 2, 1], 4, 27),
        ([1, 2, 3, 3, 3, 3], 1, 10),
        ([3, 3, 3, 3, 3, 3], 0, 0),
    ],
    "triangle_replace_all(k33)": [
        ([1, 2, 3, 2, 3, 1, 3, 1, 2], 6, 89),
        ([1, 2, 3, 2, 3, 3, 3, 3, 3], 2, 24),
        ([2, 3, 1, 2, 3, 3, 3, 3, 3], 2, 24),
    ],
}


class TestPurePythonFlowKernelGolden:
    def test_first_on_every_matching_of_the_family(self):
        g = counterexample_family(1)
        results = [
            _kernels_py.flow_search(*kernel_instance(g, f), "first")
            for f in enumerate_perfect_matchings(g)
        ]
        assert all(r[:2] == (None, 0) for r in results)
        assert tuple(r[2] for r in results) == FAMILY1_FIRST_NODES
        assert sum(r[2] for r in results) == 17440

    @pytest.mark.parametrize("name", sorted(MIN_GOLDEN))
    def test_min_on_the_first_three_matchings(self, name):
        g = {
            "petersen": petersen,
            "triangle_replace_all(k4)": lambda: triangle_replace_all(k4()),
            "triangle_replace_all(k33)": lambda: triangle_replace_all(k33()),
        }[name]()
        matchings = itertools.islice(enumerate_perfect_matchings(g), 3)
        got = [settled_search(_kernels_py, g, f, "min") for f in matchings]
        assert got == MIN_GOLDEN[name]

    @pytest.mark.parametrize(
        "build,expected",
        [(k4, ([1, 2, 3, 3, 2, 1], 0, 10)), (k33, ([1, 2, 3, 2, 3, 1, 3, 1, 2], 0, 29))],
    )
    def test_z2_cubed_search(self, build, expected):
        # the call z2cubed_flow_coloring makes
        g = build()
        eu = [a for a, _ in g.edges]
        ev = [b for _, b in g.edges]
        assert _kernels_py.flow_search(g.n, eu, ev, [], [], "first", values=tuple(range(1, 8))) == expected
