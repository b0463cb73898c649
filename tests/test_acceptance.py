"""Acceptance suite: one test per published claim, at desk scale.

Each test prints a single `ACCEPTANCE n: PASS` line on success; pytest -v
shows the same pass/fail per criterion through the test names.
"""

import itertools
import random
import time

import pytest

from ncflow.batch import run_batch
from ncflow.coloring import (
    POOR,
    RICH,
    admits_normal_k_coloring,
    chi_n_exact,
    classify_edge,
    coloring_from_flow,
    contract_triangle,
    h_coloring,
    is_normal,
    lift_over_2_cut,
    lift_over_triangle,
    split_two_cut,
    structural_abnormality,
    verify_conjecture4_witness,
    verify_h_coloring,
)
from ncflow.flows import (
    ALPHA,
    BETA,
    conflicts,
    even_cycle_flow,
    extract_disjoint_matchings,
    find_nonconflicting_flow,
    loop_canonicalize,
    min_conflict_flow,
    nonconflicting_for_every_two_factor,
    two_cycle_factor_flow,
    two_odd_cycle_flow,
    verify_flow,
)
from ncflow.formats import encode_graph6, encode_sparse6, parse_any
from ncflow.generators import (
    counterexample_family,
    expand_vertices_to_5cycles,
    fig3_graph,
    fig4_graph,
    k4,
    k6,
    k23_with_p10v,
    k33,
    permutation_graph,
    petersen,
    replace_vertex_with_triangle,
    ring_of_diamonds,
)
from ncflow.graph import (
    bridges,
    build_graph,
    contract_two_factor,
    is_claw_free,
    is_cubic,
    is_isomorphic_to_petersen,
    three_edge_cuts,
)
from ncflow.matchings import (
    PerfectMatching,
    complement_two_factor,
    enumerate_perfect_matchings,
    matchings_meeting_all_3cuts_once,
    odd_cycle_count,
)

from conftest import (
    CHORD_LAYOUTS,
    claw_free_corpus,
    glue_two_cut,
    nz_flows,
    prism,
    small_corpus,
    triangle_and_nine_cycle,
)


def _contracted(g, f):
    tf = complement_two_factor(g, f)
    return tf, contract_two_factor(g, tf)


# flows found by the constructive routes, shared between criteria 4 and others
def _found_flows():
    """(g, f, tf, theta, h) for every non-conflicting flow the suite finds."""
    out = []
    for name, g in small_corpus():
        if is_isomorphic_to_petersen(g):
            continue
        for f in enumerate_perfect_matchings(g):
            theta = find_nonconflicting_flow(g, f)
            if theta is not None:
                tf, h = _contracted(g, f)
                out.append((g, f, tf, theta, h))
    for sigma in itertools.permutations(range(5)):
        g = permutation_graph(sigma)
        if is_isomorphic_to_petersen(g):
            continue
        f = PerfectMatching(tuple(range(10, 15)))
        tf = complement_two_factor(g, f)
        res = two_cycle_factor_flow(g, tf)
        out.append((g, res.matching, res.two_factor, res.flow, contract_two_factor(g, res.two_factor)))
    for chords in CHORD_LAYOUTS:
        g = triangle_and_nine_cycle(chords)
        tf = complement_two_factor(g, PerfectMatching((12, 13, 14, 15, 16, 17)))
        res = two_odd_cycle_flow(g, tf)
        out.append((g, res.matching, res.two_factor, res.flow, contract_two_factor(g, res.two_factor)))
    return out


def test_01_petersen_negative():
    start = time.monotonic()
    g = petersen()
    matchings = list(enumerate_perfect_matchings(g))
    assert len(matchings) == 6
    for f in matchings:
        tf, h = _contracted(g, f)
        assert h.quotient.n == 2 and h.quotient.m == 5
        flows = list(nz_flows(h))
        assert 0 < len(flows) <= 3 ** 5
        for theta in flows:
            assert conflicts(g, f, tf, theta).count >= 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1: PASS — Petersen: 6 matchings, every NZ flow conflicts ({elapsed:.2f}s)")


def test_02_counterexample_family_l1():
    start = time.monotonic()
    g = counterexample_family(1)
    assert g.n == 34 and is_cubic(g) and not bridges(g)
    checked = 0
    for f in enumerate_perfect_matchings(g):
        checked += 1
        assert find_nonconflicting_flow(g, f, deadline=time.monotonic() + 300) is None
    assert checked == 96
    # spot-check per the proof: the inspected minimum-conflict flow of each of
    # the first matchings conflicts inside one of the three blocks
    for f in itertools.islice(enumerate_perfect_matchings(g), 6):
        mc = min_conflict_flow(g, f)
        assert mc is not None and mc.conflict_count >= 1
        rep = conflicts(g, f, mc.two_factor, mc.flow)
        assert any(
            c.u < 30 and c.v < 30 and c.u // 10 == c.v // 10
            for c in rep.conflicting_edges
        )
    elapsed = time.monotonic() - start
    assert elapsed < 600
    print(f"ACCEPTANCE 2: PASS — 34-vertex family: all {checked} matchings negative, block conflicts found ({elapsed:.1f}s)")


def test_03_even_cycle_fast_path():
    sampled = 0
    for name, g in small_corpus():
        for f in enumerate_perfect_matchings(g):
            tf = complement_two_factor(g, f)
            if odd_cycle_count(tf) != 0:
                continue
            theta = even_cycle_flow(g, tf)
            h = contract_two_factor(g, tf)
            assert verify_flow(h, theta)
            assert conflicts(g, f, tf, theta).is_empty(), name
            if sampled < 50:
                assert find_nonconflicting_flow(g, f) is not None, name
                sampled += 1
    assert sampled >= 50
    print(f"ACCEPTANCE 3: PASS — even-cycle flows conflict-free; {sampled} oracle agreements")


def test_04_six_coloring_pipeline():
    flows = _found_flows()
    assert flows
    for g, f, tf, theta, h in flows:
        res = coloring_from_flow(g, f, tf, theta)
        assert res.coloring.k <= 6
        assert is_normal(g, res.coloring).ok
        assert verify_conjecture4_witness(g, res.mu, ALPHA, BETA)
    print(f"ACCEPTANCE 4: PASS — {len(flows)} flows all yield normal <=6-colorings with verified witnesses")


def test_05_bridge_graph_chi_n_is_seven():
    start = time.monotonic()
    g = fig3_graph()
    res = chi_n_exact(g, 7)
    assert res is not None and res.k == 7
    assert classify_edge(g, res.witness, 14).kind == POOR  # the bridge
    for e in range(14):
        assert classify_edge(g, res.witness, e).kind == RICH
    trail = dict(res.nodes_per_k)
    assert set(trail) == {3, 4, 5, 6, 7}
    assert trail[6] > 0  # k = 6 exhausted, the negative certificate
    assert dict(res.settled_by)[4] == "lemma-A"  # k = 4 is never searched
    elapsed = time.monotonic() - start
    assert elapsed < 300
    print(f"ACCEPTANCE 5: PASS — chi_n = 7, bridge poor / rest rich, k=6 exhausted in {trail[6]} nodes ({elapsed:.2f}s)")


def test_06_doubled_triangle_graph_never_normal():
    start = time.monotonic()
    g = fig4_graph()
    w = structural_abnormality(g)
    assert w is not None
    for k in range(3, 9):
        assert admits_normal_k_coloring(g, k) is None
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(f"ACCEPTANCE 6: PASS — structural witness found; no normal k-coloring for k=3..8 ({elapsed:.2f}s)")


def test_07_claw_free_every_edge():
    graphs = claw_free_corpus()
    assert len(graphs) >= 25
    for g in graphs:
        assert is_cubic(g) and not bridges(g) and is_claw_free(g)
        cuts = three_edge_cuts(g)
        for eid in range(g.m):
            ok = False
            for f in matchings_meeting_all_3cuts_once(g, eid, cuts):
                mc = min_conflict_flow(g, f)
                if mc is not None and mc.conflict_count == 0:
                    h = mc.two_factor.contraction
                    theta = loop_canonicalize(mc.flow, h)
                    assert verify_flow(h, theta)
                    assert conflicts(g, f, mc.two_factor, theta).is_empty()
                    ok = True
                    break
            assert ok, (g.n, eid)
    print(f"ACCEPTANCE 7: PASS — {len(graphs)} claw-free instances, every edge served conflict-free")


def test_08_two_cycle_two_factors():
    branches = set()
    instances = 0
    for n in range(3, 10):
        for sigma in itertools.permutations(range(n)):
            g = permutation_graph(sigma)
            f = PerfectMatching(tuple(range(2 * n, 3 * n)))
            tf = complement_two_factor(g, f)
            res = two_cycle_factor_flow(g, tf)
            if res is None:
                assert is_isomorphic_to_petersen(g)
                assert find_nonconflicting_flow(g, f) is None  # oracle agrees
                continue
            h = contract_two_factor(g, res.two_factor)
            assert verify_flow(h, res.flow)
            assert conflicts(g, res.matching, res.two_factor, res.flow).is_empty()
            assert find_nonconflicting_flow(g, res.matching) is not None  # oracle
            branches.add(res.branch)
            instances += 1
    chorded = 0
    for chords in CHORD_LAYOUTS:
        g = triangle_and_nine_cycle(chords)
        tf = complement_two_factor(g, PerfectMatching((12, 13, 14, 15, 16, 17)))
        res = two_odd_cycle_flow(g, tf)
        assert res is not None
        h = contract_two_factor(g, res.two_factor)
        assert verify_flow(h, res.flow)
        assert conflicts(g, res.matching, res.two_factor, res.flow).is_empty()
        assert find_nonconflicting_flow(g, res.matching) is not None
        branches.add(res.branch)
        chorded += 1
    assert chorded >= 10
    assert any(b.startswith("case1") for b in branches)
    assert "case2a" in branches
    assert any(b.startswith("case2b") for b in branches)
    print(f"ACCEPTANCE 8: PASS — {instances} permutation + {chorded} chorded instances; branches {sorted(branches)}")


def test_09_disjoint_matchings_of_k6():
    start = time.monotonic()
    h5 = k6()
    g, tf = expand_vertices_to_5cycles(h5)
    f = PerfectMatching(tuple(sorted(set(range(g.m)) - tf.edge_ids())))
    theta = find_nonconflicting_flow(g, f)
    assert theta is not None
    h = contract_two_factor(g, tf)
    # the proof's per-cycle count: each 5-cycle sees exactly one alpha and one
    # beta among its incident matching edges
    for cyc in tf.cycles:
        vals = []
        fset = f.as_set()
        for v in cyc.vertices:
            for eid in g.incident(v):
                if eid in fset:
                    vals.append(theta.values[h.matching_edge_at[v]])
        assert vals.count(ALPHA) == 1 and vals.count(BETA) == 1
    a, b = extract_disjoint_matchings(h5, g, tf, theta)
    assert not set(a) & set(b)
    for sel in (a, b):
        seen = set()
        for eid in sel:
            u, v = h5.endpoints(eid)
            assert u not in seen and v not in seen
            seen.update((u, v))
        assert len(seen) == h5.n
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"ACCEPTANCE 9: PASS — K6 expansion yields edge-disjoint perfect matchings ({elapsed:.2f}s)")


def test_10_every_two_factor_instances():
    start = time.monotonic()
    for g, expect in (
        (k4(), True),
        (ring_of_diamonds(2), True),
        (k23_with_p10v(), True),
        (petersen(), False),
    ):
        rep = nonconflicting_for_every_two_factor(g)
        assert rep.all_nonconflicting == expect
    elapsed = time.monotonic() - start
    assert elapsed < 300
    print(f"ACCEPTANCE 10: PASS — every-2-factor verdicts match on all four instances ({elapsed:.1f}s)")


def test_11_reductions():
    # twenty 2-cut instances from glued corpus pairs
    parts = [k4(), k33(), prism(3), prism(4), prism(5)]
    cut_count = 0
    for (i, g1), (j, g2) in itertools.combinations(enumerate(parts), 2):
        for e1, e2 in ((0, 0), (1, 2)):
            g, cut = glue_two_cut(g1, e1, g2, e2)
            split = split_two_cut(g, cut)
            k = max(chi_n_exact(split.g1, 7).k, chi_n_exact(split.g2, 7).k, 4)
            c1 = admits_normal_k_coloring(split.g1, k)
            c2 = admits_normal_k_coloring(split.g2, k)
            merged = lift_over_2_cut(g, cut, c1, c2, split)
            assert is_normal(g, merged).ok
            cut_count += 1
    assert cut_count == 20
    # twenty triangle instances
    tri_count = 0
    for name, base in small_corpus():
        if not base.is_simple():
            continue
        for v in (0, 1):
            if tri_count == 20:
                break
            g = replace_vertex_with_triangle(base, v)
            tri = (v, base.n, base.n + 1)
            gq, _emap = contract_triangle(g, tri)
            qc = admits_normal_k_coloring(gq, chi_n_exact(gq, 7).k)
            lifted = lift_over_triangle(g, tri, qc)
            assert is_normal(g, lifted).ok
            ts = set(tri)
            for eid, (a, b) in enumerate(g.edges):
                if a in ts and b in ts:
                    assert classify_edge(g, lifted, eid).kind == POOR
            tri_count += 1
    assert tri_count == 20
    print("ACCEPTANCE 11: PASS — 20 two-cut lifts and 20 triangle lifts all normal (T-edges poor)")


def test_12_h_coloring_equivalence(corpus16):
    g = k33()
    phi = h_coloring(g, k4())
    assert phi is not None and verify_h_coloring(g, k4(), phi)
    p10 = petersen()
    checked = 0
    for name, cg in corpus16:
        if cg.n > 16 or not cg.is_simple():
            continue
        has_map = h_coloring(cg, p10) is not None
        has_n5 = admits_normal_k_coloring(cg, 5) is not None
        assert has_map == has_n5, name
        checked += 1
    assert checked >= 10
    print(f"ACCEPTANCE 12: PASS — K3,3 -> K4 map verified; 5-color equivalence on {checked} graphs")


def test_13_round_trips_and_batch_determinism(tmp_path):
    rng = random.Random(2026)
    corpus = []
    for _ in range(500):  # simple graphs -> graph6
        n = rng.randint(1, 11)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        corpus.append(("g6", build_graph(n, edges)))
    for _ in range(500):  # multigraphs -> sparse6
        n = rng.randint(1, 9)
        edges = [
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))
        ]
        corpus.append(("s6", build_graph(n, edges)))
    norm = lambda g: (g.n, sorted(tuple(sorted(e)) for e in g.edges))
    for kind, g in corpus:
        line = encode_graph6(g) if kind == "g6" else encode_sparse6(g)
        assert norm(parse_any(line)) == norm(g)
    lines = [
        encode_graph6(g) if g.is_simple() else encode_sparse6(g)
        for _n, g in small_corpus()
    ]
    a = run_batch(lines, "nonconflicting", jobs=1).to_json(canonical=True)
    b = run_batch(lines, "nonconflicting", jobs=8).to_json(canonical=True)
    assert a == b
    print("ACCEPTANCE 13: PASS — 1000-graph format round-trips; batch reports byte-identical at jobs 1 and 8")
