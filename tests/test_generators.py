"""Generators: shapes, determinism, and the structural claims each family makes."""

import itertools

import networkx as nx
import pytest

from ncflow.errors import InputError
from ncflow.generators import (
    counterexample_family,
    diamond,
    expand_vertices_to_5cycles,
    fig3_graph,
    fig4_graph,
    k4,
    k6,
    k23,
    k23_with_p10v,
    k33,
    permutation_graph,
    petersen,
    petersen_minus_edge,
    petersen_minus_vertex,
    replace_edge_with_string,
    replace_vertex_with_triangle,
    ring_of_diamonds,
    string_gadget,
    string_of_diamonds,
    triangle_replace_all,
)
from ncflow.graph import (
    bridges,
    girth,
    is_claw_free,
    is_cubic,
    is_isomorphic_to_petersen,
)

from conftest import chords


def to_nx(g):
    M = nx.Graph()
    M.add_nodes_from(range(g.n))
    M.add_edges_from(g.edges)
    return M


class TestNamedGraphs:
    def test_orders_and_sizes(self):
        cases = [
            (petersen(), 10, 15),
            (petersen_minus_edge(), 10, 14),
            (petersen_minus_vertex(), 9, 12),
            (k4(), 4, 6),
            (k23(), 2, 3),
            (k33(), 6, 9),
            (fig3_graph(), 10, 15),
            (fig4_graph(), 10, 15),
            (diamond(), 4, 5),
            (k6(), 6, 15),
            (k23_with_p10v(), 18, 27),
        ]
        for g, n, m in cases:
            assert (g.n, g.m) == (n, m)

    def test_determinism(self):
        # byte-identical edge lists on repeated calls
        for make in (petersen, k4, k23, k33, fig3_graph, fig4_graph, k6, k23_with_p10v):
            assert make().edges == make().edges

    def test_petersen_identity(self):
        g = petersen()
        assert is_cubic(g) and girth(g) == 5 and is_isomorphic_to_petersen(g)

    def test_minus_edge_ports(self):
        g = petersen_minus_edge()
        assert g.degree(0) == 2 and g.degree(1) == 2
        assert all(g.degree(v) == 3 for v in range(2, 10))

    def test_minus_vertex_ports(self):
        g = petersen_minus_vertex()
        for v in range(9):
            assert g.degree(v) == (2 if v in (0, 3, 4) else 3)

    def test_fig3_bridge(self):
        assert bridges(fig3_graph()) == [14]

    def test_fig4_doubled_edges(self):
        g = fig4_graph()
        doubled = sum(
            1
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if g.multiplicity(u, v) == 2
        )
        assert is_cubic(g) and doubled == 3

    def test_k23_with_p10v_is_cubic_and_bridgeless(self):
        g = k23_with_p10v()
        assert is_cubic(g) and not bridges(g)
        # the three joining edges are appended last
        assert g.edges[24:] == ((0, 9), (3, 12), (4, 13))


class TestStringsAndRings:
    def test_string_units(self):
        s = string_of_diamonds(3)
        assert s.graph.n == 12
        assert s.graph.degree(s.head) == 2 and s.graph.degree(s.tail) == 2
        t = string_gadget("D2D")
        assert t.graph.n == 10
        inner = [v for v in range(t.graph.n) if v not in (t.head, t.tail)]
        assert all(t.graph.degree(v) == 3 for v in inner)

    def test_bad_specs_rejected(self):
        with pytest.raises(InputError):
            string_gadget("")
        with pytest.raises(InputError):
            string_gadget("DXD")
        with pytest.raises(InputError):
            string_of_diamonds(0)
        with pytest.raises(InputError):
            ring_of_diamonds(1)

    def test_ring_is_claw_free_cubic(self):
        for k in (2, 3, 4):
            g = ring_of_diamonds(k)
            assert g.n == 4 * k
            assert is_cubic(g) and not bridges(g) and is_claw_free(g)

    def test_edge_splice_preserves_cubicity(self):
        g = replace_edge_with_string(petersen(), 0, "D2")
        assert is_cubic(g) and not bridges(g)
        assert g.n == 10 + 6
        # surviving edges keep relative order
        assert g.edges[: 14] == tuple(petersen().edges[1:])


class TestTriangleReplacement:
    def test_single_vertex(self):
        g = replace_vertex_with_triangle(k4(), 0)
        assert g.n == 6 and g.m == 9
        assert is_cubic(g)
        assert girth(g) == 3

    def test_all_vertices_claw_free(self):
        g = triangle_replace_all(k4())
        assert g.n == 12 and is_cubic(g) and is_claw_free(g)
        h = triangle_replace_all(petersen())
        assert h.n == 30 and is_cubic(h) and is_claw_free(h)

    def test_loop_vertex_rejected(self):
        from ncflow.graph import build_graph

        g = build_graph(2, [(0, 0), (0, 1)])
        with pytest.raises(InputError):
            replace_vertex_with_triangle(g, 0)


class TestFiveCycleExpansion:
    def test_k6_expansion_shape(self):
        g, tf = expand_vertices_to_5cycles(k6())
        assert g.n == 30 and g.m == 45
        assert is_cubic(g) and not bridges(g)
        assert len(tf.cycles) == 6
        assert all(len(c.vertices) == 5 for c in tf.cycles)
        assert chords(g, tf) == ()
        # cycle edges come first, ids 0..29
        assert tf.edge_ids() == set(range(30))

    def test_non_5_regular_rejected(self):
        with pytest.raises(InputError):
            expand_vertices_to_5cycles(k4())


class TestNegativeFamily:
    def test_orders(self):
        assert counterexample_family(1).n == 34
        assert counterexample_family(2).n == 68

    def test_cubic_and_bridgeless(self):
        for ell in (1, 2):
            g = counterexample_family(ell)
            assert is_cubic(g) and not bridges(g)

    def test_contains_three_port_blocks_at_ell_one(self):
        # exactly the 3 planted copies of the edge-deleted 10-vertex block
        # appear as induced subgraphs
        g = to_nx(counterexample_family(1))
        pattern = to_nx(petersen_minus_edge())
        gm = nx.algorithms.isomorphism.GraphMatcher(g, pattern)
        found = {frozenset(m.keys()) for m in gm.subgraph_isomorphisms_iter()}
        assert found == {
            frozenset(range(0, 10)),
            frozenset(range(10, 20)),
            frozenset(range(20, 30)),
        }

    def test_ell_zero_rejected(self):
        with pytest.raises(InputError):
            counterexample_family(0)


class TestPermutationGraphs:
    def test_shape(self):
        g = permutation_graph((0, 1, 2, 3, 4))
        assert g.n == 10 and g.m == 15 and is_cubic(g)

    def test_identity_is_prism(self):
        g = permutation_graph((0, 1, 2))
        assert girth(g) == 3 and not bridges(g)

    def test_two_shift_is_petersen(self):
        assert is_isomorphic_to_petersen(permutation_graph((0, 2, 4, 1, 3)))

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            permutation_graph((0, 1))
        with pytest.raises(InputError):
            permutation_graph((0, 0, 1))
