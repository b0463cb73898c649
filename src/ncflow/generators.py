"""Named graphs and parametric families, built deterministically.

Every generator returns the same edge list byte-for-byte on every call;
port orders and attachment choices are fixed and documented inline, since
certificates fingerprint the exact edge list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .errors import InputError
from .graph import Pseudograph, build_graph
from .matchings import Cycle, TwoFactor


def petersen() -> Pseudograph:
    """Outer 5-cycle 0..4, inner pentagram 5..9 (i ~ i+2), spokes i -- i+5."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    edges += [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    edges += [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
    return build_graph(10, edges)


def petersen_minus_edge() -> Pseudograph:
    """Petersen minus the outer edge 01; vertices 0 and 1 are the degree-2 ports."""
    g = petersen()
    return build_graph(10, [e for e in g.edges if e != (0, 1)])


def petersen_minus_vertex() -> Pseudograph:
    """Petersen minus vertex 0 (vertex-transitive, so the choice is free).

    Remaining vertices relabel v -> v - 1; the three degree-2 ports are
    0, 3 and 4 (old 1, 4 and 5).
    """
    g = petersen()
    edges = [(u - 1, v - 1) for u, v in g.edges if 0 not in (u, v)]
    return build_graph(9, edges)


def k4() -> Pseudograph:
    return build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def k23() -> Pseudograph:
    """Two vertices joined by three parallel edges."""
    return build_graph(2, [(0, 1), (0, 1), (0, 1)])


def k33() -> Pseudograph:
    return build_graph(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)])


_GADGET = [(0, 1), (0, 2), (1, 3), (2, 4), (1, 4), (2, 3), (3, 4)]


def fig3_graph() -> Pseudograph:
    """Two pentahedral gadgets joined by a bridge between their apexes.

    Each gadget is K4 on {1,2,3,4} minus the edge 12, with apex 0 joined
    to 1 and 2; the bridge 0--5 is the last edge (id 14).
    """
    edges = list(_GADGET)
    edges += [(u + 5, v + 5) for u, v in _GADGET]
    edges.append((0, 5))
    return build_graph(10, edges)


def fig3_published_coloring() -> Tuple[int, ...]:
    """The 7-coloring shown in the figure: bridge color 1 and poor, all
    other edges rich; both gadgets colored identically."""
    gadget = (2, 3, 4, 5, 6, 7, 1)
    return gadget + gadget + (1,)


def fig4_graph() -> Pseudograph:
    """Central vertex 0 joined to three triangles that each carry a doubled edge.

    Triangle i sits on vertices 3i+1 (apex), 3i+2, 3i+3; the edge between
    the two non-apex vertices is doubled, which forces abnormality.
    """
    edges: List[Tuple[int, int]] = []
    for i in range(3):
        a, b, c = 3 * i + 1, 3 * i + 2, 3 * i + 3
        edges += [(0, a), (a, b), (a, c), (b, c), (b, c)]
    return build_graph(10, edges)


# ---------------------------------------------------------------------------
# diamonds and strings


@dataclass(frozen=True)
class StringGadget:
    graph: Pseudograph
    head: int
    tail: int


def diamond() -> Pseudograph:
    """K4 minus the edge 03; vertices 0 (head) and 3 (tail) have degree 2."""
    return build_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def _unit(kind: str, base: int) -> Tuple[List[Tuple[int, int]], int, int, int]:
    """(edges, head, tail, vertex count) of one chain unit at a vertex offset."""
    if kind == "D":
        edges = [(base + u, base + v) for u, v in diamond().edges]
        return edges, base, base + 3, 4
    if kind == "2":
        return [(base, base + 1), (base, base + 1)], base, base + 1, 2
    raise InputError(f"unknown string unit {kind!r}; use 'D' (diamond) or '2' (2-cycle)")


def string_of_diamonds(k: int) -> StringGadget:
    """Chain of k diamonds, consecutive tails wired to heads."""
    if k < 1:
        raise InputError("a string needs at least one diamond")
    return string_gadget("D" * k)


def string_gadget(spec: str) -> StringGadget:
    """Chain of diamonds and 2-cycles per a spec string such as 'D2D'."""
    if not spec:
        raise InputError("empty string spec")
    edges: List[Tuple[int, int]] = []
    n = 0
    head = tail = -1
    for i, kind in enumerate(spec):
        unit_edges, h, t, size = _unit(kind, n)
        edges += unit_edges
        if i == 0:
            head = h
        else:
            edges.append((tail, h))
        tail = t
        n += size
    return StringGadget(build_graph(n, edges), head, tail)


def ring_of_diamonds(k: int) -> Pseudograph:
    if k < 2:
        raise InputError("a ring of diamonds contains at least two diamonds")
    s = string_of_diamonds(k)
    return build_graph(s.graph.n, list(s.graph.edges) + [(s.tail, s.head)])


def replace_edge_with_string(g: Pseudograph, eid: int, spec: str) -> Pseudograph:
    """Remove edge uv and splice in a chain; u meets the head, v the tail.

    Surviving edges keep their relative order (ids below eid unchanged,
    ids above shift down by one); chain edges are appended.
    """
    if g.is_loop(eid):
        raise InputError("cannot splice a chain into a loop")
    u, v = g.endpoints(eid)
    s = string_gadget(spec)
    base = g.n
    edges = [e for i, e in enumerate(g.edges) if i != eid]
    edges += [(base + a, base + b) for a, b in s.graph.edges]
    edges.append((u, base + s.head))
    edges.append((base + s.tail, v))
    return build_graph(g.n + s.graph.n, edges)


def replace_vertex_with_triangle(g: Pseudograph, v: int) -> Pseudograph:
    """Expand v into a triangle; incident edge j (in incident order) moves to
    the j-th triangle vertex.  Triangle corners are v, n, n+1."""
    inc = g.incident(v)
    if len(inc) != 3 or any(g.is_loop(e) for e in inc):
        raise InputError("triangle replacement needs a loop-free degree-3 vertex")
    corners = [v, g.n, g.n + 1]
    moved = {eid: corners[j] for j, eid in enumerate(inc)}
    edges = []
    for eid, (a, b) in enumerate(g.edges):
        if eid in moved:
            other = g.other_end(eid, v)
            edges.append((moved[eid], other) if a == v else (other, moved[eid]))
        else:
            edges.append((a, b))
    edges += [(corners[0], corners[1]), (corners[0], corners[2]), (corners[1], corners[2])]
    return build_graph(g.n + 2, edges)


def triangle_replace_all(g: Pseudograph) -> Pseudograph:
    """Replace every original vertex of a cubic simple graph with a triangle."""
    out = g
    for v in range(g.n):
        out = replace_vertex_with_triangle(out, v)
    return out


# ---------------------------------------------------------------------------
# 5-regular expansion


def expand_vertices_to_5cycles(h5: Pseudograph) -> Tuple[Pseudograph, TwoFactor]:
    """Blow each vertex of a 5-regular graph up into a 5-cycle.

    Vertex v becomes the cycle 5v..5v+4 (cycle edges first, ids 0..5n-1);
    the original edges follow in id order, each endpoint taking the next
    free port of its cycle (the rotation is the edge-id order, which is
    part of the construction's identity).
    """
    for v in range(h5.n):
        if h5.degree(v) != 5:
            raise InputError("expansion requires a 5-regular graph")
    edges: List[Tuple[int, int]] = []
    cycles: List[Cycle] = []
    for v in range(h5.n):
        base = 5 * v
        verts = tuple(range(base, base + 5))
        eids = tuple(range(len(edges), len(edges) + 5))
        edges += [(base + j, base + (j + 1) % 5) for j in range(5)]
        cycles.append(Cycle(verts, eids))
    port = [0] * h5.n
    for u, v in h5.edges:
        a = 5 * u + port[u]
        port[u] += 1
        b = 5 * v + port[v]
        port[v] += 1
        edges.append((a, b))
    g = build_graph(5 * h5.n, edges)
    return g, TwoFactor(tuple(cycles))


def k6() -> Pseudograph:
    return build_graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])


# ---------------------------------------------------------------------------
# the arbitrarily-large negative family


def counterexample_family(ell: int) -> Pseudograph:
    """3*ell blocks, each a copy of the 15-edge graph minus an edge, joined
    cyclically by length-2 paths, plus ell hub vertices.

    Copy j occupies 10j..10j+9 with ports 10j and 10j+1; path center c_j
    (vertex 30*ell + j) joins copy j's port 1 to copy (j+1)'s port 0; hub
    u_i (vertex 33*ell + i) picks up the three consecutive centers
    c_{3i}, c_{3i+1}, c_{3i+2}.
    """
    if ell < 1:
        raise InputError("the family needs at least one hub")
    blocks = 3 * ell
    base_edges = petersen_minus_edge().edges
    edges: List[Tuple[int, int]] = []
    for j in range(blocks):
        edges += [(u + 10 * j, v + 10 * j) for u, v in base_edges]
    centers = 30 * ell
    for j in range(blocks):
        nxt = (j + 1) % blocks
        edges.append((10 * j + 1, centers + j))
        edges.append((centers + j, 10 * nxt))
    hubs = 33 * ell
    for i in range(ell):
        for j in range(3):
            edges.append((hubs + i, centers + 3 * i + j))
    return build_graph(34 * ell, edges)


# ---------------------------------------------------------------------------
# two-cycle 2-factor instances


def permutation_graph(sigma: Sequence[int]) -> Pseudograph:
    """Two n-cycles joined by the matching i -- n + sigma(i)."""
    n = len(sigma)
    if n < 3:
        raise InputError("permutation graphs need cycles of length at least 3")
    if sorted(sigma) != list(range(n)):
        raise InputError("not a permutation of 0..n-1")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + sigma[i]) for i in range(n)]
    return build_graph(2 * n, edges)


def k23_with_p10v() -> Pseudograph:
    """Both vertices of the triple edge replaced by a vertex-deleted copy of
    the 10-vertex graph; ports paired in ascending order: (0,9), (3,12), (4,13)."""
    base = petersen_minus_vertex()
    edges = list(base.edges)
    edges += [(u + 9, v + 9) for u, v in base.edges]
    edges += [(0, 9), (3, 12), (4, 13)]
    return build_graph(18, edges)
