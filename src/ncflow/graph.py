"""Pseudograph representation, structural predicates, and 2-factor contraction.

Edges carry stable integer identities (0..m-1, in construction order).
Contraction never renumbers source edges: conflict detection on the
quotient must be able to point back at original incidences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import ContractError, InputError

INFINITY = float("inf")

# One (u, v) tuple per vertex pair, shared by every graph built in this
# process, so that thousands of small graphs held at once (a sweep's inputs)
# do not each keep their own copies.  Tuples are immutable, so sharing is
# invisible to callers; only ids below the limit are kept, which bounds the
# table at _SHARED_PAIR_LIMIT ** 2 entries.
_SHARED_PAIR_LIMIT = 128
_shared_pairs: Dict[Tuple[int, int], Tuple[int, int]] = {}


class Pseudograph:
    """Undirected multigraph allowing loops and parallel edges.

    A loop contributes 2 to the degree of its vertex.  Instances are
    immutable after construction and safe to share across workers.
    `_has_loop` records whether any edge is a loop.
    """

    __slots__ = ("n", "edges", "_incident", "_degree", "_has_loop")

    def __init__(self, n: int, edges: Sequence[Tuple[int, int]]):
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        pairs = []
        shared, limit = _shared_pairs, _SHARED_PAIR_LIMIT
        incident: List[List[int]] = [[] for _ in range(n)]
        loops = []
        for eid, (u, v) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for {n} vertices")
            pair = (u, v)
            if u < limit and v < limit:
                pair = shared.setdefault(pair, pair)
            pairs.append(pair)
            incident[u].append(eid)
            if v != u:
                incident[v].append(eid)
            else:
                loops.append(u)
        degree = list(map(len, incident))
        for u in loops:
            degree[u] += 1  # a loop counts twice, listed once
        self.n = n
        self.edges = tuple(pairs)
        self._incident = tuple(map(tuple, incident))
        self._degree = tuple(degree)
        self._has_loop = bool(loops)

    @property
    def m(self) -> int:
        return len(self.edges)

    def endpoints(self, eid: int) -> Tuple[int, int]:
        return self.edges[eid]

    def is_loop(self, eid: int) -> bool:
        u, v = self.edges[eid]
        return u == v

    def other_end(self, eid: int, v: int) -> int:
        a, b = self.edges[eid]
        return b if v == a else a

    def degree(self, v: int) -> int:
        return self._degree[v]

    def incident(self, v: int) -> Tuple[int, ...]:
        """Edge ids touching v; loops appear once."""
        return self._incident[v]

    def neighbors(self, v: int) -> List[int]:
        """Neighbor vertices with multiplicity; loops excluded."""
        out = []
        for eid in self._incident[v]:
            w = self.other_end(eid, v)
            if w != v:
                out.append(w)
        return out

    def has_edge(self, u: int, v: int) -> bool:
        return any(self.other_end(eid, u) == v for eid in self._incident[u] if not self.is_loop(eid)) \
            if u != v else any(self.is_loop(eid) for eid in self._incident[u])

    def multiplicity(self, u: int, v: int) -> int:
        if u == v:
            return sum(1 for eid in self._incident[u] if self.is_loop(eid))
        return sum(1 for eid in self._incident[u] if self.other_end(eid, u) == v)

    def is_simple(self) -> bool:
        seen = set()
        for u, v in self.edges:
            if u == v:
                return False
            key = (u, v) if u < v else (v, u)
            if key in seen:
                return False
            seen.add(key)
        return True

    def __repr__(self) -> str:
        return f"Pseudograph(n={self.n}, m={self.m})"


def build_graph(vertex_count: int, edge_list: Iterable[Tuple[int, int]]) -> Pseudograph:
    """Build a pseudograph; edge ids are assigned in list order."""
    return Pseudograph(vertex_count, list(edge_list))


def is_cubic(g: Pseudograph) -> bool:
    return g._degree.count(3) == g.n


def connected_components(g: Pseudograph, removed_edges: frozenset = frozenset()) -> List[List[int]]:
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            v = stack.pop()
            for eid in g.incident(v):
                if eid in removed_edges:
                    continue
                w = g.other_end(eid, v)
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def is_connected(g: Pseudograph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def bridges(g: Pseudograph) -> List[int]:
    """Cut-edges in increasing order: the non-loop edges that lie on no
    cycle, whose `_cycle_space` vector is zero.  Loops and parallel copies
    never qualify."""
    vec = _cycle_space(g)[0]
    return [eid for eid, (x, (u, v)) in enumerate(zip(vec, g.edges)) if not x and u != v]


def girth(g: Pseudograph):
    """Length of a shortest cycle; loop = 1, parallel pair = 2, forests -> inf."""
    if g._has_loop:
        return 1
    seen = set()
    for u, v in g.edges:
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return 2
        seen.add(key)
    best = INFINITY
    # simple graph: for each edge, shortest u-v path avoiding that edge
    for eid, (u, v) in enumerate(g.edges):
        dist = {u: 0}
        frontier = [u]
        while frontier and v not in dist:
            nxt = []
            for a in frontier:
                for e2 in g.incident(a):
                    if e2 == eid:
                        continue
                    b = g.other_end(e2, a)
                    if b not in dist:
                        dist[b] = dist[a] + 1
                        nxt.append(b)
            frontier = nxt
        if v in dist and dist[v] + 1 < best:
            best = dist[v] + 1
    return best


@dataclass(frozen=True)
class ContractedGraph:
    """G / F-bar for one 2-factor F-bar of G, with the edge-identity bridge back to G.

    graph             -- G
    cycles            -- F-bar's cycles, the very tuple indexed; cycle i is quotient vertex i
    quotient_edges    -- quotient edge id -> its (cycle, cycle) ends
    matching_edge_at  -- G-vertex -> quotient edge at it
    edge_origin       -- quotient edge id -> source edge id in G
    vertex_cycle      -- G-vertex -> quotient vertex

    The quotient edge of an F-edge e is matching_edge_at at either end of
    e, and the chords of F-bar (F-edges with both ends on one cycle) are
    the loops of `quotient_edges`.  Only `contract_two_factor` makes one.
    `quotient`, the Pseudograph on `quotient_edges`, is built the first
    time it is read.
    """

    graph: Pseudograph
    cycles: tuple
    quotient_edges: Tuple[Tuple[int, int], ...]
    matching_edge_at: Tuple[int, ...]
    edge_origin: Tuple[int, ...]
    vertex_cycle: Tuple[int, ...]

    @cached_property
    def quotient(self) -> Pseudograph:
        return Pseudograph(len(self.cycles), self.quotient_edges)


def _two_factor_index(g: Pseudograph, cycles) -> Tuple[List[int], List[int], List[int]]:
    """(G-vertex -> index of its cycle, the off-cycle edge ids in id order,
    G-vertex -> position of its off-cycle edge in that list).

    The off-cycle edges are F for the 2-factor F-bar, and position i is
    quotient edge i of G/F-bar.  Raises ContractError unless the cycles
    cover every vertex exactly once, use edges of G only, and leave a
    perfect matching of G off the cycles.
    """
    n, m = g.n, g.m
    vertex_cycle = [-1] * n
    on_cycle = [False] * m
    total = 0
    for ci, cyc in enumerate(cycles):
        vertices = cyc.vertices
        total += len(vertices)
        for v in vertices:
            vertex_cycle[v] = ci
        for eid in cyc.edges:
            if not 0 <= eid < m:
                raise ContractError(f"2-factor edge {eid} is not an edge of the graph")
            on_cycle[eid] = True
    if -1 in vertex_cycle:
        raise ContractError("2-factor does not cover all vertices")
    # n places on the cycles that reach all n vertices hold each one once
    if total != n:
        raise ContractError("2-factor cycles are not vertex-disjoint")
    ids = [eid for eid, on in enumerate(on_cycle) if not on]
    at = [-1] * n
    edges = g.edges
    for i, eid in enumerate(ids):
        u, v = edges[eid]
        at[u] = at[v] = i
    # n endpoints (a loop's two included) reach all n vertices only when
    # each vertex is the end of exactly one edge
    if 2 * len(ids) != n or -1 in at:
        raise ContractError("the edges off the 2-factor are not a perfect matching")
    return vertex_cycle, ids, at


def contract_two_factor(g: Pseudograph, two_factor) -> ContractedGraph:
    """Collapse each cycle of the 2-factor; the quotient edges are the F-edges.

    Quotient edges are numbered in G's edge-id order.  Chords (F-edges with
    both endpoints on one cycle) become loops.  The contraction the
    2-factor carries (`TwoFactor.contraction`) comes back as it is when it
    was made on g from these very cycles, and nothing is indexed; any other
    graph or cycles are indexed afresh.  Raises ContractError as
    `_two_factor_index` does.
    """
    cycles = two_factor.cycles
    h = two_factor.contraction
    if h is not None and h.graph is g and h.cycles is cycles:
        return h
    vertex_cycle, ids, at = _two_factor_index(g, cycles)
    edges = g.edges
    q_edges = []
    for eid in ids:
        u, v = edges[eid]
        q_edges.append((vertex_cycle[u], vertex_cycle[v]))
    return ContractedGraph(
        graph=g,
        cycles=cycles,
        quotient_edges=tuple(q_edges),
        matching_edge_at=tuple(at),
        edge_origin=tuple(ids),
        vertex_cycle=tuple(vertex_cycle),
    )


def _contract_vertex_sets(
    g: Pseudograph, groups: Sequence[Set[int]]
) -> Tuple[Pseudograph, Dict[int, int], Dict[int, int]]:
    """Contract each of the disjoint vertex sets `groups` to one new vertex,
    dropping the edges inside a set.  Returns (graph, vertex_map old->new
    for the vertices in no set, edge_map new->old); set i becomes vertex
    z + i, after the z vertices in no set."""
    group_of: Dict[int, int] = {}
    for i, members in enumerate(groups):
        for v in members:
            group_of[v] = i
    vmap: Dict[int, int] = {}
    for v in range(g.n):
        if v not in group_of:
            vmap[v] = len(vmap)
    z = len(vmap)
    edges = []
    emap: Dict[int, int] = {}
    for eid, (a, b) in enumerate(g.edges):
        ga, gb = group_of.get(a), group_of.get(b)
        if ga is not None and ga == gb:
            continue
        emap[len(edges)] = eid
        edges.append((vmap[a] if ga is None else z + ga, vmap[b] if gb is None else z + gb))
    return Pseudograph(z + len(groups), edges), vmap, emap


def _cycle_space(g: Pseudograph) -> Tuple[List[int], int, List[int], List[int]]:
    """(edge id -> its vector in the cycle space, number of components,
    the vertices in DFS preorder, vertex -> the tree edge to its parent or
    -1 at a root).

    One DFS forest: each non-tree edge that is not a loop gets one bit (its
    fundamental cycle), and a tree edge gets the XOR of the bits of the
    fundamental cycles through it.  An edge set is a boundary (an edge cut)
    exactly when its vectors XOR to zero, so bridges and loops get 0.  Each
    subtree is a contiguous run of the preorder.
    """
    n, edges = g.n, g.edges
    # order lists every parent before its children
    parent_edge = [-1] * n
    seen = [False] * n
    order: List[int] = []
    components = 0
    for root in range(n):
        if seen[root]:
            continue
        components += 1
        stack = [root]
        while stack:
            v = stack.pop()
            if seen[v]:
                continue
            seen[v] = True
            order.append(v)
            for eid in g.incident(v):
                w = g.other_end(eid, v)
                if not seen[w]:
                    parent_edge[w] = eid
                    stack.append(w)
    tree = set(parent_edge)
    vec = [0] * g.m
    sub = [0] * n  # XOR of the non-tree bits at the vertices of v's subtree
    bit = 1
    for eid, (u, v) in enumerate(edges):
        if eid in tree or u == v:
            continue
        vec[eid] = bit
        sub[u] ^= bit
        sub[v] ^= bit
        bit <<= 1
    for v in reversed(order):
        eid = parent_edge[v]
        if eid != -1:
            vec[eid] = sub[v]
            sub[g.other_end(eid, v)] ^= sub[v]
    return vec, components, order, parent_edge


def _cut_classes(vec: List[int]) -> List[Tuple[int, ...]]:
    """The 2-edge cuts, in classes, from `_cycle_space`'s vectors: the edge
    ids grouped by nonzero vector, groups of two or more only, each in
    increasing order, ordered by their first edge.  Any two edges of a class
    disconnect their component, and every 2-edge cut lies in one class."""
    bucket: Dict[int, List[int]] = {}
    for eid, x in enumerate(vec):
        if x:
            bucket.setdefault(x, []).append(eid)
    return sorted(tuple(ids) for ids in bucket.values() if len(ids) > 1)


def _two_cut_pieces(g: Pseudograph, cut: Optional[Tuple[int, int]] = None):
    """g cut at all its 2-edge cuts at once, from one `_cycle_space` pass,
    or at the one 2-edge cut `cut` when it is given: (pieces, G-vertex ->
    its piece, G-edge -> (piece, edge id there) or (-1, ring) on a ring,
    ring -> its virtual edges as (piece, edge id there) in ring order).

    Removing the r edges of a class (`_cut_classes`) leaves r pieces in a
    ring.  The DFS forest has no cross edges and a non-tree edge's vector
    is a bit of its own, so a class holds at most one non-tree edge, and
    its tree edges lie on the fundamental cycle of any bit of their vector:
    on one root path, in preorder from the top down.  The ring runs down
    that path, parent to child, then up the non-tree edge if there is one,
    or else round the rest of that cycle.  Each piece gets a virtual edge
    on each ring it lies on, from its "-" stub, where the ring edge before
    it arrives, to its "+" stub, where the next one leaves.  The pieces
    are the components of G without its ring edges, with the virtual
    edges, numbered by their lowest vertex; each keeps G's vertex and edge
    order, then has its virtual edges in ring order.  Cut at every class,
    a cubic g falls into cubic 3-edge-connected pieces.  None when g is
    disconnected, or when no cut is given and g has a bridge or no 2-edge
    cut, or when `cut` is not a 2-edge cut.
    """
    vec, components, order, parent_edge = _cycle_space(g)
    if components != 1:
        return None
    if cut is not None:
        e, f = sorted(cut)
        classes = [(e, f)] if e != f and vec[e] == vec[f] != 0 else []
    elif any(not x and u != v for x, (u, v) in zip(vec, g.edges)):
        return None
    else:
        classes = _cut_classes(vec)
    if not classes:
        return None
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    below = {parent_edge[v]: v for v in order if parent_edge[v] != -1}  # tree edge -> child end
    ring_of: Dict[int, int] = {}
    virtual = []  # (ring, "-" stub, "+" stub)
    for r, cls in enumerate(classes):
        tree = sorted((e for e in cls if e in below), key=lambda e: pos[below[e]])
        ring = [(g.other_end(e, below[e]), below[e]) for e in tree]  # (tail, head)
        ring += [(u, v) if pos[u] > pos[v] else (v, u) for u, v in (g.edges[e] for e in cls if e not in below)]
        virtual += [(r, ring[i - 1][1], tail) for i, (tail, _head) in enumerate(ring)]
        ring_of.update(dict.fromkeys(cls, r))
    kept = [eid for eid in range(g.m) if eid not in ring_of]
    joined = [g.edges[eid] for eid in kept] + [(a, b) for _r, a, b in virtual]
    piece_of, local = [0] * g.n, [0] * g.n
    comps = connected_components(Pseudograph(g.n, joined))
    for p, comp in enumerate(comps):
        for i, v in enumerate(sorted(comp)):
            piece_of[v], local[v] = p, i
    edges: List[List[Tuple[int, int]]] = [[] for _ in comps]
    at = []  # edge of `joined` -> (piece, edge id there)
    for u, v in joined:
        at.append((piece_of[u], len(edges[piece_of[u]])))
        edges[piece_of[u]].append((local[u], local[v]))
    edge_at = [(-1, ring_of.get(eid, -1)) for eid in range(g.m)]
    for eid, spot in zip(kept, at):
        edge_at[eid] = spot
    rings: List[List[Tuple[int, int]]] = [[] for _ in classes]
    for (r, _a, _b), spot in zip(virtual, at[len(kept):]):
        rings[r].append(spot)
    graphs = [Pseudograph(len(comp), es) for comp, es in zip(comps, edges)]
    return graphs, piece_of, edge_at, rings


def three_edge_cuts(g: Pseudograph) -> List[Tuple[int, int, int]]:
    """All 3-edge cuts, i.e. triples of the form boundary(S), in lexicographic order.

    {a, b, c} is a cut exactly when the three cycle-space vectors XOR to
    zero (`_cycle_space`), which bucketing the edges by vector finds in
    O(m^2) lookups.  Triples that disconnect but leave an edge inside one
    side are not cuts.  Vertex stars of a cubic graph count as (trivial)
    cuts; callers needing non-trivial ones filter by side sizes.
    """
    vec, components, _order, _parent = _cycle_space(g)
    if components > 1:
        raise InputError("three_edge_cuts requires a connected graph")
    # a loop is a cycle on its own, so it lies in no cut: leave loops out
    ids = [eid for eid, (u, v) in enumerate(g.edges) if u != v]
    bucket: Dict[int, List[int]] = {}
    for eid in ids:
        bucket.setdefault(vec[eid], []).append(eid)
    cuts = []
    for i, a in enumerate(ids):
        va = vec[a]
        for b in ids[i + 1:]:
            for c in bucket.get(va ^ vec[b], ()):
                if c > b:
                    cuts.append((a, b, c))
    return cuts


def is_claw_free(g: Pseudograph) -> bool:
    """True iff no four vertices induce K_{1,3}."""
    for v in range(g.n):
        nbrs = sorted(set(g.neighbors(v)))
        if len(nbrs) < 3:
            continue
        for a, b, c in itertools.combinations(nbrs, 3):
            if g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c):
                continue
            # induced subgraph must be exactly K_{1,3}: single edges, no loops
            if any(g.multiplicity(v, x) != 1 for x in (a, b, c)):
                continue
            if any(g.multiplicity(x, x) for x in (v, a, b, c)):
                continue
            return False
    return True


def is_isomorphic_to_petersen(g: Pseudograph) -> bool:
    """The Petersen graph is the only cubic graph on 10 vertices of girth 5.

    By the Moore bound every component of a cubic graph of girth 5 has at
    least 10 vertices, and the (3,5)-cage on 10 vertices is unique.
    """
    return g.n == 10 and is_cubic(g) and girth(g) == 5
