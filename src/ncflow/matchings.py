"""Perfect matchings, complementary 2-factors, and 3-cut-respecting matchings.

Enumeration is DFS on the lowest-indexed uncovered vertex, branching over
its incident edges in id order, so streams are deterministic and
certificates reproduce.  Streams are lazy generators; each takes an
optional deadline, checked on the first search frame and every 1,024
frames after it.

Matchings that meet every 3-edge cut exactly once (the first step of the
paper's claw-free proof) are found by pruning that same search, not by
filtering its output.  In a cubic graph the side S of a 3-edge cut has
3|S| = 2e(S) + 3, so |S| is odd and every perfect matching meets the cut
in one or three edges: "exactly once" means "not all three".  The search
skips an edge while a cut through it already holds a matching edge, which
cuts off only branches without a valid matching, so the stream is the
filtered one in the same order.  Vertex stars are met once by every
perfect matching and are not tracked.  The index from edges to the
remaining cuts, with each vertex's (edge, other end) pairs that the search
walks, is built once per graph and cut list and kept while the same pair
comes back, as it does when a caller goes through every edge; without
cuts, a stream builds those pairs once when it starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, starmap
from operator import eq
from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import ContractError, InputError
from .graph import ContractedGraph, Pseudograph, contract_two_factor, is_cubic, three_edge_cuts
from .kernels import check_deadline


@dataclass(frozen=True)
class PerfectMatching:
    edge_ids: Tuple[int, ...]  # sorted

    def as_set(self) -> FrozenSet[int]:
        return frozenset(self.edge_ids)

    def __contains__(self, eid: int) -> bool:
        return eid in self.as_set()


@dataclass(frozen=True)
class Cycle:
    vertices: Tuple[int, ...]
    edges: Tuple[int, ...]  # edges[i] joins vertices[i] and vertices[(i+1) % len]

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class TwoFactor:
    """Cycle decomposition of G - F.

    `contraction` is G/F-bar when the search that built it hands the
    2-factor on, as `TwoFactor(tf.cycles, contraction=h)`, so that the
    steps after it, `coloring_from_flow` among them, do not index F-bar
    again; `complement_two_factor` gives None.  `contract_two_factor` reuses
    it only for the same G and these very cycles.  It is keyword-only and
    takes no part in equality, hashing or repr.  F's chords are the loops
    of the contraction.
    """

    cycles: Tuple[Cycle, ...]
    contraction: Optional[ContractedGraph] = field(default=None, compare=False, repr=False, kw_only=True)

    def edge_ids(self) -> FrozenSet[int]:
        return frozenset(e for cyc in self.cycles for e in cyc.edges)


def covered_vertices(g: Pseudograph, edge_ids: Iterable[int]) -> Optional[Set[int]]:
    """The vertices the edges cover, or None when they are not a matching
    (an id out of range or listed twice, two sharing a vertex, or a loop).
    They form a perfect matching when the set has g.n vertices."""
    edges = g.edges
    m = len(edges)
    seen: Set[int] = set()
    for eid in edge_ids:
        if not 0 <= eid < m:
            return None
        a, b = edges[eid]
        if a == b or a in seen or b in seen:
            return None
        seen.add(a)
        seen.add(b)
    return seen


def enumerate_perfect_matchings(
    g: Pseudograph, deadline: Optional[float] = None
) -> Iterator[PerfectMatching]:
    """Every perfect matching exactly once, in DFS order: branch on the lowest
    uncovered vertex, trying its incident edges in id order.  Raises
    SearchTimeout once `deadline` (a `time.monotonic()` value) has passed."""
    if g.n % 2 == 1:
        return
    yield from _match_dfs(g, [False] * g.n, [], None, deadline)


# frames between two deadline checks in _match_dfs
_DEADLINE_EVERY = 1024

Partners = Tuple[Tuple[Tuple[int, int], ...], ...]


def _partners(g: Pseudograph) -> Partners:
    """For each vertex v, its (edge id, other end) pairs in g.incident(v) order, loops left out."""
    edges = g.edges
    rows = []
    for v in range(g.n):
        row = []
        for eid in g.incident(v):
            a, b = edges[eid]
            if a != b:  # a loop covers its vertex twice
                row.append((eid, b if a == v else a))
        rows.append(tuple(row))
    return tuple(rows)


def _match_dfs(
    g: Pseudograph,
    covered: List[bool],
    chosen: List[int],
    index: Optional[_CutIndex],
    deadline: Optional[float],
) -> Iterator[PerfectMatching]:
    """Complete `chosen` to perfect matchings, branching on the lowest uncovered vertex.

    One frame [v, next position in v's partner pairs, partner] per matched
    edge, kept on an explicit stack; the partner is -1 while v is unmatched.
    The partner pairs come from the cut index, else are built once per
    stream.  With a cut index, an edge is skipped while a cut through it
    already holds an edge of `chosen` (blocked[eid] counts those cuts), and
    a matching is yielded only once every indexed cut holds one.
    """
    n = g.n
    if index is None:
        partners, blocked = _partners(g), None
    else:
        partners, blocked = index.partners, [0] * g.m
        touch, width, total = index.touch, index.width, index.total
        met = 0
        for eid in chosen:  # at most one edge, so no cut is met twice
            for e in touch[eid]:
                blocked[e] += 1
            met += width[eid]
    v = 0
    while v < n and covered[v]:
        v += 1
    if v == n:
        if blocked is None or met == total:
            yield PerfectMatching(tuple(sorted(chosen)))
        return
    frames = [[v, 0, -1]]
    tick = 1  # check on the first frame, so a passed deadline stops even a short stream
    while frames:
        tick -= 1
        if not tick:
            tick = _DEADLINE_EVERY
            check_deadline(deadline)
        frame = frames[-1]
        v, pos, w = frame
        if w != -1:  # take back the edge this frame tried last
            covered[v] = covered[w] = False
            eid = chosen.pop()
            if blocked is not None:
                for e in touch[eid]:
                    blocked[e] -= 1
                met -= width[eid]
        pv = partners[v]
        while pos < len(pv):
            eid, w = pv[pos]
            pos += 1
            if not covered[w] and not (blocked and blocked[eid]):
                break
        else:
            frames.pop()
            continue
        frame[1] = pos
        frame[2] = w
        covered[v] = covered[w] = True
        chosen.append(eid)
        if blocked is not None:
            for e in touch[eid]:
                blocked[e] += 1
            met += width[eid]
        # every vertex below v is covered, so the next branch vertex is above it
        u = v + 1
        while u < n and covered[u]:
            u += 1
        if u == n:
            if blocked is None or met == total:
                yield PerfectMatching(tuple(sorted(chosen)))
        else:
            frames.append([u, 0, -1])


def complement_two_factor(g: Pseudograph, f: PerfectMatching) -> TwoFactor:
    """Cycle decomposition of G - F for cubic G; 2-cycles from parallel edges allowed.

    Each cycle starts at its lowest vertex, leaves it by its lower non-F
    edge and walks on through the one non-F edge at each vertex that it did
    not arrive by; cycles come in the order of their lowest vertices.
    """
    if not is_cubic(g):
        raise InputError("complement_two_factor requires a cubic graph")
    edges = g.edges
    if any(starmap(eq, edges)):
        raise InputError("cubic input graphs may not contain loops")
    cover = covered_vertices(g, f.edge_ids)
    if cover is None or len(cover) != g.n:
        raise ContractError("not a perfect matching of this graph")
    in_f = [False] * len(edges)
    for eid in f.edge_ids:
        in_f[eid] = True
    # F is perfect and G cubic and loop-free: every vertex has two non-F edges
    incident = g._incident
    on_cycle = [False] * g.n
    cycles: List[Cycle] = []
    for start in range(g.n):
        if on_cycle[start]:
            continue
        on_cycle[start] = True
        verts = [start]
        cyc_edges: List[int] = []
        v, came_by = start, -1
        while True:
            for eid in incident[v]:
                if not in_f[eid] and eid != came_by:
                    break
            cyc_edges.append(eid)
            a, b = edges[eid]
            v, came_by = (b if a == v else a), eid
            if v == start:
                break
            on_cycle[v] = True
            verts.append(v)
        cycles.append(Cycle(tuple(verts), tuple(cyc_edges)))
    return TwoFactor(tuple(cycles))


def _two_factor_from_cycles(g: Pseudograph, cycles: Sequence[Cycle]) -> TwoFactor:
    """The 2-factor made of vertex-disjoint cycles covering G, carrying
    its contraction.

    Raises ContractError as `_two_factor_index` does."""
    cycles = tuple(cycles)
    return TwoFactor(cycles, contraction=contract_two_factor(g, TwoFactor(cycles)))


def matchings_through_edge(
    g: Pseudograph,
    eid: int,
    cuts: Optional[Sequence[Sequence[int]]] = None,
    deadline: Optional[float] = None,
) -> Iterator[PerfectMatching]:
    """Perfect matchings containing a prescribed edge; empty on bridged inputs is allowed.

    With `cuts`, only the matchings that meet every listed edge set in
    exactly one edge, found by pruning the search (see the module
    docstring).  Raises SearchTimeout once `deadline` has passed.
    """
    if g.is_loop(eid):
        return
    index = None if cuts is None else _cut_index(g, cuts)
    u, v = g.endpoints(eid)
    covered = [False] * g.n
    covered[u] = covered[v] = True
    yield from _match_dfs(g, covered, [eid], index, deadline)


def select_matchings(g: Pseudograph, selector: str, deadline: Optional[float] = None) -> Iterable[PerfectMatching]:
    """The perfect matchings `flow search --matching SELECTOR` searches, in
    stream order: "all" (every one), "INDEX" (the INDEX-th, from 0) or
    "edge=ID" (those through edge ID).  Raises InputError on an index past
    the last matching or an edge id that is out of range or a loop, and
    ValueError when INDEX or ID is not an integer; an INDEX is looked up at
    once, under the deadline."""
    if selector == "all":
        return enumerate_perfect_matchings(g, deadline=deadline)
    if selector.startswith("edge="):
        eid = int(selector[5:])
        if not 0 <= eid < g.m or g.is_loop(eid):
            raise InputError(f"--matching {selector}: no non-loop edge {eid}")
        return matchings_through_edge(g, eid, deadline=deadline)
    idx = int(selector)
    picked = []
    if idx >= 0:
        picked = list(islice(enumerate_perfect_matchings(g, deadline=deadline), idx, idx + 1))
    if not picked:
        raise InputError(f"--matching {selector}: no perfect matching with index {idx}")
    return picked


@dataclass(frozen=True)
class _CutIndex:
    """The cuts that are not vertex stars, seen from each edge, and the
    graph's `_partners` table, which the searches through each edge share.

    touch[e] lists the edges of every such cut through e (e itself once
    per cut), width[e] counts those cuts, total counts them all.
    """

    touch: Tuple[Tuple[int, ...], ...]
    width: Tuple[int, ...]
    total: int
    partners: Partners


# the last graph, its cut list as a tuple, and their index: callers pass
# the same cuts for every edge of a graph, so the index is built once
_last_index: Tuple[Optional[Pseudograph], tuple, Optional[_CutIndex]] = (None, (), None)


def _cut_index(g: Pseudograph, cuts: Iterable[Sequence[int]]) -> _CutIndex:
    global _last_index
    key = tuple(cuts)
    last_g, last_key, index = _last_index
    if last_g is g and last_key == key:
        return index
    # a perfect matching meets the star of every vertex exactly once
    stars = {frozenset(g.incident(v)) for v in range(g.n)}
    m = g.m
    touch: List[List[int]] = [[] for _ in range(m)]
    width = [0] * m
    total = 0
    for cut in key:
        ids = frozenset(cut)
        if ids in stars:
            continue
        total += 1
        inside = sorted(e for e in ids if 0 <= e < m)
        for e in inside:
            touch[e].extend(inside)
            width[e] += 1
    index = _CutIndex(tuple(map(tuple, touch)), tuple(width), total, _partners(g))
    _last_index = (g, key, index)
    return index


def matchings_meeting_all_3cuts_once(
    g: Pseudograph,
    eid: int,
    cuts: Optional[Sequence[Tuple[int, int, int]]] = None,
    deadline: Optional[float] = None,
) -> Iterator[PerfectMatching]:
    """Matchings through eid that intersect every 3-edge-cut in exactly one edge.

    In a cubic graph a perfect matching meets every 3-edge cut in one or
    three edges (the side S of a cut has 3|S| = 2e(S) + 3, so |S| is odd),
    so "exactly once" means "not all three".  The search therefore skips
    every edge whose cut already holds a matching edge, which removes only
    branches without a valid matching: the stream is that of
    matchings_through_edge with the cut test applied, in the same order.
    Vertex stars are met once by every perfect matching and are not
    tracked; any listed edge set that is not a cut is still checked for
    exactly one matching edge before a matching is yielded.

    The cut index is built once and reused while the same graph and cut
    list come back, so pass one list (by default three_edge_cuts(g),
    computed per call) for every edge of a graph.
    """
    if cuts is None:
        cuts = three_edge_cuts(g)
    yield from matchings_through_edge(g, eid, cuts, deadline)


def odd_cycle_count(tf: TwoFactor) -> int:
    count = sum(1 for cyc in tf.cycles if len(cyc) % 2 == 1)
    return count
