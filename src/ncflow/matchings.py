"""Perfect matchings, complementary 2-factors, and 3-cut-respecting matchings.

Enumeration is DFS on the lowest-indexed uncovered vertex, branching over
its incident edges in id order, so streams are deterministic and
certificates reproduce.  Streams are lazy generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import ContractError, InputError
from .graph import Pseudograph, _two_factor_marks, is_cubic, three_edge_cuts


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
    """Cycle decomposition of G - F, with the F-chords of each cycle recorded."""

    cycles: Tuple[Cycle, ...]
    chord_ids: Tuple[int, ...]  # F-edges with both endpoints on one cycle

    def edge_ids(self) -> FrozenSet[int]:
        return frozenset(e for cyc in self.cycles for e in cyc.edges)

    def cycle_of(self, v: int) -> int:
        for ci, cyc in enumerate(self.cycles):
            if v in cyc.vertices:
                return ci
        raise KeyError(v)


def covered_vertices(g: Pseudograph, edge_ids: Iterable[int]) -> Optional[Set[int]]:
    """The vertices the edges cover, or None when they are not a matching
    (an id out of range or listed twice, two sharing a vertex, or a loop).
    They form a perfect matching when the set has g.n vertices."""
    seen: Set[int] = set()
    for eid in edge_ids:
        if not 0 <= eid < g.m:
            return None
        a, b = g.endpoints(eid)
        if a == b or a in seen or b in seen:
            return None
        seen.add(a)
        seen.add(b)
    return seen


def enumerate_perfect_matchings(g: Pseudograph) -> Iterator[PerfectMatching]:
    """Every perfect matching exactly once, in DFS order: branch on the lowest
    uncovered vertex, trying its incident edges in id order."""
    if g.n % 2 == 1:
        return
    yield from _match_dfs(g, [False] * g.n, [])


def _match_dfs(g: Pseudograph, covered: List[bool], chosen: List[int]) -> Iterator[PerfectMatching]:
    """Complete `chosen` to perfect matchings, branching on the lowest uncovered vertex.

    One frame [v, next position in g.incident(v), partner] per matched
    edge, kept on an explicit stack; the partner is -1 while v is unmatched.
    """
    n, edges = g.n, g.edges
    v = 0
    while v < n and covered[v]:
        v += 1
    if v == n:
        yield PerfectMatching(tuple(sorted(chosen)))
        return
    frames = [[v, 0, -1]]
    while frames:
        frame = frames[-1]
        v, pos, w = frame
        if w != -1:  # take back the edge this frame tried last
            covered[v] = covered[w] = False
            chosen.pop()
        inc = g.incident(v)
        while pos < len(inc):
            eid = inc[pos]
            pos += 1
            a, b = edges[eid]
            w = b if a == v else a
            if a != b and not covered[w]:  # a loop covers its vertex twice
                break
        else:
            frames.pop()
            continue
        frame[1] = pos
        frame[2] = w
        covered[v] = covered[w] = True
        chosen.append(eid)
        # every vertex below v is covered, so the next branch vertex is above it
        u = v + 1
        while u < n and covered[u]:
            u += 1
        if u == n:
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
    if any(u == v for u, v in edges):
        raise InputError("cubic input graphs may not contain loops")
    m = len(edges)
    in_f = [False] * m
    covered = [0] * g.n
    for eid in f.edge_ids:
        if not 0 <= eid < m or in_f[eid]:
            raise ContractError("not a perfect matching of this graph")
        in_f[eid] = True
        u, v = edges[eid]
        covered[u] += 1
        covered[v] += 1
    if covered.count(1) != g.n:
        raise ContractError("not a perfect matching of this graph")
    # F is perfect and G cubic and loop-free: every vertex has two non-F edges
    incident = g.incident
    cycle_of = [-1] * g.n
    cycles: List[Cycle] = []
    for start in range(g.n):
        if cycle_of[start] != -1:
            continue
        ci = len(cycles)
        cycle_of[start] = ci
        verts = [start]
        cyc_edges: List[int] = []
        v, came_by = start, -1
        while True:
            for eid in incident(v):
                if not in_f[eid] and eid != came_by:
                    break
            cyc_edges.append(eid)
            a, b = edges[eid]
            v, came_by = (b if a == v else a), eid
            if v == start:
                break
            cycle_of[v] = ci
            verts.append(v)
        cycles.append(Cycle(tuple(verts), tuple(cyc_edges)))
    chords = tuple(
        eid for eid in sorted(f.edge_ids) if cycle_of[edges[eid][0]] == cycle_of[edges[eid][1]]
    )
    return TwoFactor(tuple(cycles), chords)


def _two_factor_from_cycles(g: Pseudograph, cycles: Sequence[Cycle]) -> TwoFactor:
    """The 2-factor made of vertex-disjoint cycles covering G, with its chords."""
    cyc_of, on_cycle = _two_factor_marks(g, cycles)
    chords = tuple(
        eid
        for eid, (u, v) in enumerate(g.edges)
        if cyc_of[u] == cyc_of[v] and not on_cycle[eid]
    )
    return TwoFactor(tuple(cycles), chords)


def matchings_through_edge(g: Pseudograph, eid: int) -> Iterator[PerfectMatching]:
    """Perfect matchings containing a prescribed edge; empty on bridged inputs is allowed."""
    if g.is_loop(eid):
        return
    u, v = g.endpoints(eid)
    covered = [False] * g.n
    covered[u] = covered[v] = True
    yield from _match_dfs(g, covered, [eid])


def matchings_meeting_all_3cuts_once(
    g: Pseudograph, eid: int, cuts: Optional[Sequence[Tuple[int, int, int]]] = None
) -> Iterator[PerfectMatching]:
    """Matchings through eid that intersect every 3-edge-cut in exactly one edge.

    The cut list may be passed in to amortize enumeration across calls.
    """
    if cuts is None:
        cuts = three_edge_cuts(g)
    for f in matchings_through_edge(g, eid):
        fs = f.as_set()
        if all(len(fs.intersection(cut)) == 1 for cut in cuts):
            yield f


def odd_cycle_count(tf: TwoFactor) -> int:
    count = sum(1 for cyc in tf.cycles if len(cyc) % 2 == 1)
    return count
