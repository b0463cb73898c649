"""Perfect matchings, complementary 2-factors, and 3-cut-respecting matchings.

Enumeration is DFS on the lowest-indexed uncovered vertex, branching over
its incident edges in id order, so streams are deterministic and
certificates reproduce.  Streams are lazy generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import ContractError, InputError
from .graph import Pseudograph, is_cubic, three_edge_cuts


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
    (two share a vertex, or one is a loop).  They form a perfect matching
    when the set has g.n vertices."""
    seen: Set[int] = set()
    for eid in edge_ids:
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
    """Cycle decomposition of G - F for cubic G; 2-cycles from parallel edges allowed."""
    if not is_cubic(g):
        raise InputError("complement_two_factor requires a cubic graph")
    if any(g.is_loop(e) for e in range(g.m)):
        raise InputError("cubic input graphs may not contain loops")
    fs = f.as_set()
    covered = [0] * g.n
    for eid in fs:
        u, v = g.endpoints(eid)
        covered[u] += 1
        covered[v] += 1
    if any(c != 1 for c in covered):
        raise ContractError("not a perfect matching of this graph")
    rem = [[] for _ in range(g.n)]
    for eid in range(g.m):
        if eid in fs:
            continue
        u, v = g.endpoints(eid)
        rem[u].append(eid)
        rem[v].append(eid)
    cycles: List[Cycle] = []
    used_edge = [False] * g.m
    seen_v = [False] * g.n
    for start in range(g.n):
        if seen_v[start]:
            continue
        verts = [start]
        edges = []
        seen_v[start] = True
        v = start
        while True:
            nxt_eid = None
            for eid in rem[v]:
                if not used_edge[eid]:
                    nxt_eid = eid
                    break
            if nxt_eid is None:
                break
            used_edge[nxt_eid] = True
            edges.append(nxt_eid)
            w = g.other_end(nxt_eid, v)
            if w == start and len(edges) == len(verts):
                break
            verts.append(w)
            seen_v[w] = True
            v = w
        if len(edges) != len(verts) or len(verts) < 2:
            raise ContractError("complement is not a disjoint union of cycles")
        cycles.append(Cycle(tuple(verts), tuple(edges)))
    return _two_factor_from_cycles(g, cycles)


def _two_factor_from_cycles(g: Pseudograph, cycles: Sequence[Cycle]) -> TwoFactor:
    """The 2-factor made of vertex-disjoint cycles covering G, with its chords."""
    cyc_of = [-1] * g.n
    for ci, cyc in enumerate(cycles):
        for v in cyc.vertices:
            if cyc_of[v] != -1:
                raise ContractError("cycles overlap")
            cyc_of[v] = ci
    if -1 in cyc_of:
        raise ContractError("cycles do not cover all vertices")
    cyc_edges = {e for cyc in cycles for e in cyc.edges}
    chords = tuple(
        eid
        for eid, (u, v) in enumerate(g.edges)
        if cyc_of[u] == cyc_of[v] and eid not in cyc_edges
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
