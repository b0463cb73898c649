"""Perfect matchings, complementary 2-factors, and 3-cut-respecting matchings.

Enumeration is DFS on the lowest-indexed uncovered vertex, branching over
its incident edges in id order, so streams are deterministic and
certificates reproduce.  Streams are lazy generators; each takes an
optional deadline, checked on the first search frame and every 1,024
frames after it.

The search remembers the partial matchings it has refuted.  Whether a
partial matching extends depends only on which vertices it leaves
uncovered and, in a cut stream (below), on which listed cuts already hold
one of its edges, so that pair, packed into one int, is its state.  A
branch that yields nothing records its state, and a branch into a
recorded state is skipped: only branches that yield nothing are removed,
so every stream, `--matching INDEX` and the first flow found are those
of the search without it.  That search walks every dead end: on a
100-vertex cubic graph with no perfect matching it takes about 19 s,
against 0.05 s with the recorded states (CPython 3.11, one core of an
Intel Xeon).  A plain stream keeps its own states; the cut streams of
one graph and cut list share theirs, with the index below, and a cut
stream that ends by its deadline clears them.  At most
_DEAD_CAP states are kept, about 25 MB at 244 vertices; past that the
search records nothing more and its deadline still ends it.

Matchings that meet every 3-edge cut exactly once (the first step of the
paper's claw-free proof) are found by pruning that same search, not by
filtering its output.  In a cubic graph the side S of a 3-edge cut has
3|S| = 2e(S) + 3, so |S| is odd and every perfect matching meets the cut
in one or three edges: "exactly once" means "not all three".  The search
skips an edge while a cut through it already holds a matching edge, which
cuts off only branches without a valid matching, so the stream is the
filtered one in the same order.  Vertex stars are met once by every
perfect matching and are not tracked.  The index from edges to the
remaining cuts, with each vertex's (edge, state delta) pairs that the
search walks and the states it refuted, is built once per graph and cut
list and kept while the same pair comes back, as it does when a caller
goes through every edge; without cuts, a stream builds its own when it
starts.

A cut stream also looks ahead (forward checking, Haralick and Elliott,
Artificial Intelligence 14, 1980): after taking an edge, it skips the
branch when an uncovered neighbour of the edge's ends has no edge left
that misses the covered vertices and the cuts already met.  Such a
vertex can never be covered, so only branches that yield nothing go and
every stream is unchanged; a pass of the claw-free benchmark walks
19,324 search frames instead of 101,442 (triangle_replace_all(petersen())
about 34 instead of 618 per edge).  Plain streams do not look ahead:
there the same check made the enumeration of the 5,120 matchings of
counterexample_family(2) about 45% slower.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import ContractError, InputError
from .graph import ContractedGraph, Pseudograph, contract_two_factor, is_cubic, three_edge_cuts
from .kernels import SearchTimeout, check_deadline


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
    yield from _match_dfs(_build_index(g, ()), [], 0, deadline)


# frames between two deadline checks in _match_dfs
_DEADLINE_EVERY = 1024
# refuted states one index records at most: past it the search goes on
# without recording, so a graph with no perfect matching costs bounded memory
_DEAD_CAP = 1 << 18

Partners = Tuple[Tuple[Tuple[int, int], ...], ...]
# (bit of a vertex, the deltas of its edges), for each vertex watched
Watched = Tuple[Tuple[int, Tuple[int, ...]], ...]


def _match_dfs(
    index: _CutIndex,
    chosen: List[int],
    state: int,
    deadline: Optional[float],
) -> Iterator[PerfectMatching]:
    """Complete `chosen`, whose state is `state`, to perfect matchings,
    branching on the lowest uncovered vertex.

    A state is one int: bit v is set once v is covered, bit n + i once the
    i-th indexed cut holds an edge of `chosen`; an edge's delta in the
    partner pairs sets its two ends and its cuts, so taking or taking back
    an edge is one XOR.  An edge is skipped when its delta meets the state,
    as the branch vertex is uncovered: its other end is covered or one of
    its cuts already holds an edge.  A matching is yielded once the state
    is `index.full`, every vertex covered and every cut met.

    One frame [v, next position in v's partner pairs, matchings yielded
    when it was pushed] per matched edge, kept on an explicit stack; the
    edge before that position is in `chosen` from the frame's second visit
    on.  Whether a state extends depends on nothing else, so a frame that
    ends with nothing yielded records its state in `index.dead`, up to
    _DEAD_CAP states, and no frame is pushed for a recorded state.  That
    removes only branches that yield nothing, so the stream is unchanged.

    A cut index also looks ahead (`_CutIndex.ahead`): an edge is skipped
    when taking it leaves an uncovered neighbour of its ends without an
    edge whose delta misses the state.  States only gain bits deeper in
    the search, so that vertex could never be covered and the branch
    yields nothing; the stream is again unchanged.
    """
    partners, full, dead, ahead = index.partners, index.full, index.dead, index.ahead
    n = len(partners)
    # the lowest uncovered vertex is the lowest clear bit of the state
    v = (~state & (state + 1)).bit_length() - 1
    if v >= n:
        if state == full:
            yield PerfectMatching(tuple(sorted(chosen)))
        return
    found = 0
    frames = [[v, 0, found]]
    tick = 1  # check on the first frame, so a passed deadline stops even a short stream
    while frames:
        tick -= 1
        if not tick:
            tick = _DEADLINE_EVERY
            check_deadline(deadline)
        frame = frames[-1]
        v, pos, mark = frame
        pv = partners[v]
        if pos:  # take back the edge this frame tried last
            state ^= pv[pos - 1][1]
            chosen.pop()
        while pos < len(pv):
            eid, delta = pv[pos]
            pos += 1
            if not state & delta and (state ^ delta) not in dead:
                if ahead is None or not _strands(state ^ delta, ahead[eid]):
                    break
        else:
            frames.pop()
            if mark == found and len(dead) < _DEAD_CAP:
                dead.add(state)
            continue
        frame[1] = pos
        state ^= delta
        chosen.append(eid)
        u = (~state & (state + 1)).bit_length() - 1
        if u < n:
            frames.append([u, 0, found])
        elif state == full:
            found += 1
            yield PerfectMatching(tuple(sorted(chosen)))


def _strands(state: int, watched: Watched) -> bool:
    """Whether a watched vertex is uncovered in `state` and each of its
    edges' deltas meets the state, so that no edge can cover it."""
    for bit, deltas in watched:
        if not state & bit:
            for delta in deltas:
                if not state & delta:
                    break
            else:
                return True
    return False


def complement_two_factor(g: Pseudograph, f: PerfectMatching) -> TwoFactor:
    """Cycle decomposition of G - F for cubic G; 2-cycles from parallel edges allowed.

    Each cycle starts at its lowest vertex, leaves it by its lower non-F
    edge and walks on through the one non-F edge at each vertex that it did
    not arrive by; cycles come in the order of their lowest vertices.
    Raises InputError unless G is cubic and loop-free, and ContractError
    unless F is a perfect matching of G.
    """
    if not is_cubic(g):
        raise InputError("complement_two_factor requires a cubic graph")
    if g._has_loop:
        raise InputError("cubic input graphs may not contain loops")
    edges = g.edges
    m, n = len(edges), g.n
    f_at = [-1] * n  # vertex -> the F-edge at it
    for eid in f.edge_ids:
        if not 0 <= eid < m:
            raise ContractError("not a perfect matching of this graph")
        a, b = edges[eid]
        if f_at[a] != -1 or f_at[b] != -1:
            raise ContractError("not a perfect matching of this graph")
        f_at[a] = f_at[b] = eid
    if 2 * len(f.edge_ids) != n:
        raise ContractError("not a perfect matching of this graph")
    # G is cubic and loop-free: three edge ids at each vertex, in id order,
    # one of them its F-edge.  The walk reads f_at[v] once, leaving -1 to
    # mark v as on a cycle.
    incident = g._incident
    cycles: List[Cycle] = []
    for start in range(n):
        if f_at[start] == -1:
            continue
        verts = [start]
        cyc_edges: List[int] = []
        v, came_by = start, -1
        while True:
            x, y, z = incident[v]
            fe, f_at[v] = f_at[v], -1
            lo, hi = (y, z) if x == fe else (x, z) if y == fe else (x, y)
            eid = hi if lo == came_by else lo
            cyc_edges.append(eid)
            a, b = edges[eid]
            v, came_by = (b if a == v else a), eid
            if v == start:
                break
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
    index = _build_index(g, ()) if cuts is None else _cut_index(g, cuts)
    delta = dict(index.partners[g.endpoints(eid)[0]])[eid]
    try:
        yield from _match_dfs(index, [eid], delta, deadline)
    except SearchTimeout:
        # the states refuted before a timeout can fill the cap, and a cut
        # index outlives the stream: keep them only for streams that end
        # normally
        index.dead.clear()
        raise


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
    """What `_match_dfs` walks for one graph and list of cuts, none for a
    plain stream, and the states it has refuted there.

    partners[v] lists v's (edge id, delta) pairs in g.incident(v) order,
    loops left out; an edge's delta sets the bits of its two ends and, for
    the i-th listed cut through it that is not a vertex star, bit n + i.
    full is the state with every vertex covered and every such cut met.
    ahead is None without cuts; with them, ahead[e] lists what taking
    edge e leaves to watch: each neighbour of e's ends other than the ends,
    with the deltas of its edges.  dead holds states from which the search
    yields nothing; the searches through each edge of a graph share it
    along with the index.
    """

    partners: Partners
    full: int
    ahead: Optional[Tuple[Watched, ...]] = None
    dead: Set[int] = field(default_factory=set, compare=False, repr=False)


def _build_index(g: Pseudograph, cuts: Sequence[Sequence[int]]) -> _CutIndex:
    n, m, edges = g.n, g.m, g.edges
    cut_bits = [0] * m
    bit = 1 << n
    if cuts:
        # a perfect matching meets the star of every vertex exactly once
        stars = {frozenset(g.incident(v)) for v in range(n)}
        for cut in cuts:
            ids = frozenset(cut)
            if ids in stars:
                continue
            for e in ids:
                if 0 <= e < m:
                    cut_bits[e] |= bit
            bit <<= 1
    rows = []
    for v in range(n):
        row = []
        for eid in g.incident(v):
            a, b = edges[eid]
            if a != b:  # a loop covers its vertex twice
                row.append((eid, 1 << a | 1 << b | cut_bits[eid]))
        rows.append(tuple(row))
    if not cuts:
        return _CutIndex(tuple(rows), bit - 1)
    nbrs = [{g.other_end(eid, v) for eid, _delta in row} for v, row in enumerate(rows)]
    deltas = [tuple(delta for _eid, delta in row) for row in rows]
    ahead = [tuple((1 << x, deltas[x]) for x in (nbrs[a] | nbrs[b]) - {a, b}) for a, b in edges]
    return _CutIndex(tuple(rows), bit - 1, tuple(ahead))


# the last graph, its cut list as a tuple, and their index: callers pass
# the same cuts for every edge of a graph, so the index is built once
_last_index: Tuple[Optional[Pseudograph], tuple, Optional[_CutIndex]] = (None, (), None)


def _cut_index(g: Pseudograph, cuts: Iterable[Sequence[int]]) -> _CutIndex:
    global _last_index
    key = tuple(cuts)
    last_g, last_key, index = _last_index
    if last_g is g and last_key == key:
        return index
    index = _build_index(g, key)
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
    return sum(1 for cyc in tf.cycles if len(cyc) % 2 == 1)
