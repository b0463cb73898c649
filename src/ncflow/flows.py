"""Nowhere-zero Klein-group flow search on contracted graphs.

Values of Z2 x Z2 minus zero are encoded as 2-bit integers:

    ALPHA = 0b10, BETA = 0b01, ALPHA_BETA = 0b11

Group addition is XOR.  A conflict is an edge uv of the 2-factor whose
endpoint matching edges carry {ALPHA, BETA} (equivalently, their values
XOR to 0b11).

F-bar's chords (F-edges with both ends on one cycle, the loops of
G/F-bar) are settled before any search: each holds alpha+beta, which
cancels out of conservation and conflicts with nothing, and the flow
kernel searches only the other edges (`_kernel_args`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import comb
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import ContractError, InputError, NcflowError
from .graph import (
    ContractedGraph,
    Pseudograph,
    _contract_vertex_sets,
    contract_two_factor,
    is_isomorphic_to_petersen,
)
from .kernels import flow_search
from .matchings import (
    Cycle,
    PerfectMatching,
    TwoFactor,
    _two_factor_from_cycles,
    complement_two_factor,
    covered_vertices,
    enumerate_perfect_matchings,
    matchings_through_edge,
    odd_cycle_count,
)

ALPHA = 0b10
BETA = 0b01
ALPHA_BETA = 0b11
KLEIN_VALUES = (BETA, ALPHA, ALPHA_BETA)
_KLEIN_SET = frozenset(KLEIN_VALUES)

_KLEIN_BITS = {ALPHA: "10", BETA: "01", ALPHA_BETA: "11"}
_KLEIN_NAMES = {ALPHA: "a", BETA: "b", ALPHA_BETA: "a+b"}


def klein_bits(v: int) -> str:
    """Serialized form: alpha -> "10", beta -> "01", alpha+beta -> "11"."""
    return _KLEIN_BITS[v]


def klein_from_bits(s: str) -> int:
    for v, bits in _KLEIN_BITS.items():
        if bits == s:
            return v
    raise InputError(f"not a Klein value: {s!r}")


def klein_name(v: int) -> str:
    return _KLEIN_NAMES[v]


@dataclass(frozen=True)
class FlowAssignment:
    """Quotient edge id -> nonzero Klein value."""

    values: Tuple[int, ...]

    def __post_init__(self):
        _require_in(self.values, _KLEIN_SET, "a nonzero Klein element")


def _require_in(values: Sequence[int], allowed: FrozenSet[int], what: str) -> None:
    """Raise InputError unless every value is in `allowed`, by one set test."""
    try:
        ok = allowed.issuperset(values)
    except TypeError:  # an unhashable value
        ok = False
    if not ok:
        raise InputError(f"flow values {values!r} are not each {what}")


@dataclass(frozen=True)
class ConflictEdge:
    fbar_edge: int
    u: int
    f_edge_u: int
    value_u: int
    v: int
    f_edge_v: int
    value_v: int


@dataclass(frozen=True)
class ConflictReport:
    conflicting_edges: Tuple[ConflictEdge, ...]

    @property
    def count(self) -> int:
        return len(self.conflicting_edges)

    def is_empty(self) -> bool:
        return not self.conflicting_edges


def _xor_balanced(n: int, edges: Sequence[Tuple[int, int]], values: Sequence[int]) -> bool:
    """The edge values, one per edge of the graph on n vertices, XOR to
    zero at every vertex; a loop meets its vertex twice and cancels."""
    acc = [0] * n
    for x, (u, v) in zip(values, edges):
        if u != v:
            acc[u] ^= x
            acc[v] ^= x
    return not any(acc)


def verify_flow(h: ContractedGraph, theta: FlowAssignment) -> bool:
    """Conservation at every quotient vertex; loops cancel themselves."""
    if len(theta.values) != len(h.quotient_edges):
        raise InputError("flow assignment does not cover every quotient edge")
    return _xor_balanced(len(h.cycles), h.quotient_edges, theta.values)


def _f_values(h: ContractedGraph, theta: FlowAssignment, f: Optional[PerfectMatching] = None) -> List[int]:
    """G-vertex -> theta's value on the F-edge at it, for h = G/F-bar.

    contract_two_factor numbers the quotient edges in G's id order, so the
    F-edge at G-vertex v is quotient edge h.matching_edge_at[v]: a flow on
    G/F-bar is read on G without building the quotient.  Raises InputError
    unless theta has one value per quotient edge, and ContractError when f
    is given and is not the matching off F-bar with each id listed once.
    """
    vals = theta.values
    if len(vals) != len(h.edge_origin):
        raise InputError("flow does not match the contraction of this 2-factor")
    if f is not None and f.edge_ids != h.edge_origin and sorted(f.edge_ids) != list(h.edge_origin):
        raise ContractError("matching is not the perfect-matching complement of this 2-factor")
    return [vals[i] for i in h.matching_edge_at]


def _conflict_edges(h: ContractedGraph, vals: Sequence[int], f_value: Sequence[int]) -> List[ConflictEdge]:
    """The 2-factor edges of h = G/F-bar with alpha at one end and beta at
    the other, in cycle order; vals are the flow's values and f_value is
    `_f_values`' output."""
    edges, ids, at = h.graph.edges, h.edge_origin, h.matching_edge_at
    out = []
    for cyc in h.cycles:
        for eid in cyc.edges:
            u, v = edges[eid]
            if f_value[u] ^ f_value[v] == ALPHA_BETA:
                qu, qv = at[u], at[v]
                out.append(ConflictEdge(eid, u, ids[qu], vals[qu], v, ids[qv], vals[qv]))
    return out


def _is_nonconflicting_flow(h: ContractedGraph, theta: FlowAssignment) -> bool:
    """theta is a flow of h = G/F-bar with no conflict, read on G in one
    walk of each cycle of F-bar: its F-values XOR to zero (a chord meets
    its cycle twice and cancels, as a loop does in verify_flow), and no
    two at the ends of a cycle edge XOR to alpha+beta."""
    f_value = _f_values(h, theta)
    for cyc in h.cycles:
        acc = 0
        prev = f_value[cyc.vertices[-1]]  # the closing edge joins the last vertex to the first
        for v in cyc.vertices:
            x = f_value[v]
            if prev ^ x == ALPHA_BETA:
                return False
            acc ^= x
            prev = x
        if acc:
            return False
    return True


def conflicts(g: Pseudograph, f: PerfectMatching, tf: TwoFactor, theta: FlowAssignment) -> ConflictReport:
    """All conflicting 2-factor edges; symmetric in alpha/beta; theta is read on G."""
    h = contract_two_factor(g, tf)
    out = _conflict_edges(h, theta.values, _f_values(h, theta, f))
    out.sort(key=lambda c: c.fbar_edge)
    return ConflictReport(tuple(out))


KernelArgs = Tuple[int, List[int], List[int], List[int], List[int]]


def _kernel_args(h: ContractedGraph) -> Tuple[List[int], KernelArgs]:
    """(kept, args): the flow kernel's args = (nq, eu, ev, first, second)
    for h = G/F-bar with F-bar's chords settled, and kept[i], the quotient
    edge that kernel edge i is.

    A chord (an F-edge with both ends on one cycle, a loop of h) cancels
    out of conservation, and at alpha+beta it conflicts with nothing, as
    its partner would need the value 0; so every chord holds alpha+beta
    (`_settle`) and the kernel gets only the other quotient edges, in id
    order, and the conflict pairs between them.  Settling the chords
    changes neither whether a flow exists nor the fewest conflicts a flow
    has.

    Flat int lists that both backends take as they are: kernel edge i
    joins eu[i] and ev[i], and conflict pair k is (first[k], second[k]),
    the kernel edges at the two ends of a 2-factor edge, in cycle order,
    with no chord at either end (their values XOR to alpha+beta exactly
    when that edge conflicts).  The quotient is never built.
    """
    kept: List[int] = []
    eu: List[int] = []
    ev: List[int] = []
    new_id = []  # quotient edge -> kernel edge, -1 for a chord
    for i, (a, b) in enumerate(h.quotient_edges):
        if a == b:
            new_id.append(-1)
        else:
            new_id.append(len(kept))
            kept.append(i)
            eu.append(a)
            ev.append(b)
    edges = h.graph.edges
    at = [new_id[i] for i in h.matching_edge_at]
    first: List[int] = []
    second: List[int] = []
    for cyc in h.cycles:
        for eid in cyc.edges:
            u, v = edges[eid]
            x, y = at[u], at[v]
            if x >= 0 and y >= 0:
                first.append(x)
                second.append(y)
    return kept, (len(h.cycles), eu, ev, first, second)


def _settle(h: ContractedGraph, kept: Sequence[int], vals: Sequence[int]) -> List[int]:
    """The values of every quotient edge of h = G/F-bar for the kernel's
    values `vals` on `_kernel_args(h)`: quotient edge kept[i] holds
    vals[i], and every chord alpha+beta."""
    settled = [ALPHA_BETA] * len(h.quotient_edges)
    for i, x in zip(kept, vals):
        settled[i] = x
    return settled


def _kernel_flow(
    h: ContractedGraph, mode: str, deadline: Optional[float]
) -> Tuple[Optional[FlowAssignment], int, int]:
    """Kernel flow search on h = G/F-bar in `mode`: (verified flow or None,
    its conflict count, nodes expanded).  The kernel searches the edges
    that are not chords (`_kernel_args`) and every chord gets alpha+beta
    (`_settle`); the flow's conservation and its conflict count are
    checked on all of G/F-bar."""
    kept, args = _kernel_args(h)
    vals, conf, nodes = flow_search(*args, mode, deadline=deadline)
    if vals is None:
        return None, conf, nodes
    theta = FlowAssignment(tuple(_settle(h, kept, vals)))
    if not verify_flow(h, theta):
        raise NcflowError("flow search returned a flow that does not conserve")
    if len(_conflict_edges(h, theta.values, _f_values(h, theta))) != conf:
        raise NcflowError(f"flow search reported {conf} conflicts for a flow with another count")
    return theta, conf, nodes


def find_nonconflicting_flow(
    g: Pseudograph,
    f: PerfectMatching,
    deadline: Optional[float] = None,
) -> Optional[FlowAssignment]:
    """A conflict-free nowhere-zero flow of G/F-bar, every chord of F-bar
    at alpha+beta, or None after exhaustion."""
    h = contract_two_factor(g, complement_two_factor(g, f))
    theta, conf, _nodes = _kernel_flow(h, "first", deadline)
    return theta if conf == 0 else None


def matching_verdicts(
    g: Pseudograph,
    matchings: Optional[Iterable[PerfectMatching]] = None,
    deadline: Optional[float] = None,
) -> Iterator[Tuple[PerfectMatching, Optional[FlowAssignment]]]:
    """(F, find_nonconflicting_flow(g, F) or None) for each matching F in turn.

    The one loop behind every exhaustive search over matchings; a caller
    stops it at the first flow it needs.  `matchings` defaults to every
    perfect matching of g, enumerated under the same deadline, so the
    stream raises SearchTimeout even while the searches return at once.
    """
    if matchings is None:
        matchings = enumerate_perfect_matchings(g, deadline=deadline)
    for f in matchings:
        yield f, find_nonconflicting_flow(g, f, deadline=deadline)


@dataclass(frozen=True)
class MinConflictResult:
    """Minimum-conflict flow of G/F-bar, with the F-bar it lives on; the
    2-factor carries G/F-bar as its `contraction`."""

    flow: FlowAssignment
    conflict_count: int
    nodes_expanded: int
    two_factor: TwoFactor


def min_conflict_flow(
    g: Pseudograph,
    f: PerfectMatching,
    deadline: Optional[float] = None,
) -> Optional[MinConflictResult]:
    """Flow minimizing the conflict count, every chord of F-bar at
    alpha+beta, or None when no NZ flow exists at all."""
    tf = complement_two_factor(g, f)
    h = contract_two_factor(g, tf)
    theta, conf, nodes = _kernel_flow(h, "min", deadline)
    if theta is None:
        return None
    return MinConflictResult(theta, conf, nodes, TwoFactor(tf.cycles, contraction=h))


def even_cycle_flow(g: Pseudograph, tf: TwoFactor) -> FlowAssignment:
    """Constant alpha+beta flow; valid because every cycle of the 2-factor is even."""
    if odd_cycle_count(tf) != 0:
        raise InputError("2-factor has an odd cycle; constant flow does not conserve")
    return _constant_flow(contract_two_factor(g, tf))


def _constant_flow(h: ContractedGraph) -> FlowAssignment:
    theta = FlowAssignment((ALPHA_BETA,) * len(h.quotient_edges))
    if not verify_flow(h, theta):
        raise NcflowError("constant alpha+beta flow does not conserve")
    return theta


def loop_canonicalize(theta: FlowAssignment, h: ContractedGraph) -> FlowAssignment:
    """Set every loop (chord) value to alpha+beta; conservation is unaffected.

    The flows of `find_nonconflicting_flow` and `min_conflict_flow` have
    their chords there already.  Raises InputError unless theta has one
    value per quotient edge.
    """
    vals = list(theta.values)
    if len(vals) != len(h.quotient_edges):
        raise InputError("flow assignment does not cover every quotient edge")
    for eid, (u, v) in enumerate(h.quotient_edges):
        if u == v:
            vals[eid] = ALPHA_BETA
    return FlowAssignment(tuple(vals))


# ---------------------------------------------------------------------------
# 2-factors with at most two cycles


@dataclass(frozen=True)
class TwoCycleFlowResult:
    """Verified non-conflicting flow plus the matching it is relative to.

    `branch` records which constructive route produced it: "even", "case1",
    "case1-3ec", "case2a", "case2b-even", "case2b-rewire", "case2b-recursion"
    or "fallback-exhaustive".  `two_factor` carries the contraction G/F-bar
    the route built, so `coloring_from_flow` reads F-bar's index from it.
    """

    matching: PerfectMatching
    two_factor: TwoFactor
    flow: FlowAssignment
    branch: str


def _verified(
    tf: TwoFactor, h: ContractedGraph, theta: FlowAssignment, branch: str
) -> Optional[TwoCycleFlowResult]:
    """The result for theta if it is a non-conflicting flow on h = G/F-bar,
    where F-bar is tf, else None; the result's 2-factor is tf carrying h."""
    if not _is_nonconflicting_flow(h, theta):
        return None
    return TwoCycleFlowResult(PerfectMatching(h.edge_origin), TwoFactor(tf.cycles, contraction=h), theta, branch)


def _three_colorable_route(
    g: Pseudograph, deadline: Optional[float]
) -> Optional[TwoCycleFlowResult]:
    """First matching whose complement has only even cycles, with the constant flow."""
    for f in enumerate_perfect_matchings(g, deadline=deadline):
        tf = complement_two_factor(g, f)
        if odd_cycle_count(tf) == 0:
            h = contract_two_factor(g, tf)
            return TwoCycleFlowResult(f, TwoFactor(tf.cycles, contraction=h), _constant_flow(h), "case1-3ec")
    return None


def _exhaustive_route(
    g: Pseudograph, deadline: Optional[float]
) -> Optional[TwoCycleFlowResult]:
    for f, theta in matching_verdicts(g, deadline=deadline):
        if theta is not None:
            tf = complement_two_factor(g, f)
            res = _verified(tf, contract_two_factor(g, tf), theta, "fallback-exhaustive")
            if res is None:
                raise NcflowError("exhaustive search returned a flow that conflicts")
            return res
    return None


def two_cycle_factor_flow(
    g: Pseudograph, tf: TwoFactor, deadline: Optional[float] = None
) -> Optional[TwoCycleFlowResult]:
    """Theorem entry point for a 2-factor with at most two cycles.

    Returns None only for the Petersen graph.  The matching loops of the
    fallback routes raise SearchTimeout once `deadline` has passed.
    """
    if len(tf.cycles) > 2:
        raise InputError("2-factor must have at most two cycles")
    if is_isomorphic_to_petersen(g):
        return None
    h = contract_two_factor(g, tf)
    odd = odd_cycle_count(tf)
    if odd == 0:
        return TwoCycleFlowResult(
            PerfectMatching(h.edge_origin), TwoFactor(tf.cycles, contraction=h), _constant_flow(h), "even"
        )
    if odd != 2:  # one odd cycle: the graph has an odd order, so it is not cubic
        raise InputError("expected a 2-factor with exactly two odd cycles")
    return _two_odd_cycle_route(tf, h, deadline)


def two_odd_cycle_flow(g: Pseudograph, tf: TwoFactor) -> Optional[TwoCycleFlowResult]:
    """Constructive flow for a 2-factor of exactly two odd cycles.

    Follows the case analysis of the two-cycle theorem; falls back to
    exhaustive search if an uncovered configuration is hit, and records
    which branch fired.  Returns None for the Petersen graph.
    """
    if len(tf.cycles) != 2 or odd_cycle_count(tf) != 2:
        raise InputError("expected a 2-factor with exactly two odd cycles")
    if is_isomorphic_to_petersen(g):
        return None
    return _two_odd_cycle_route(tf, contract_two_factor(g, tf), None)


def _two_odd_cycle_route(
    tf: TwoFactor, h: ContractedGraph, deadline: Optional[float]
) -> Optional[TwoCycleFlowResult]:
    """two_odd_cycle_flow past its input checks, on the contraction h of tf."""
    g = h.graph
    cyc_of = h.vertex_cycle
    edges = g.edges
    # the cross edges (F-edges between the two cycles) in id order, with
    # their ends on cycle 0 in us and on cycle 1 in vs
    cross, us, vs = [], [], []
    for eid in h.edge_origin:
        a, b = edges[eid]
        if cyc_of[a] != cyc_of[b]:
            if cyc_of[a] != 0:
                a, b = b, a
            cross.append(eid)
            us.append(a)
            vs.append(b)
    n = len(cross)
    if n % 2 != 1:
        raise NcflowError("two odd cycles joined by an even number of edges")

    # Two ends of cross edges are linked when an edge other than a cross
    # edge joins them.  The only F-edge at such an end is its cross edge,
    # so that edge is a 2-factor edge.  Each pair i < j is tested once.
    linked = set()
    for cyc in tf.cycles:
        for eid in cyc.edges:
            a, b = edges[eid]
            linked.add((a, b))
            linked.add((b, a))
    link_u = list(map(linked.__contains__, combinations(us, 2)))
    link_v = list(map(linked.__contains__, combinations(vs, 2)))
    n1, n2 = sum(link_u), sum(link_v)

    if comb(n, 2) - n1 > n2:
        for (i, j), lu, lv in zip(combinations(range(n), 2), link_u, link_v):
            if not (lu or lv):
                res = _case1_result(tf, h, cross, i, j)
                if res is not None:
                    return res
    # n >= 5 and case 1 gave no flow, or n == 3 with links on both sides (case 2a)
    if n >= 5 or (n1 >= 1 and n2 >= 1):
        res = _three_colorable_route(g, deadline)
        if res is None:
            return _exhaustive_route(g, deadline)
        return res if n >= 5 else replace(res, branch="case2a")
    if {(n1 > 0), (n2 > 0)} == {True, False}:
        side = 0 if n1 else 1
        res = _case2b(h, cross, us, vs, triangle_side=side, deadline=deadline)
        if res is not None:
            return res
    return _exhaustive_route(g, deadline)


def _case1_result(
    tf: TwoFactor, h: ContractedGraph, cross: List[int], i: int, j: int
) -> Optional[TwoCycleFlowResult]:
    """One alpha, one beta on non-pair cross edges, alpha+beta elsewhere."""
    vals = [ALPHA_BETA] * len(h.quotient_edges)
    edges, at = h.graph.edges, h.matching_edge_at
    vals[at[edges[cross[i]][0]]] = ALPHA
    vals[at[edges[cross[j]][0]]] = BETA
    return _verified(tf, h, FlowAssignment(tuple(vals)), "case1")


def _case2b(
    h: ContractedGraph,
    cross: List[int],
    us: List[int],
    vs: List[int],
    triangle_side: int,
    deadline: Optional[float],
) -> Optional[TwoCycleFlowResult]:
    """Triangle elimination: n = 3 and one side is a triangle with n_side = 3."""
    g, cycles, cyc_of = h.graph, h.cycles, h.vertex_cycle
    if triangle_side == 1:
        us, vs = vs, us
    # the triangle vertices are exactly the three cross endpoints on that side
    tri_cycle = cycles[cyc_of[us[0]]]
    if len(tri_cycle) != 3:
        return None
    u1, u2, u3 = us
    v1, v2, v3 = vs
    # triangle edge u1-u3 and the cross edge at u2 go into the new matching
    e_u1u3 = _edge_between(g, u1, u3, exclude=set(cross))
    e_u2v2 = cross[1]
    if e_u1u3 is None:
        return None
    other_cycle = cycles[cyc_of[v1]]
    # alternate edges of the cycle C2 - v2 (+ virtual edge f), avoiding f:
    # walk C2 from one neighbor of v2 around to the other, taking every other edge
    fd = _alternating_matching_avoiding(g, other_cycle, v2)
    if fd is None:
        return None
    new_f = PerfectMatching(tuple(sorted(set(fd) | {e_u1u3, e_u2v2})))
    try:
        tf2 = complement_two_factor(g, new_f)
    except ContractError:
        return None
    h2 = contract_two_factor(g, tf2)
    if odd_cycle_count(tf2) == 0:
        res = _verified(tf2, h2, _constant_flow(h2), "case2b-even")
        if res is not None:
            return res
    res = _case2b_rewire(tf2, h2, v2, u2)
    if res is not None:
        return res
    return _case2b_recursion(h, h2, v2, deadline)


def _edge_between(
    g: Pseudograph, a: int, b: int, exclude: Set[int] = frozenset()
) -> Optional[int]:
    for eid in g.incident(a):
        if eid not in exclude and g.other_end(eid, a) == b:
            return eid
    return None


def _alternating_matching_avoiding(
    g: Pseudograph, cyc: Cycle, skip_vertex: int
) -> Optional[List[int]]:
    """Edges of the cycle minus `skip_vertex`, taken alternately from one end.

    The cycle is odd; removing one vertex leaves an even path whose unique
    perfect matching (of its own vertex set) is every other edge from the end.
    """
    k = len(cyc.vertices)
    try:
        pos = cyc.vertices.index(skip_vertex)
    except ValueError:
        return None
    # path edges in order, starting from the edge after skip_vertex
    path_edges = [cyc.edges[(pos + 1 + t) % k] for t in range(k - 2)]
    return path_edges[::2]


def _case2b_rewire(
    tf: TwoFactor, h: ContractedGraph, v2: int, u2: int
) -> Optional[TwoCycleFlowResult]:
    """Send a beta-cycle through the quotient to balance the two odd cycles;
    the F-edge u2v2 of h is the one that carries alpha."""
    odd = [ci for ci, cyc in enumerate(h.cycles) if len(cyc) % 2 == 1]
    if len(odd) != 2:
        return None
    q = h.quotient
    cf = h.vertex_cycle[v2]
    cg = h.vertex_cycle[u2]
    if cf not in odd or cg not in odd or cf == cg:
        return None
    q_uv = h.matching_edge_at[u2]
    c_f = h.cycles[cf]
    v2_nbrs = _cycle_neighbors(c_f, v2)
    forbidden_q = set()
    for w in v2_nbrs:
        qid = h.matching_edge_at[w]
        a, b = q.edges[qid]
        if a != b:
            forbidden_q.add(qid)
    for w in c_f.vertices:
        if w == v2 or w in v2_nbrs:
            continue
        q_ew = h.matching_edge_at[w]
        a, b = q.edges[q_ew]
        if a == b:  # chord, stays inside the cycle
            continue
        z = b if a == cf else a
        path = _bfs_path_edges(q, cg, z, avoid_vertex=cf, avoid_edges=forbidden_q | {q_uv, q_ew})
        if path is None:
            continue
        vals = [ALPHA_BETA] * q.m
        vals[q_uv] = ALPHA
        vals[q_ew] = BETA
        for eid in path:
            vals[eid] = BETA
        res = _verified(tf, h, FlowAssignment(tuple(vals)), "case2b-rewire")
        if res is not None:
            return res
    return None


def _cycle_neighbors(cyc: Cycle, v: int) -> Set[int]:
    k = len(cyc.vertices)
    pos = cyc.vertices.index(v)
    return {cyc.vertices[(pos - 1) % k], cyc.vertices[(pos + 1) % k]}


def _bfs_path_edges(
    q: Pseudograph,
    src: int,
    dst: int,
    avoid_vertex: int,
    avoid_edges: Set[int],
) -> Optional[List[int]]:
    """Shortest src-dst path (edge ids) avoiding a vertex and some edges."""
    if src == avoid_vertex or dst == avoid_vertex:
        return None
    if src == dst:
        return []
    prev: Dict[int, Tuple[int, int]] = {src: (-1, -1)}
    frontier = [src]
    while frontier:
        nxt = []
        for a in frontier:
            for eid in q.incident(a):
                if eid in avoid_edges or q.is_loop(eid):
                    continue
                b = q.other_end(eid, a)
                if b == avoid_vertex or b in prev:
                    continue
                prev[b] = (a, eid)
                if b == dst:
                    out = []
                    cur = b
                    while cur != src:
                        pa, pe = prev[cur]
                        out.append(pe)
                        cur = pa
                    out.reverse()
                    return out
                nxt.append(b)
        frontier = nxt
    return None


def _case2b_recursion(
    h_orig: ContractedGraph,
    h: ContractedGraph,
    v2: int,
    deadline: Optional[float],
) -> Optional[TwoCycleFlowResult]:
    """Contract the odd cycle through v2, solve the smaller graph, splice back.

    `h` is the contraction of the rebuilt 2-factor whose cycle through v2
    gets contracted; `h_orig`'s cycles (triangle + partner cycle) give the
    at-most-two-cycle 2-factor handed to the recursive call.
    """
    g = h.graph
    cf_idx = None
    for ci, cyc in enumerate(h.cycles):
        if v2 in cyc.vertices:
            cf_idx = ci
            break
    if cf_idx is None:
        return None
    inside = set(h.cycles[cf_idx].vertices)
    boundary = [
        eid
        for eid, (a, b) in enumerate(g.edges)
        if (a in inside) != (b in inside)
    ]
    if len(boundary) != 3:
        return None
    if g.n - len(inside) < 2:
        return None

    h1, vmap1, emap1 = _contract_vertex_sets(g, [inside])
    inv1 = {old: new for new, old in emap1.items()}
    # 2-factor of H1: the triangle survives untouched, the partner cycle is
    # rerouted through the new vertex z
    try:
        h1_cycles = _restrict_cycles(h_orig.cycles, inside, h1, vmap1, inv1)
        tf1 = _two_factor_from_cycles(h1, h1_cycles)
    except (ContractError, KeyError, ValueError):
        return None
    if len(tf1.cycles) > 2:
        return None
    sub = two_cycle_factor_flow(h1, tf1, deadline=deadline)
    if sub is None:
        return None
    f0 = sub.matching
    h1_contracted = contract_two_factor(h1, sub.two_factor)
    at1 = h1_contracted.matching_edge_at
    q_t = at1[h1.n - 1]  # the F-edge at the new vertex z
    t_g = emap1[h1_contracted.edge_origin[q_t]]
    x_val = sub.flow.values[q_t]

    outside = set(range(g.n)) - inside
    h2, _vmap2, emap2 = _contract_vertex_sets(g, [outside])
    inv2 = {old: new for new, old in emap2.items()}
    t_h2 = inv2[t_g]
    j_match = None
    for jm in matchings_through_edge(h2, t_h2, deadline=deadline):
        tf_j = complement_two_factor(h2, jm)
        if odd_cycle_count(tf_j) == 0:
            j_match = jm
            break
    if j_match is None:
        return None

    f0_g = {emap1[e] for e in f0.edge_ids}
    j_g = {emap2[e] for e in j_match.edge_ids}
    combined = PerfectMatching(tuple(sorted(f0_g | j_g)))
    try:
        tf_new = complement_two_factor(g, combined)
    except ContractError:
        return None
    # quotient edge i of G/tf_new is the i-th edge of `combined`
    vals = [sub.flow.values[at1[h1.edges[inv1[ge]][0]]] if ge in f0_g else x_val for ge in combined.edge_ids]
    theta = FlowAssignment(tuple(vals))
    return _verified(tf_new, contract_two_factor(g, tf_new), theta, "case2b-recursion")


def _restrict_cycles(
    cycles: Sequence[Cycle],
    inside: Set[int],
    h1: Pseudograph,
    vmap: Dict[int, int],
    inv1: Dict[int, int],
) -> List[Cycle]:
    """Map the 2-factor `cycles` of G onto H1 = G with `inside` contracted to z.

    `vmap` and `inv1` map G's vertices and edges outside `inside` to H1.
    The contracted cycle disappears; the cycle crossed by the two boundary
    2-factor edges is rerouted through z.
    """
    z = h1.n - 1
    out: List[Cycle] = []
    for cyc in cycles:
        verts = cyc.vertices
        if set(verts) <= inside:
            continue
        if not (set(verts) & inside):
            out.append(
                Cycle(tuple(vmap[v] for v in verts), tuple(inv1[e] for e in cyc.edges))
            )
            continue
        # rotate so the inside stretch is a suffix, then replace it by z
        k = len(verts)
        start = None
        for i in range(k):
            if verts[i] not in inside and verts[(i - 1) % k] in inside:
                start = i
                break
        if start is None:
            raise ContractError("cycle does not cross the contracted set cleanly")
        rot_v = [verts[(start + t) % k] for t in range(k)]
        rot_e = [cyc.edges[(start + t) % k] for t in range(k)]
        new_v: List[int] = []
        new_e: List[int] = []
        t = 0
        while t < k and rot_v[t] not in inside:
            new_v.append(vmap[rot_v[t]])
            new_e.append(inv1[rot_e[t]])
            t += 1
        if t == k:
            raise ContractError("expected the cycle to enter the contracted set")
        # rot_e[t-1] crosses into the set; keep it, bridge through z, and the
        # closing edge of the rotation crosses back out
        if any(rot_v[s] not in inside for s in range(t, k)):
            raise ContractError("cycle enters the contracted set more than once")
        new_v.append(z)
        new_e.append(inv1[rot_e[k - 1]])
        out.append(Cycle(tuple(new_v), tuple(new_e)))
    return out


# ---------------------------------------------------------------------------
# Thomassen bridge: 5-regular expansions


def extract_disjoint_matchings(
    h5: Pseudograph,
    g: Pseudograph,
    tf: TwoFactor,
    theta: FlowAssignment,
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Pull two edge-disjoint perfect matchings of H5 out of a non-conflicting
    flow on the 5-cycle expansion.

    Returns (alpha_edges, beta_edges) as H5 edge-id tuples; both verified.
    """
    h = contract_two_factor(g, tf)
    if _conflict_edges(h, theta.values, _f_values(h, theta)):
        raise InputError("flow must be non-conflicting for the extraction")
    if not verify_flow(h, theta):
        raise InputError("not a valid flow")
    # match quotient edges to H5 edges by endpoints (multiplicity-aware)
    nq, q_edges = len(h.cycles), h.quotient_edges
    if nq != h5.n:
        raise InputError("quotient does not line up with the 5-regular graph")
    pool: Dict[Tuple[int, int], List[int]] = {}
    for eid, (a, b) in enumerate(h5.edges):
        pool.setdefault((min(a, b), max(a, b)), []).append(eid)
    qe_to_h5: Dict[int, int] = {}
    for qe, (a, b) in enumerate(q_edges):
        key = (min(a, b), max(a, b))
        if not pool.get(key):
            raise InputError("quotient edge has no counterpart in the 5-regular graph")
        qe_to_h5[qe] = pool[key].pop(0)
    per_cycle: Dict[int, List[int]] = {v: [] for v in range(nq)}
    alpha_edges, beta_edges = [], []
    for qe, (a, b) in enumerate(q_edges):
        val = theta.values[qe]
        per_cycle[a].append(val)
        if b != a:
            per_cycle[b].append(val)
        if val == ALPHA:
            alpha_edges.append(qe_to_h5[qe])
        elif val == BETA:
            beta_edges.append(qe_to_h5[qe])
    for v, vals in per_cycle.items():
        if vals.count(ALPHA) != 1 or vals.count(BETA) != 1:
            raise NcflowError(
                f"cycle {v} does not carry exactly one alpha and one beta edge; "
                "this contradicts the published counting argument"
            )
    for name, sel in (("alpha", alpha_edges), ("beta", beta_edges)):
        cover = covered_vertices(h5, sel)
        if cover is None:
            raise NcflowError(f"{name}-edges do not form a matching")
        if len(cover) != h5.n:
            raise NcflowError(f"{name}-edges do not cover every vertex")
    if set(alpha_edges) & set(beta_edges):
        raise NcflowError("extracted matchings are not edge-disjoint")
    return tuple(sorted(alpha_edges)), tuple(sorted(beta_edges))


# ---------------------------------------------------------------------------
# every-2-factor characterization


@dataclass(frozen=True)
class EveryFactorReport:
    all_nonconflicting: bool
    verdicts: Tuple[Tuple[PerfectMatching, bool], ...]


def nonconflicting_for_every_two_factor(
    g: Pseudograph, deadline: Optional[float] = None
) -> EveryFactorReport:
    """True iff every perfect matching admits a non-conflicting flow."""
    verdicts = tuple((f, theta is not None) for f, theta in matching_verdicts(g, deadline=deadline))
    return EveryFactorReport(all(good for _f, good in verdicts), verdicts)
