"""Edge-coloring classification, exact normal chromatic index, and the
coloring constructions derived from flows.

A proper coloring of a cubic graph puts 3 to 5 colors on the closed
neighborhood of an edge; size 3 is poor, 5 is rich, 4 is abnormal.  A
coloring is normal when no edge is abnormal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from itertools import starmap
from operator import eq
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import InputError, NcflowError, ResourceLimitError
from .flows import FlowAssignment, _conflict_edges, _conserves, _f_values, _xor_balanced
from .graph import (
    Pseudograph,
    _contract_vertex_sets,
    _two_cut_pieces,
    bridges,
    contract_two_factor,
    is_cubic,
)
from .kernels import check_deadline, flow_search, normal_coloring_search
from .matchings import PerfectMatching, TwoFactor, covered_vertices

POOR = "poor"
RICH = "rich"
ABNORMAL = "abnormal"


@dataclass(frozen=True)
class EdgeColoring:
    colors: Tuple[int, ...]  # edge id -> color in 1..k
    k: int


@dataclass(frozen=True)
class EdgeClass:
    kind: str  # poor | rich | abnormal
    union_size: int


@dataclass(frozen=True)
class NormalVerdict:
    ok: bool
    abnormal_edges: Tuple[int, ...]


def _reject_loops(g: Pseudograph):
    if any(starmap(eq, g.edges)):
        raise InputError("loops make properness undefined; refusing to color")


def is_proper(g: Pseudograph, c: EdgeColoring) -> bool:
    colors, k = c.colors, c.k
    if len(colors) != g.m:
        return False
    pal = [0] * g.n  # vertex -> bitmask of the colors at it
    try:
        for (u, v), col in zip(g.edges, colors):
            if not 1 <= col <= k:
                return False
            bit = 1 << col
            # a loop meets its vertex once, as in g.incident
            if (pal[u] | pal[v]) & bit:
                return False
            pal[u] |= bit
            pal[v] |= bit
    except TypeError:  # a color that is not an integer
        return False
    return True


def _require_proper(g: Pseudograph, c: EdgeColoring):
    _reject_loops(g)
    if not is_proper(g, c):
        raise InputError("coloring is not proper")


def palette_at(g: Pseudograph, c: EdgeColoring, v: int) -> Set[int]:
    return {c.colors[e] for e in g.incident(v)}


def classify_edge(g: Pseudograph, c: EdgeColoring, eid: int) -> EdgeClass:
    _require_proper(g, c)
    u, v = g.endpoints(eid)
    if g.degree(u) != 3 or g.degree(v) != 3:
        raise InputError("classification needs degree-3 endpoints")
    size = len(palette_at(g, c, u) | palette_at(g, c, v))
    kind = {3: POOR, 4: ABNORMAL, 5: RICH}[size]
    return EdgeClass(kind, size)


def is_normal(g: Pseudograph, c: EdgeColoring) -> NormalVerdict:
    _require_proper(g, c)
    bad = _abnormal_edges(g, c)
    return NormalVerdict(not bad, bad)


def _abnormal_edges(g: Pseudograph, c: EdgeColoring) -> Tuple[int, ...]:
    """`is_normal`'s abnormal edges, for a proper coloring c of a loop-free g."""
    # proper and loop-free, so a vertex has one palette bit per edge at it
    if not {0, 3}.issuperset(g._degree):
        raise InputError("classification needs degree-3 endpoints")
    pal = [0] * g.n
    for (u, v), col in zip(g.edges, c.colors):
        bit = 1 << col
        pal[u] |= bit
        pal[v] |= bit
    bad = []
    for e, (u, v) in enumerate(g.edges):
        if (pal[u] | pal[v]).bit_count() == 4:
            bad.append(e)
    return tuple(bad)


@dataclass(frozen=True)
class ChiNResult:
    k: int
    witness: EdgeColoring
    multigraph: bool
    # (k, nodes expanded at palette k on G and on its reductions), k = 3..k
    nodes_per_k: Tuple[Tuple[int, int], ...]
    # (k, "lemma-A" | "triangle" | "2-cut") for each k no search on G decided
    settled_by: Tuple[Tuple[int, str], ...] = ()


LEMMA_A = "lemma-A"
TRIANGLE = "triangle"
TWO_CUT = "2-cut"


def _check_colorable(g: Pseudograph):
    """Refuse loops and non-cubic graphs, where normality is undefined."""
    _reject_loops(g)
    if not is_cubic(g):
        raise InputError("normal chromatic index is defined for cubic graphs")


def _search(
    g: Pseudograph, palettes: Sequence[int], deadline: Optional[float], nodes: Dict[int, int]
) -> Optional[EdgeColoring]:
    """One kernel call that searches g for a normal coloring at each
    palette in turn, on tables built once, up to the first that admits
    one; adds each palette's nodes to nodes[k] and raises NcflowError if
    the kernel's witness is not normal."""
    if not palettes:
        return None
    eu = [e[0] for e in g.edges]
    ev = [e[1] for e in g.edges]
    colors, _total, trail = normal_coloring_search(g.n, eu, ev, palettes, deadline=deadline)
    for k, expanded in zip(palettes, trail):
        nodes[k] = nodes.get(k, 0) + expanded
    if colors is None:
        return None
    k = palettes[len(trail) - 1]
    witness = EdgeColoring(tuple(colors), k)
    if not is_normal(g, witness).ok:
        raise NcflowError(f"normal-coloring search returned an abnormal {k}-coloring")
    return witness


def _disjoint_triangles(g: Pseudograph) -> List[Tuple[int, int, int]]:
    """Triangles a < b < c whose three edges are simple, in lexicographic
    order, each kept unless it shares a vertex with one kept before."""
    mult: Dict[Tuple[int, int], int] = {}
    for u, v in g.edges:
        key = (u, v) if u < v else (v, u)
        mult[key] = mult.get(key, 0) + 1
    above: List[List[int]] = [[] for _ in range(g.n)]
    for (u, v), count in sorted(mult.items()):
        if count == 1 and u != v:
            above[u].append(v)
    used = [False] * g.n
    out = []
    for a in range(g.n):
        for b, c in itertools.combinations(above[a], 2):
            if not used[a] and not used[b] and not used[c] and mult.get((b, c)) == 1:
                out.append((a, b, c))
                used[a] = used[b] = used[c] = True
    return out


def _solve(
    g: Pseudograph, k_max: int, deadline: Optional[float], nodes: Dict[int, int], cut: bool
) -> Tuple[Optional[Tuple[str, Optional[EdgeColoring]]], Optional[EdgeColoring]]:
    """(g's reduction, the normal coloring of g with chi'_N(g) <= k_max
    colors or None).

    Contracts g's disjoint triangles round after round, then (if `cut`)
    cuts the last graph at its 2-edge cuts, and finishes the graphs from
    the last one up (`_finish`), each with the lift of the witness below
    it.  The reduced graphs are solved with at most min(k_max, 5) colors.
    The reduction is (lemma, the witness it lifts to g or None), or None
    when g has none.
    """
    cap = min(k_max, 5)
    rounds = []  # (graph, its triangles, the contraction's edge map)
    while True:
        check_deadline(deadline)
        tris = _disjoint_triangles(g)
        if not tris:
            break
        gq, emap = _contract_triangles(g, tris)
        rounds.append((g, tris, emap))
        g = gq
    reduced = _two_cut_reduction(g, cap, deadline, nodes) if cut else None
    witness = _finish(g, cap if rounds else k_max, reduced, deadline, nodes)
    for i in range(len(rounds) - 1, -1, -1):
        gi, tris, emap = rounds[i]
        reduced = TRIANGLE, None if witness is None else _lift_triangles(gi, tris, emap, witness)
        witness = _finish(gi, cap if i else k_max, reduced, deadline, nodes)
    return reduced, witness


def _two_cut_reduction(
    g: Pseudograph, k_max: int, deadline: Optional[float], nodes: Dict[int, int]
) -> Optional[Tuple[str, Optional[EdgeColoring]]]:
    """(TWO_CUT, g's coloring glued from its pieces' or None), or None when
    `_two_cut_pieces` does not cut g.  Each piece is solved with at most
    k_max colors by its triangle rounds alone: it has no 2-edge cut, and
    contracting a triangle makes none.  A piece with no such coloring
    ends the reduction, as g is then not 3-edge-colorable."""
    pieces = _two_cut_pieces(g)
    if pieces is None:
        return None
    graphs, _piece_of, edge_at, rings = pieces
    colorings = []
    for piece in graphs:
        witness = _solve(piece, k_max, deadline, nodes, cut=False)[1]
        if witness is None:
            return TWO_CUT, None
        colorings.append(witness)
    return TWO_CUT, _glue(g, graphs, colorings, edge_at, rings)


def _finish(
    g: Pseudograph,
    k_max: int,
    reduced: Optional[Tuple[str, Optional[EdgeColoring]]],
    deadline: Optional[float],
    nodes: Dict[int, int],
) -> Optional[EdgeColoring]:
    """The normal coloring of g with chi'_N(g) <= k_max colors, or None,
    given the outcome of g's reduction.

    The reduced graphs are solved with at most 5 colors, since only a value
    of 3 or 5 lifts: a normal coloring lifts over a triangle or a 2-edge cut
    with the same number of colors, and a graph that is not 3-edge-colorable
    has chi'_N >= 5 (Lemma A: a normal 4-coloring has no rich edge, so it
    is a 3-edge-coloring).  Any other outcome searches g itself from k = 5,
    and a g without a reduction at k = 3 first, all in one kernel call.
    The palettes stop at m + 1: canonical color introduction uses at most
    m colors, so every larger palette searches the same colorings.
    """
    if reduced is not None and reduced[1] is not None:
        return reduced[1]
    if k_max >= 4:
        nodes.setdefault(4, 0)
    top = min(k_max, g.m + 1)
    return _search(g, ([3] if reduced is None else []) + list(range(5, top + 1)), deadline, nodes)


def chi_n_exact(
    g: Pseudograph, k_max: int, deadline: Optional[float] = None
) -> Optional[ChiNResult]:
    """Smallest k <= k_max admitting a normal k-edge-coloring, with witness.

    Reductions come before any search, in a fixed order: contract the
    triangles with simple edges, taken lowest first and vertex-disjoint,
    all at once, round after round; then cut a connected bridgeless graph
    at all its 2-edge cuts at once and solve each piece the same way.
    k = 4 is never searched (Lemma A).  A reduced value of 3 or 5 lifts to
    G; any other outcome searches G itself from k = 5 up.  Every other k is
    a completed negative search (node counts kept as the certificate
    trail).  Multigraphs are accepted but flagged: the published index is
    defined for simple cubic graphs only.
    """
    check_deadline(deadline)
    _check_colorable(g)
    if k_max < 3:
        return None
    nodes: Dict[int, int] = {}
    reduced, witness = _solve(g, k_max, deadline, nodes, cut=True)
    if witness is None:
        return None
    k = witness.k
    settled = {4: LEMMA_A} if k > 4 else {}
    if reduced is not None:
        lemma, lifted = reduced
        settled[3] = lemma
        if lifted is not None:
            settled[k] = lemma
    return ChiNResult(
        k,
        witness,
        not g.is_simple(),
        tuple((j, nodes[j]) for j in sorted(nodes) if j <= k),
        tuple(sorted(settled.items())),
    )


def admits_normal_k_coloring(
    g: Pseudograph, k: int, deadline: Optional[float] = None
) -> Optional[EdgeColoring]:
    """Decision version: some normal k-coloring, not necessarily minimal k."""
    _check_colorable(g)
    return _search(g, (k,), deadline, {})


@dataclass(frozen=True)
class AbnormalityWitness:
    doubled_edges: Tuple[int, int]
    third_edge_u: int
    third_edge_v: int


def structural_abnormality(g: Pseudograph) -> Optional[AbnormalityWitness]:
    """A doubled edge whose two remaining edges are adjacent.

    Such an edge has palette-union size 4 in every proper coloring, so the
    graph admits no normal coloring at all.
    """
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.multiplicity(u, v) != 2:
                continue
            par = [e for e in g.incident(u) if g.other_end(e, u) == v]
            rest_u = [e for e in g.incident(u) if e not in par and not g.is_loop(e)]
            rest_v = [e for e in g.incident(v) if e not in par and not g.is_loop(e)]
            if len(rest_u) != 1 or len(rest_v) != 1:
                continue
            fu, fv = rest_u[0], rest_v[0]
            if fu == fv:
                continue  # shared third edge: the doubled edge can be poor
            if set(g.endpoints(fu)) & set(g.endpoints(fv)):
                return AbnormalityWitness((par[0], par[1]), fu, fv)
    return None


# ---------------------------------------------------------------------------
# flows -> colorings


@dataclass(frozen=True)
class Z2CubedFlow:
    """Edge -> nonzero element of Z2 x Z2 x Z2, encoded in 3 bits.

    Bit 2 (value 4) is the leading coordinate; the low two bits follow the
    Klein encoding of the 2-bit flows.
    """

    values: Tuple[int, ...]

    def __post_init__(self):
        for v in self.values:
            if not 1 <= v <= 7:
                raise InputError(f"{v} is not a nonzero Z2^3 element")


def verify_z2cubed_flow(g: Pseudograph, mu: Z2CubedFlow) -> bool:
    if len(mu.values) != g.m:
        raise InputError("flow does not cover every edge")
    return _xor_balanced(g.n, g.edges, mu.values)


# palette order for 6-colorings built from flows: alpha+beta before alpha,
# then the four leading-bit values in numeric order; beta (1) is merged
# into alpha (2)
_MERGED_SIX_PALETTE = {3: 1, 2: 2, 1: 2, 4: 3, 5: 4, 6: 5, 7: 6}


@dataclass(frozen=True)
class FlowColoringResult:
    coloring: EdgeColoring
    mu: Z2CubedFlow  # the intermediate 3-bit flow, before the beta->alpha merge


def coloring_from_flow(
    g: Pseudograph, f: PerfectMatching, tf: TwoFactor, theta: FlowAssignment
) -> FlowColoringResult:
    """Normal 6-edge-coloring from a non-conflicting flow, read on G.

    Matching edges carry (0, theta); each 2-factor cycle gets a leading-bit
    seed propagated around it; the resulting 3-bit flow is then collapsed
    by recoloring (0, beta) as (0, alpha).  F-bar's index comes from
    `contract_two_factor`, so a 2-factor carrying its contraction on g is
    not indexed again.
    """
    h = contract_two_factor(g, tf)
    vals = theta.values
    f_value = _f_values(h, theta, f)
    if not _conserves(h, f_value):
        raise InputError("not a valid flow")
    if _conflict_edges(h, vals, f_value):
        raise InputError("flow has conflicts; the 6-color merge would go abnormal")
    mu = [0] * g.m
    for eid, val in zip(h.edge_origin, vals):
        mu[eid] = val
    for cyc in h.cycles:
        for x0 in (4, 5, 6, 7):
            around = _propagate_cycle(cyc, f_value, x0)
            if around is not None:
                for eid, val in around.items():
                    mu[eid] = val
                break
        else:
            raise NcflowError("no leading-bit seed propagates; conservation broken")
    mu_flow = Z2CubedFlow(tuple(mu))
    if not verify_z2cubed_flow(g, mu_flow):
        raise NcflowError("propagated Z2^3 flow does not conserve")
    coloring = EdgeColoring(tuple(map(_MERGED_SIX_PALETTE.__getitem__, mu)), 6)
    verdict = is_normal(g, coloring)
    if not verdict.ok:
        raise NcflowError("merged coloring is abnormal; flow was not non-conflicting")
    return FlowColoringResult(coloring, mu_flow)


def _propagate_cycle(cyc, f_value: List[int], x0: int) -> Optional[Dict[int, int]]:
    """Fix the seed on the first cycle edge and walk conservation around.

    `f_value[v]` is the flow value on the matching edge at vertex v.
    """
    out = {cyc.edges[0]: x0}
    cur = x0
    k = len(cyc.vertices)
    for i in range(1, k):
        cur = cur ^ f_value[cyc.vertices[i]]
        if cur & 4 == 0:
            return None
        out[cyc.edges[i]] = cur
    # closing consistency at vertices[0]
    if out[cyc.edges[k - 1]] ^ f_value[cyc.vertices[0]] != x0:
        return None
    return out


def z2cubed_flow_coloring(
    g: Pseudograph, deadline: Optional[float] = None
) -> Tuple[Z2CubedFlow, EdgeColoring]:
    """Nowhere-zero Z2^3 flow read as a normal 7-edge-coloring."""
    _reject_loops(g)
    if not is_cubic(g):
        raise InputError("expected a cubic graph")
    if bridges(g):
        raise InputError("graph has a bridge; no nowhere-zero flow exists")
    eu = [e[0] for e in g.edges]
    ev = [e[1] for e in g.edges]
    vals, _conf, _nodes = flow_search(
        g.n, eu, ev, [], [], "first", values=tuple(range(1, 8)), deadline=deadline
    )
    if vals is None:
        raise InputError("no nowhere-zero Z2^3 flow found")
    mu = Z2CubedFlow(tuple(vals))
    if not verify_z2cubed_flow(g, mu):
        raise NcflowError("flow search returned a Z2^3 flow that does not conserve")
    coloring = EdgeColoring(tuple(mu.values), 7)
    if not is_normal(g, coloring).ok:
        raise NcflowError("a nowhere-zero Z2^3 flow must color normally")
    return mu, coloring


def verify_conjecture4_witness(
    g: Pseudograph, mu: Z2CubedFlow, x: int, y: int
) -> bool:
    """Check the two witness conditions: {x,y}-edges form a matching, and no
    edge joins an x-star to a y-star (read symmetrically)."""
    if not verify_z2cubed_flow(g, mu):
        raise InputError("not a valid nowhere-zero Z2^3 flow")
    if covered_vertices(g, (e for e in range(g.m) if mu.values[e] in {x, y})) is None:
        return False
    for u, v in g.edges:
        for a, b in ((x, y), (y, x)):
            for eu in g.incident(u):
                if mu.values[eu] != a:
                    continue
                if any(ev != eu and mu.values[ev] == b for ev in g.incident(v)):
                    return False
    return True


# ---------------------------------------------------------------------------
# reductions: 2-cuts and triangles


@dataclass(frozen=True)
class TwoCutSplit:
    g1: Pseudograph
    g2: Pseudograph
    h1: int  # the replacement edge in g1
    h2: int
    side_of_vertex: Tuple[int, ...]  # G-vertex -> 1 or 2
    edge_to_side: Dict[int, Tuple[int, int]]  # G-edge -> (side, side edge id)


def split_two_cut(g: Pseudograph, cut: Tuple[int, int]) -> TwoCutSplit:
    """Cut {e1, e2} off, close each side with a replacement edge: the two
    pieces of `_two_cut_pieces(g, cut)`, side 1 holding vertex 0."""
    e1, e2 = cut
    if set(g.endpoints(e1)) & set(g.endpoints(e2)):
        raise InputError("cut edges must be vertex-disjoint")
    pieces = _two_cut_pieces(g, cut)
    if pieces is None:
        raise InputError("edge pair is not a 2-edge-cut")
    (g1, g2), piece_of, edge_at, (ring,) = pieces
    h = dict(ring)
    edge_to_side = {eid: (p + 1, e) for eid, (p, e) in enumerate(edge_at) if p >= 0}
    return TwoCutSplit(g1, g2, h[0], h[1], tuple(p + 1 for p in piece_of), edge_to_side)


def lift_over_2_cut(
    g: Pseudograph,
    cut: Tuple[int, int],
    c1: EdgeColoring,
    c2: EdgeColoring,
    split: Optional[TwoCutSplit] = None,
) -> EdgeColoring:
    """Merge normal colorings of the two 2-cut reductions into one of G:
    side 2 is renamed to fit side 1 by `_glue`'s rule."""
    if split is None:
        split = split_two_cut(g, cut)
    # is_normal raises InputError on an improper side coloring; both sides
    # are checked before either verdict is read
    normal1, normal2 = is_normal(split.g1, c1).ok, is_normal(split.g2, c2).ok
    if not (normal1 and normal2):
        raise InputError("side colorings must be normal")
    edge_at = [(-1, 0)] * g.m
    for eid, (s, se) in split.edge_to_side.items():
        edge_at[eid] = (s - 1, se)
    return _glue(g, (split.g1, split.g2), [c1, c2], edge_at, [((0, split.h1), (1, split.h2))])


def _stubs(g: Pseudograph, colors, e: int, rename) -> Tuple[int, List[int], List[int]]:
    """(e's color, the other two colors at its first end, at its second
    end), renamed, each pair in increasing order."""
    u, v = g.edges[e]
    pairs = (sorted(rename[colors[f]] for f in g.incident(w) if f != e) for w in (u, v))
    return (rename[colors[e]], *pairs)


def _glue(g: Pseudograph, graphs, colorings: List[EdgeColoring], edge_at, rings) -> EdgeColoring:
    """A normal coloring of g from normal colorings of its pieces, with
    `_two_cut_pieces`' edge map and rings.

    The pieces and rings form a tree, walked from piece 0, which keeps its
    colors.  On each ring, the piece it is reached from has its virtual
    edge colored t, the pair L of other colors at its "-" stub, and R at
    its "+" stub if the edge is rich, else R is the two lowest colors
    besides t and L.  Each other piece on the ring is renamed so that its
    virtual edge takes t, its "-" pair L, its "+" pair L if poor or R if
    rich, and its other colors the lowest left.  Every ring edge then takes
    t and sees L or R at each end, so it is poor or rich, and every other
    edge keeps its closed star's colors up to renaming.  The result is
    checked on g once; NcflowError if it is not normal.
    """
    k = max(c.k for c in colorings)
    on_rings: List[List[Tuple[int, int]]] = [[] for _ in graphs]
    for r, ring in enumerate(rings):
        for p, e in ring:
            on_rings[p].append((r, e))
    renames = [list(range(c.k + 1)) for c in colorings]
    ring_color = [0] * len(rings)
    queue = [0]
    for p in queue:
        for r, e in on_rings[p]:
            if ring_color[r]:
                continue
            t, minus, plus = _stubs(graphs[p], colorings[p].colors, e, renames[p])
            if plus == minus:
                plus = [x for x in range(1, k + 1) if x != t and x not in minus][:2]
            ring_color[r] = t
            for q, qe in rings[r]:
                if q == p:
                    continue
                c = colorings[q]
                ct, cminus, cplus = _stubs(graphs[q], c.colors, qe, range(c.k + 1))
                rename = [0] * (c.k + 1)
                for a, b in zip([ct] + cminus + (cplus if cplus != cminus else []), [t] + minus + plus):
                    rename[a] = b
                spare = iter([x for x in range(1, k + 1) if x not in rename])
                renames[q] = [0] + [x or next(spare) for x in rename[1:]]
                queue.append(q)
    colors = tuple(ring_color[i] if p < 0 else renames[p][colorings[p].colors[i]] for p, i in edge_at)
    cand = EdgeColoring(colors, k)
    if not is_proper(g, cand) or _abnormal_edges(g, cand):
        raise NcflowError("2-cut gluing failed to stay normal")
    return cand


def contract_triangle(
    g: Pseudograph, tri: Tuple[int, int, int]
) -> Tuple[Pseudograph, Dict[int, int]]:
    """G/T for a triangle with simple edges; returns (quotient, qedge -> G edge)."""
    return _contract_triangles(g, [tri])


def _contract_triangles(
    g: Pseudograph, tris: List[Tuple[int, int, int]]
) -> Tuple[Pseudograph, Dict[int, int]]:
    """G/T1/T2/... for vertex-disjoint triangles with simple edges, in one
    pass; triangle i becomes the i-th of the new last vertices."""
    for tri in tris:
        if len(set(tri)) != 3:
            raise InputError("need three distinct vertices")
        for a, b in itertools.combinations(tri, 2):
            if g.multiplicity(a, b) != 1:
                raise InputError("triangle edges must have multiplicity one")
    gq, _vmap, emap = _contract_vertex_sets(g, [set(tri) for tri in tris])
    return gq, emap


def lift_over_triangle(
    g: Pseudograph, tri: Tuple[int, int, int], qc: EdgeColoring
) -> EdgeColoring:
    """Extend a normal coloring of G/T by giving each triangle edge the color
    of its opposite outgoing edge."""
    gq, emap = contract_triangle(g, tri)
    if not is_normal(gq, qc).ok:  # InputError first when qc is not proper
        raise InputError("quotient coloring must be normal")
    return _lift_triangles(g, [tri], emap, qc)


def _lift_triangles(
    g: Pseudograph, tris: List[Tuple[int, int, int]], emap: Dict[int, int], qc: EdgeColoring
) -> EdgeColoring:
    """`lift_over_triangle` over every triangle at once, for a normal
    coloring qc of the quotient `_contract_triangles(g, tris)` returned
    with the edge map emap.  Each lift is local to its triangle, so the
    result is the same as lifting over the triangles one by one."""
    colors = [0] * g.m
    for qe, ge in emap.items():
        colors[ge] = qc.colors[qe]
    for tri in tris:
        ts = set(tri)
        out_color = {}
        for v in tri:
            outs = [e for e in g.incident(v) if g.other_end(e, v) not in ts]
            if len(outs) != 1:
                raise InputError("triangle vertices must each have one outgoing edge")
            out_color[v] = colors[outs[0]]
        for v in tri:
            for e in g.incident(v):
                w = g.other_end(e, v)
                if w in ts:
                    (opposite,) = ts - {v, w}
                    colors[e] = out_color[opposite]
    cand = EdgeColoring(tuple(colors), qc.k)
    if not is_proper(g, cand) or _abnormal_edges(g, cand):
        raise NcflowError("triangle lift failed to stay normal")
    return cand


# ---------------------------------------------------------------------------
# H-colorings


def h_coloring(
    g: Pseudograph, h: Pseudograph, deadline: Optional[float] = None
) -> Optional[Dict[int, int]]:
    """Edge map G -> H carrying every G-star onto some H-star, or None.

    The search makes one nested call per vertex of G, so it raises
    ResourceLimitError past about 1,000 vertices, where the interpreter
    would raise RecursionError.
    """
    if not is_cubic(g) or not is_cubic(h):
        raise InputError("H-colorings are defined between cubic graphs")
    _reject_loops(g)
    _reject_loops(h)
    h_stars = [frozenset(h.incident(w)) for w in range(h.n)]
    if any(len(s) != 3 for s in h_stars):
        return None  # parallel edges in H collapse a star below 3 edges
    # BFS vertex order for locality
    order: List[int] = []
    seen = [False] * g.n
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        queue = [s]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in g.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    img: Dict[int, int] = {}

    def rec(i: int) -> bool:
        check_deadline(deadline)
        if i == len(order):
            return True
        v = order[i]
        star = list(g.incident(v))
        fixed = {e: img[e] for e in star if e in img}
        for w in range(h.n):
            if not set(fixed.values()) <= h_stars[w]:
                continue
            if len(set(fixed.values())) != len(fixed):
                continue
            free = [e for e in star if e not in img]
            remaining = list(h_stars[w] - set(fixed.values()))
            for assign in itertools.permutations(remaining, len(free)):
                for e, fe in zip(free, assign):
                    img[e] = fe
                if rec(i + 1):
                    return True
                for e in free:
                    del img[e]
        return False

    try:
        found = rec(0)
    except RecursionError:
        raise ResourceLimitError(f"H-coloring search over {g.n} vertices recurses deeper than Python allows") from None
    return dict(img) if found else None


def verify_h_coloring(g: Pseudograph, h: Pseudograph, phi: Dict[int, int]) -> bool:
    h_stars = {frozenset(h.incident(w)) for w in range(h.n)}
    for v in range(g.n):
        image = frozenset(phi[e] for e in g.incident(v))
        if len(image) != len(g.incident(v)) or image not in h_stars:
            return False
    return True
