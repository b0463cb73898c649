"""Pure-Python search kernels.

The readable reference for the C kernels in `_kernels.c`; `ncflow.kernels`
uses those when the library is built and these otherwise.  Both implement
identical semantics, node counts included:

* `flow_search` -- backtracking over edge values of a group Z_2^b with
  vertex-saturation (conservation) pruning and conflict-pair pruning
  ("first") or branch-and-bound ("min").  Both modes search once, valuing
  the edges in one vertex-grouped static order that takes the vertices
  with fewest edges first (fail first), so a step table built once
  records at each depth which vertex the edge closes (its value is then
  forced) and which conflict partners are already valued; the search
  keeps no per-vertex edge counts.  "first", which prunes every conflict,
  runs its own recursion without a conflict count.  Both modes break the
  alpha <-> beta symmetry: swapping bits 0 and 1 of every value maps
  flows to flows with the same conflicts, so until some edge holds a
  value the swap moves, a free edge skips a value whose image comes
  earlier in `values`.
* `normal_coloring_search` -- proper k-edge-coloring search with poor/rich
  pruning and canonical color introduction (colors first appear in
  increasing order, which is sound because normality is invariant under
  palette permutation).  Each vertex keeps a bitmask of the colors at it:
  properness is one AND, abnormality a 4-bit union of two masks.  The edge
  order is fixed before the search: next comes the edge that completes the
  most closed stars, then the one with the most colored neighbours, then
  the lowest id (`_coloring_steps`), so each edge is checked once, at the
  depth where its closed star becomes fully colored.  Each edge is also
  looked at one edge ahead, once, when all but one edge f of its closed
  star are colored: the branch is cut when no color of 1..k free at both
  ends of f would leave the edge normal (forward checking, Haralick and
  Elliott, Artificial Intelligence 14, 1980).  The colors f may take later
  are among those, so only branches without a normal completion are cut:
  the coloring returned is the one the search without the look-ahead
  returns, in the same order.  Coloring first the edges that complete
  stars makes the checks and the look-ahead fire early (Petersen at k = 5:
  1,139 nodes in breadth-first order over the line graph, 513 in this
  one).  One call searches a sequence of palettes on tables built once,
  as none of them depends on k.  Its input must be cubic and loop-free;
  both callers (`chi_n_exact` and `admits_normal_k_coloring`) refuse
  anything else.
"""

from __future__ import annotations

import time
from functools import lru_cache
from heapq import heapify, heappop, heappush
from typing import List, Optional, Sequence, Tuple, Union

from .errors import ResourceLimitError

BACKEND = "python"

_DEADLINE_STRIDE = 4096
# the largest flow value: the C kernels hold values in a C int
_MAX_VALUE = (1 << 31) - 1


class SearchTimeout(Exception):
    pass


def _swap_alpha_beta(x: int) -> int:
    """x with bits 0 and 1 exchanged: alpha = 1 <-> beta = 2 (and 5 <-> 6)."""
    return x ^ 3 if (x ^ x >> 1) & 1 else x


def check_edge_args(n: int, eu: Sequence[int], ev: Sequence[int]) -> None:
    """Reject an edge list neither backend reads safely: `eu` and `ev` of
    different lengths (ValueError) or an endpoint outside [0, n)
    (IndexError, as the C kernels' own check raises)."""
    if len(eu) != len(ev):
        raise ValueError("eu and ev must have one entry per edge")
    if eu and (min(eu) < 0 or min(ev) < 0 or max(eu) >= n or max(ev) >= n):
        raise IndexError("vertex or edge index out of range")


def check_search_args(
    nq: int,
    eu: Sequence[int],
    ev: Sequence[int],
    first: Sequence[int],
    second: Sequence[int],
    mode: str,
    values: Sequence[int],
) -> None:
    """Reject what neither backend's `flow_search` handles: a mode other
    than "first" or "min", a value that is not an int (TypeError; a bool
    is not taken), the value 0, which both use as the mark of an unvalued
    edge, a value outside 1..2^31 - 1, which the C kernels do not hold in
    an int, values that with 0 are not closed under XOR, as a closing edge
    takes whatever XOR conservation leaves (ValueError), and a bad edge list or conflict pair list (`check_edge_args`: the pairs
    are an edge list over the m edges).  Only the XOR verdict is kept per
    value tuple (`_candidates`): the other checks run on every call, so
    the cache never sees a tuple that only equals an int tuple."""
    if mode not in ("first", "min"):
        raise ValueError(f"unknown flow search mode {mode!r}")
    values = tuple(values)
    for x in values:
        if type(x) is not int:
            raise TypeError("flow values must be ints")
    if 0 in values:
        raise ValueError("flow values must be non-zero")
    if not all(0 < x <= _MAX_VALUE for x in values):
        raise ValueError("flow values must lie in 1..2**31 - 1")
    _candidates(values)
    check_edge_args(nq, eu, ev)
    check_edge_args(len(eu), first, second)


Candidates = List[Tuple[int, int, list]]


@lru_cache(maxsize=8)
def _candidates(values: Tuple[int, ...]) -> Candidates:
    """The candidates of `flow_search`'s first free edge over `values`,
    ints in 1..2^31 - 1 (`check_search_args`), built once per value tuple
    after checking that `values` with 0 is closed under XOR (ValueError,
    which is not cached).

    An entry (x, x ^ 3, next list) is a value, the partner value it
    conflicts with (alpha+beta apart) and the candidate list of the next
    free edge: `full`, every value, once the alpha <-> beta symmetry is
    broken, and `sym` before, which is returned; `sym` is `full` unless
    `values` is closed under the swap.  The lists are shared by every
    call and never changed.
    """
    group = {0, *values}
    for x in values:
        for y in values:
            if x ^ y not in group:
                raise ValueError("flow values with 0 must be closed under XOR")
    full: Candidates = []
    full += [(x, x ^ 3, full) for x in values]
    sym = full
    if all(_swap_alpha_beta(x) in values for x in values):
        sym = []
        for i, x in enumerate(values):
            sx = _swap_alpha_beta(x)
            if sx not in values[:i]:
                sym.append((x, x ^ 3, sym if sx == x else full))
    return sym


# (edge, u, v, vertex it closes or -1, closes both ends, earlier partners)
Step = Tuple[int, int, int, int, bool, Tuple[int, ...]]


def _edge_order(eu: Sequence[int], ev: Sequence[int], rank: Sequence[int]) -> List[int]:
    """The edges in the order of the search that takes vertex w as the
    rank[w]-th: each vertex in turn takes its edges not yet placed, in id
    order, so the edges go by their end ranked first, then by id."""
    by_rank: List[List[int]] = [[] for _ in rank]
    e = 0
    for u, v in zip(eu, ev):
        u, v = rank[u], rank[v]
        by_rank[u if u < v else v].append(e)
        e += 1
    order: List[int] = []
    for group in by_rank:
        order += group
    return order


def _step_table(
    nq: int,
    eu: Sequence[int],
    ev: Sequence[int],
    first: Sequence[int],
    second: Sequence[int],
    order: Sequence[int],
) -> List[Step]:
    """The steps of the search that values the edges in `order`:
    `steps[depth]` holds the edge valued at that depth, its endpoints, the
    vertex it closes (the first endpoint at which it is the last non-loop
    edge, or -1), whether it closes both, and its conflict partners valued
    at earlier depths."""
    m = len(eu)
    depth_of = [0] * m
    for d, e in enumerate(order):
        depth_of[e] = d
    earlier: List[List[int]] = [[] for _ in range(m)]  # by depth
    for a, b in zip(first, second):
        da, db = depth_of[a], depth_of[b]
        if da < db:
            earlier[db].append(a)
        elif db < da:
            earlier[da].append(b)
    # from the deepest edge up: a non-loop edge closes each end not seen yet
    seen = [False] * nq
    steps = []
    for d in range(m - 1, -1, -1):
        e = order[d]
        u, v = eu[e], ev[e]
        close_u = close_v = False
        if u != v:
            close_u, close_v = not seen[u], not seen[v]
            seen[u] = seen[v] = True
        closes = u if close_u else v if close_v else -1
        steps.append((e, u, v, closes, close_u and close_v, tuple(earlier[d])))
    steps.reverse()
    return steps


def _too_deep(m: int) -> ResourceLimitError:
    return ResourceLimitError(f"flow search over {m} edges recurses deeper than Python allows")


def _first_flow(
    steps: List[Step], nq: int, start: list, deadline: Optional[float]
) -> Tuple[Optional[List[int]], int]:
    """(the first conflict-free flow in the order of `steps`, or None; the
    nodes expanded).  It prunes every conflict, so it keeps no conflict
    count."""
    m = len(steps)
    acc = [0] * nq
    val = [0] * m  # not cleared on backtracking: only earlier partners are read
    nodes = 0

    def first(depth: int, free: list) -> bool:
        nonlocal nodes
        if depth == m:
            return True
        e, u, v, closes, both, partners = steps[depth]
        if closes < 0:
            cands = free
        else:
            x = acc[closes]
            if x == 0 or (both and acc[v] != x):
                return False
            cands = ((x, x ^ 3, free),)
        for x, clash, nxt in cands:
            nodes += 1
            if deadline is not None and nodes % _DEADLINE_STRIDE == 0:
                if time.monotonic() > deadline:
                    raise SearchTimeout
            for p in partners:
                if val[p] == clash:
                    break
            else:
                val[e] = x
                acc[u] ^= x
                acc[v] ^= x
                if first(depth + 1, nxt):
                    return True
                acc[u] ^= x
                acc[v] ^= x
        return False

    try:
        found = first(0, start)
    except RecursionError:
        raise _too_deep(m) from None
    return (val if found else None), nodes


def flow_search(
    nq: int,
    eu: Sequence[int],
    ev: Sequence[int],
    first: Sequence[int],
    second: Sequence[int],
    mode: str,
    values: Sequence[int] = (1, 2, 3),
    deadline: Optional[float] = None,
) -> Tuple[Optional[List[int]], int, int]:
    """Search nowhere-zero flows with XOR conservation at every vertex.

    Conflict pair i is (first[i], second[i]): two edge ids whose values
    conflict when they are alpha + beta apart.

    mode:
      "first" -- first flow with zero conflicts (prunes on any conflict)
      "min"   -- flow minimizing the number of conflicts (branch & bound)

    Returns (values or None, conflict_count_of_result, nodes_expanded).
    Raises as `check_search_args` does on bad arguments, and
    ResourceLimitError when the search, one call per edge, nests deeper
    than the interpreter allows (about 1,000 edges; the C kernel has no
    such limit).

    Edges are valued in a vertex-grouped static order (`_edge_order`,
    `_step_table`) that takes the vertices by their number of edges (a loop
    once), then by id, so the edges go by their end taken first, then by
    id.  The vertices with fewest edges close first, so their constraints
    cut early (fail first, Haralick and Elliott, Artificial Intelligence
    14, 1980).  A closing edge can only take the XOR already at the vertex
    it closes; as `values` with 0 is closed under XOR, that is a value of
    the group, so every order searches the same flows and only which one
    comes first depends on the order.  A later partner is still unvalued
    when the edge is tried and a self-pair never counts, so only earlier
    partners are kept; a duplicate pair counts twice.  A loop closes
    nothing and XORs its value into its vertex twice, which changes
    nothing.  Each value tried is one node, pruned or not, and the deadline
    is read every `_DEADLINE_STRIDE` nodes.

    Symmetry breaking (when `values` is closed under sigma =
    `_swap_alpha_beta`): sigma is an automorphism of the group that fixes
    alpha + beta = 3, so it maps every flow to a flow with the same
    conflicts.  Until some edge holds a value sigma moves, a free edge
    skips each x whose sigma(x) comes earlier in `values` (a skipped value
    is not a node); a closing edge then takes an XOR of sigma-fixed values,
    which is sigma-fixed itself.  The flow returned is the first in the
    search order (for "min", the first with the fewest conflicts), and its
    first sigma-moved value is the earlier one of its pair, so values and
    conflict counts are those of the unpruned search; nodes are not.  Each
    candidate carries the candidate list of the next free edge
    (`_candidates`, built once per value tuple).
    """
    check_search_args(nq, eu, ev, first, second, mode, values)
    if deadline is not None and time.monotonic() > deadline:
        raise SearchTimeout
    m = len(eu)

    sym = _candidates(tuple(values))
    edges_at = [0] * nq  # a loop once
    for u, v in zip(eu, ev):
        edges_at[u] += 1
        edges_at[v] += u != v
    rank = [0] * nq
    for i, w in enumerate(sorted(range(nq), key=edges_at.__getitem__)):  # stable: ties by id
        rank[w] = i
    steps = _step_table(nq, eu, ev, first, second, _edge_order(eu, ev, rank))
    if mode == "first":
        found, nodes = _first_flow(steps, nq, sym, deadline)
        return found, 0, nodes

    acc = [0] * nq
    val = [0] * m
    nodes = 0
    best_val: Optional[List[int]] = None
    best_conf = len(first) + 1

    def rec(depth: int, conf: int, free: list) -> None:
        nonlocal nodes, best_val, best_conf
        if depth == m:
            if conf < best_conf:
                best_conf = conf
                best_val = val[:]
            return
        e, u, v, closes, both, partners = steps[depth]
        if closes < 0:
            cands = free
        else:
            x = acc[closes]
            if x == 0 or (both and acc[v] != x):
                return
            cands = ((x, x ^ 3, free),)
        for x, clash, nxt in cands:
            nodes += 1
            if deadline is not None and nodes % _DEADLINE_STRIDE == 0:
                if time.monotonic() > deadline:
                    raise SearchTimeout
            c = conf
            for p in partners:
                if val[p] == clash:
                    c += 1
            if c >= best_conf:
                continue
            val[e] = x
            acc[u] ^= x
            acc[v] ^= x
            rec(depth + 1, c, nxt)
            acc[u] ^= x
            acc[v] ^= x

    try:
        rec(0, 0, sym)
    except RecursionError:
        raise _too_deep(m) from None
    if best_val is None:
        return None, 0, nodes
    return best_val, best_conf, nodes


# (edge, u, v, ends of the edges whose closed star it completes, and
# (ends, ends of the star's last uncolored edge) of those whose closed star
# it leaves with one uncolored edge)
ColorStep = Tuple[int, int, int, Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int, int, int], ...]]


def _coloring_steps(eu: Sequence[int], ev: Sequence[int], adjacent: Sequence[Sequence[int]]) -> List[ColorStep]:
    """The steps of the coloring search, one per depth, in the closed-star
    order: next comes the uncolored edge that completes the most closed
    stars (the stars whose only uncolored edge it is), then the one with
    the most colored adjacent edges, then the lowest id.

    A heap of keys (-completed, -colored neighbours, edge), packed into one
    int, with lazy deletion gives the order in O(m log m): an edge is
    pushed again whenever its key changes, and an entry that is no longer
    its edge's key is skipped when it comes out.  Keys only grow in
    priority, since a star whose only uncolored edge is f keeps it until f
    is colored, so the sequence depends on the keys alone.  The step of
    each depth lists the stars that its edge completes, to be checked
    there, and those it leaves with one uncolored edge, to be looked at
    ahead.
    """
    m = len(adjacent)
    # key[e] is e less m per colored neighbour (at most m - 1 of them) and
    # (m + 1) * m per completed star, so key[e] % m is e; a placed edge's
    # key is m, above every entry
    completed = (m + 1) * m
    left = [len(a) + 1 for a in adjacent]  # uncolored edges of each closed star
    key = [e - completed if x == 1 else e for e, x in enumerate(left)]
    heap = key[:]
    heapify(heap)
    placed = [False] * m
    steps: List[ColorStep] = []
    for _ in range(m):
        x = heappop(heap)
        while x != key[x % m]:
            x = heappop(heap)
        e = x % m
        key[e] = m
        placed[e] = True
        adj = adjacent[e]
        for f in adj:
            if not placed[f]:
                key[f] -= m
                heappush(heap, key[f])
        checks = []
        ahead = []
        for g in (e, *adj):
            left[g] -= 1
            if left[g] == 0:
                checks.append((eu[g], ev[g]))
            elif left[g] == 1:  # f, the last uncolored edge, would complete g's star
                f = g
                if placed[g]:
                    for f in adjacent[g]:
                        if not placed[f]:
                            break
                key[f] -= completed
                heappush(heap, key[f])
                ahead.append((eu[g], ev[g], eu[f], ev[f]))
        steps.append((e, eu[e], ev[e], tuple(checks), tuple(ahead)))
    return steps


def normal_coloring_search(
    n: int,
    eu: Sequence[int],
    ev: Sequence[int],
    k: Union[int, Sequence[int]],
    deadline: Optional[float] = None,
) -> Tuple[Optional[List[int]], int, Tuple[int, ...]]:
    """First proper edge-coloring without abnormal edges at the first
    palette of `k` that has one.

    `k` is one palette (a number of colors) or a sequence of palettes,
    searched in turn on tables built once: the incidence lists, the
    adjacency, the edge order, the checks and the look-ahead steps depend
    on the graph alone.  The search stops at the first palette that admits
    a coloring.  Returns (colors in 1..that palette, or None when every
    palette is exhausted; the nodes expanded in all; the nodes expanded at
    each palette searched, in order).  A palette's count is the one a call
    with that palette alone returns.

    Edges are colored in the static order of `_coloring_steps`, which
    takes next the edge that completes the most closed stars, so their
    checks and look-ahead fire early (in the spirit of maximum cardinality
    search, Tarjan and Yannakakis, SIAM J. Comput. 13, 1984).  `pal[v]` is
    the bitmask of colors on the colored edges at v, so color c is free
    for edge uv when bit c of `pal[u] | pal[v]` is clear, and a fully
    colored closed star of uv is abnormal when that union has 4 bits.  The
    order is static, so the depth at which each closed star becomes fully
    colored is known in advance; the edges whose stars complete at a depth
    are checked there and nowhere else.

    Look-ahead: at the depth where the second-to-last edge of e's closed
    star is colored, f, the last one, is still uncolored, and
    `steps[depth]` lists (e.u, e.v, f.u, f.v).  With S the colors on e's
    star and `free` the colors of 1..k at neither end of f, a color b for
    f keeps |S| colors when b is in S and makes |S| + 1 otherwise, and e
    is normal unless that is 4; so the branch lives iff
    `(S & free and |S| != 4) or (free & ~S and |S| != 3)`.  Later edges
    only take colors away from `free`, and the check reads all of 1..k,
    not only the colors up to maxused + 1 that canonical introduction
    allows f, so it cuts no branch with a normal completion: the coloring
    returned is the first in the static order, as without the look-ahead,
    and only node counts fall.  Canonical introduction and the look-ahead
    are sound in any static order, so which palettes admit a coloring does
    not depend on the order; the coloring found and the node counts do.

    Endpoints of every edge must have degree 3 for the poor/rich pruning to
    apply; both callers in `ncflow.coloring` reject loops and non-cubic
    graphs.  Raises as `check_edge_args` does on a bad edge list,
    SearchTimeout once `deadline` has passed (read before each palette and
    every `_DEADLINE_STRIDE` nodes), and ResourceLimitError as
    `flow_search` does.
    """
    check_edge_args(n, eu, ev)
    palettes = (k,) if isinstance(k, int) else tuple(k)
    m = len(eu)

    incid: List[List[int]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(zip(eu, ev)):
        incid[u].append(e)
        incid[v].append(e)
    # edges sharing an endpoint with e (e excluded, parallel edges once)
    adjacent = []
    for e, (u, v) in enumerate(zip(eu, ev)):
        star = dict.fromkeys(incid[u] + incid[v])
        del star[e]
        adjacent.append(list(star))
    steps = _coloring_steps(eu, ev, adjacent)

    pal = [0] * n
    color = [0] * m
    nodes = 0
    choices: List[Tuple[Tuple[int, int], ...]] = []
    palette = 0

    def rec(depth: int, maxused: int) -> bool:
        nonlocal nodes
        if depth == m:
            return True
        e, u, v, star_checks, star_ahead = steps[depth]
        used = pal[u] | pal[v]
        for c, bit in choices[maxused]:
            nodes += 1
            if deadline is not None and nodes % _DEADLINE_STRIDE == 0:
                if time.monotonic() > deadline:
                    raise SearchTimeout
            if used & bit:
                continue
            pal[u] |= bit
            pal[v] |= bit
            for a, b in star_checks:
                if (pal[a] | pal[b]).bit_count() == 4:
                    break
            else:
                for a, b, x, y in star_ahead:
                    seen = pal[a] | pal[b]
                    free = palette & ~(pal[x] | pal[y])
                    size = seen.bit_count()
                    if not ((free & seen and size != 4) or (free & ~seen and size != 3)):
                        break
                else:
                    if rec(depth + 1, c if c > maxused else maxused):
                        color[e] = c
                        return True
            pal[u] ^= bit
            pal[v] ^= bit
        return False

    trail: List[int] = []
    for k in palettes:
        if deadline is not None and time.monotonic() > deadline:
            raise SearchTimeout
        # choices[top]: (color, bit) pairs open to an edge when colors
        # 1..top are in use; a new color enters only as top + 1 (canonical
        # order), so no edge takes a color above m.  The look-ahead's
        # palette 1..k is cut to 1..m + 1 likewise: color m + 1 is never
        # used and stands for every color above it.
        colors = max(min(k, m + 1), 0)
        choices = [tuple((c, 1 << c) for c in range(1, min(colors, top + 1) + 1)) for top in range(colors + 1)]
        palette = (1 << colors + 1) - 2
        nodes = 0
        try:
            found = rec(0, 0)
        except RecursionError:
            raise ResourceLimitError(f"coloring search over {m} edges recurses deeper than Python allows") from None
        trail.append(nodes)
        if found:
            return color, sum(trail), tuple(trail)
    return None, sum(trail), tuple(trail)
