"""Pure-Python search kernels.

Twin of the compiled extension `_kernels`; `ncflow.kernels` picks whichever
is importable.  Both implement identical semantics:

* `flow_search` -- backtracking over edge values of a group Z_2^b with
  vertex-saturation (conservation) pruning and optional conflict-pair
  pruning / branch-and-bound.
* `normal_coloring_search` -- proper k-edge-coloring search with poor/rich
  pruning and canonical color introduction (colors first appear in
  increasing order, which is sound because normality is invariant under
  palette permutation).  Each vertex keeps a bitmask of the colors at it:
  properness is one AND, abnormality a 4-bit union of two masks.  The edge
  order is fixed, so the depth at which each edge's closed star becomes
  fully colored is computed before the search, and every edge is checked
  once, at that depth.  Its input must be cubic and loop-free; both
  callers (`chi_n_exact` and `admits_normal_k_coloring`) refuse anything
  else.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

BACKEND = "python"

_DEADLINE_STRIDE = 4096


class SearchTimeout(Exception):
    pass


def flow_search(
    nq: int,
    eu: Sequence[int],
    ev: Sequence[int],
    conflict_pairs: Sequence[Tuple[int, int]],
    mode: str,
    values: Sequence[int] = (1, 2, 3),
    deadline: Optional[float] = None,
) -> Tuple[Optional[List[int]], int, int, int]:
    """Search nowhere-zero flows with XOR conservation at every vertex.

    mode:
      "first" -- first flow with zero conflicts (prunes on any conflict)
      "min"   -- flow minimizing the number of conflicts (branch & bound)
      "count" -- count all nowhere-zero flows (conflicts ignored)

    Returns (values or None, conflict_count_of_result, nodes_expanded, flows_seen).
    For "count", flows_seen is the flow count and values is None.
    """
    if deadline is not None and time.monotonic() > deadline:
        raise SearchTimeout
    m = len(eu)
    if m == 0:
        empty: List[int] = []
        if mode == "count":
            return None, 0, 0, 1
        return empty, 0, 0, 1

    # vertex-grouped static order so conservation closes vertices early
    order: List[int] = []
    placed = [False] * m
    incid: List[List[int]] = [[] for _ in range(nq)]
    for e in range(m):
        incid[eu[e]].append(e)
        if ev[e] != eu[e]:
            incid[ev[e]].append(e)
    for v in range(nq):
        for e in incid[v]:
            if not placed[e]:
                placed[e] = True
                order.append(e)
    for e in range(m):  # isolated-safe
        if not placed[e]:
            order.append(e)

    partners: List[List[int]] = [[] for _ in range(m)]
    for a, b in conflict_pairs:
        partners[a].append(b)
        partners[b].append(a)

    rem = [0] * nq
    for e in range(m):
        if eu[e] != ev[e]:
            rem[eu[e]] += 1
            rem[ev[e]] += 1
    acc = [0] * nq
    val = [0] * m

    best_val: Optional[List[int]] = None
    best_conf = len(conflict_pairs) + 1
    nodes = 0
    flows_seen = 0
    counting = mode == "count"
    first = mode == "first"
    vals = tuple(values)

    def rec(depth: int, conf: int) -> bool:
        nonlocal nodes, flows_seen, best_val, best_conf
        if depth == m:
            flows_seen += 1
            if not counting and conf < best_conf:
                best_conf = conf
                best_val = val[:]
                return first and conf == 0
            return False
        e = order[depth]
        u, v = eu[e], ev[e]
        loop = u == v
        if loop:
            candidates = vals
        else:
            cu = rem[u] == 1
            cv = rem[v] == 1
            if cu and cv:
                candidates = (acc[u],) if acc[u] == acc[v] and acc[u] != 0 else ()
            elif cu:
                candidates = (acc[u],) if acc[u] != 0 else ()
            elif cv:
                candidates = (acc[v],) if acc[v] != 0 else ()
            else:
                candidates = vals
        for x in candidates:
            nodes += 1
            if deadline is not None and nodes % _DEADLINE_STRIDE == 0:
                if time.monotonic() > deadline:
                    raise SearchTimeout
            dconf = 0
            if not counting:
                for p in partners[e]:
                    if val[p] != 0 and (val[p] ^ x) == 3:
                        dconf += 1
                if first and dconf:
                    continue
                if conf + dconf >= best_conf:
                    continue
            val[e] = x
            if not loop:
                acc[u] ^= x
                acc[v] ^= x
                rem[u] -= 1
                rem[v] -= 1
            done = rec(depth + 1, conf + dconf)
            val[e] = 0
            if not loop:
                acc[u] ^= x
                acc[v] ^= x
                rem[u] += 1
                rem[v] += 1
            if done:
                return True
        return False

    rec(0, 0)
    if counting:
        return None, 0, nodes, flows_seen
    if best_val is None:
        return None, 0, nodes, flows_seen
    return best_val, best_conf, nodes, flows_seen


def normal_coloring_search(
    n: int,
    eu: Sequence[int],
    ev: Sequence[int],
    k: int,
    forbid_abnormal: bool = True,
    deadline: Optional[float] = None,
) -> Tuple[Optional[List[int]], int]:
    """First proper k-edge-coloring without abnormal edges, or None on exhaustion.

    Edges are colored in a fixed BFS order over the line graph.  `pal[v]`
    is the bitmask of colors on the colored edges at v, so color c is free
    for edge uv when bit c of `pal[u] | pal[v]` is clear, and a fully
    colored closed star of uv is abnormal when that union has 4 bits.  The
    order is static, so the depth at which each closed star becomes fully
    colored is known in advance; the edges whose stars complete at a depth
    are checked there and nowhere else.

    Endpoints of every edge must have degree 3 for the poor/rich pruning to
    apply; both callers in `ncflow.coloring` reject loops and non-cubic
    graphs.  Returns (colors, nodes).
    """
    if deadline is not None and time.monotonic() > deadline:
        raise SearchTimeout
    m = len(eu)
    if m == 0:
        return [], 0

    incid: List[List[int]] = [[] for _ in range(n)]
    for e in range(m):
        incid[eu[e]].append(e)
        incid[ev[e]].append(e)
    # edges sharing an endpoint with e (e excluded, parallel edges once)
    adjacent = [
        list(dict.fromkeys(f for v in (eu[e], ev[e]) for f in incid[v] if f != e))
        for e in range(m)
    ]

    # BFS order over the line graph so closed stars complete early
    order: List[int] = []
    placed = [False] * m
    head = 0
    for s in range(m):
        if placed[s]:
            continue
        placed[s] = True
        order.append(s)
        while head < len(order):
            for f in adjacent[order[head]]:
                if not placed[f]:
                    placed[f] = True
                    order.append(f)
            head += 1

    # checks[d]: endpoints of the edges whose closed star is fully colored
    # once the edge at depth d is
    checks: List[List[Tuple[int, int]]] = [[] for _ in range(m)]
    if forbid_abnormal:
        depth_of = [0] * m
        for d, e in enumerate(order):
            depth_of[e] = d
        for e in range(m):
            done = max(depth_of[f] for f in adjacent[e] + [e])
            checks[done].append((eu[e], ev[e]))
    steps = [(e, eu[e], ev[e], tuple(checks[d])) for d, e in enumerate(order)]

    # choices[top]: (color, bit) pairs open to an edge when colors 1..top
    # are in use; a new color enters only as top + 1 (canonical order)
    choices = [
        tuple((c, 1 << c) for c in range(1, min(k, top + 1) + 1))
        for top in range(max(k, 0) + 1)
    ]
    pal = [0] * n
    color = [0] * m
    nodes = 0

    def rec(depth: int, maxused: int) -> bool:
        nonlocal nodes
        if depth == m:
            return True
        e, u, v, star_checks = steps[depth]
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
                if rec(depth + 1, c if c > maxused else maxused):
                    color[e] = c
                    return True
            pal[u] ^= bit
            pal[v] ^= bit
        return False

    if rec(0, 0):
        return color, nodes
    return None, nodes
