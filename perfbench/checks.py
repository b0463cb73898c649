"""Output checks that share no code with ncflow.

Graphs reach these functions as plain data: a vertex count and a list of
(u, v) edge pairs, where an edge's id is its index in the list.  Flow
values use the documented 2-bit Klein encoding (alpha = 0b10, beta = 0b01,
alpha+beta = 0b11), and quotient edge i carries the i-th smallest
matching-edge id, as `ncflow.graph.contract_two_factor` documents.

Run `python3 perfbench/checks.py` to self-test the checkers: each is given
one valid and one corrupted output and must accept the first and reject
the second.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

ALPHA = 0b10
BETA = 0b01
NONZERO = (ALPHA, BETA, ALPHA ^ BETA)

Edges = Sequence[Tuple[int, int]]


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _incidence(n: int, edges: Edges) -> List[List[int]]:
    inc: List[List[int]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        if u == v:
            raise CheckFailed(f"edge {eid} is a loop")
        inc[u].append(eid)
        inc[v].append(eid)
    return inc


def _other(edges: Edges, eid: int, v: int) -> int:
    a, b = edges[eid]
    return b if a == v else a


def check_flow(n: int, edges: Edges, matching: Sequence[int], values: Sequence[int]) -> None:
    """A non-conflicting nowhere-zero Z2xZ2 flow, checked on G itself."""
    f_ids = sorted(matching)
    if len(set(f_ids)) != len(f_ids) or any(not 0 <= e < len(edges) for e in f_ids):
        raise CheckFailed("matching ids are not distinct edge ids")
    owner = [-1] * n
    for e in f_ids:
        for v in edges[e]:
            if owner[v] != -1:
                raise CheckFailed(f"vertex {v} is covered twice by the matching")
            owner[v] = e
    if -1 in owner:
        raise CheckFailed("the matching is not perfect")
    if len(values) != len(f_ids):
        raise CheckFailed("flow length differs from the matching size")
    if any(x not in NONZERO for x in values):
        raise CheckFailed("the flow takes the value zero")
    value_of = {e: values[i] for i, e in enumerate(f_ids)}
    in_f = set(f_ids)
    rest: List[List[int]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        if eid not in in_f:
            if u == v:
                raise CheckFailed("G - F has a loop")
            rest[u].append(eid)
            rest[v].append(eid)
    if any(len(r) != 2 for r in rest):
        raise CheckFailed("G - F is not 2-regular")
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        total = 0
        v, prev = start, -1
        while not seen[v]:
            seen[v] = True
            total ^= value_of[owner[v]]
            nxt = rest[v][0] if rest[v][0] != prev else rest[v][1]
            prev = nxt
            v = _other(edges, nxt, v)
        if total:
            raise CheckFailed(f"conservation fails on the cycle through vertex {start}")
    for eid, (u, v) in enumerate(edges):
        if eid not in in_f and {value_of[owner[u]], value_of[owner[v]]} == {ALPHA, BETA}:
            raise CheckFailed(f"2-factor edge {eid} is a conflict")


def check_normal_coloring(n: int, edges: Edges, colors: Sequence[int], k: int) -> None:
    """Proper, at most k colors, every closed-star palette of size 3 or 5."""
    if len(colors) != len(edges):
        raise CheckFailed("coloring length differs from the edge count")
    if any(not 1 <= c <= k for c in colors):
        raise CheckFailed(f"a color lies outside 1..{k}")
    inc = _incidence(n, edges)
    for v, es in enumerate(inc):
        if len(es) != 3:
            raise CheckFailed(f"vertex {v} does not have degree 3")
        if len({colors[e] for e in es}) != 3:
            raise CheckFailed(f"coloring is not proper at vertex {v}")
    for eid, (u, v) in enumerate(edges):
        size = len({colors[e] for e in inc[u]} | {colors[e] for e in inc[v]})
        if size not in (3, 5):
            raise CheckFailed(f"edge {eid} is abnormal (palette size {size})")


def count_perfect_matchings(n: int, edges: Edges) -> int:
    """Branch on the uncovered vertex with the fewest free edges."""
    inc = _incidence(n, edges)
    covered = [False] * n

    def free_edges(v: int) -> List[int]:
        return [e for e in inc[v] if not covered[_other(edges, e, v)]]

    def rec(left: int) -> int:
        if left == 0:
            return 1
        best, best_free = -1, None
        for v in range(n):
            if not covered[v]:
                fe = free_edges(v)
                if best_free is None or len(fe) < len(best_free):
                    best, best_free = v, fe
                    if len(fe) <= 1:
                        break
        total = 0
        for e in best_free:
            w = _other(edges, e, best)
            covered[best] = covered[w] = True
            total += rec(left - 2)
            covered[best] = covered[w] = False
        return total

    return rec(n) if n % 2 == 0 else 0


def is_petersen(n: int, edges: Edges) -> bool:
    if n != 10 or len(edges) != 15:
        return False  # vertex and edge counts differ from Petersen's
    import networkx as nx

    g = nx.MultiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return nx.is_isomorphic(g, nx.petersen_graph())


def check_none_iff_petersen(n: int, edges: Edges, returned_none: bool) -> None:
    if returned_none != is_petersen(n, edges):
        raise CheckFailed(
            "route returned None on a graph that is not Petersen"
            if returned_none
            else "route returned a flow on the Petersen graph"
        )


def check_matching_count(n: int, edges: Edges, claimed: int) -> None:
    own = count_perfect_matchings(n, edges)
    if claimed != own:
        raise CheckFailed(f"{claimed} perfect matchings reported, {own} exist")


# ---------------------------------------------------------------------------
# self-test


def _cube() -> Tuple[int, List[Tuple[int, int]]]:
    """The 4-prism: cycles 0..3 and 4..7 (ids 0..7), rungs i -- 4+i (ids 8..11)."""
    edges = [(i, (i + 1) % 4) for i in range(4)]
    edges += [(4 + i, 4 + (i + 1) % 4) for i in range(4)]
    edges += [(i, 4 + i) for i in range(4)]
    return 8, edges


def _five_prism() -> Tuple[int, List[Tuple[int, int]]]:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return 10, edges


def _petersen() -> Tuple[int, List[Tuple[int, int]]]:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return 10, edges


def _expect_reject(label: str, fn, *args) -> int:
    try:
        fn(*args)
    except CheckFailed:
        return 1
    raise AssertionError(f"self-test: the checker accepted {label}")


def selftest() -> int:
    """Accept valid outputs and reject one corrupted output per checker.

    Returns the number of corrupted outputs rejected.
    """
    rejected = 0
    n, edges = _cube()
    rungs = [8, 9, 10, 11]
    flow = [ALPHA ^ BETA] * 4  # two even cycles: the constant flow conserves
    check_flow(n, edges, rungs, flow)
    rejected += _expect_reject("a flipped flow value", check_flow, n, edges, rungs, [ALPHA] + flow[1:])
    rejected += _expect_reject("a dropped matching edge", check_flow, n, edges, rungs[1:], flow[1:])

    colors = [2, 3, 2, 3, 2, 3, 2, 3, 1, 1, 1, 1]  # a 3-edge-coloring: all poor
    check_normal_coloring(n, edges, colors, 6)
    recolored = list(colors)
    recolored[0] = colors[8]
    rejected += _expect_reject("a recolored edge", check_normal_coloring, n, edges, recolored, 6)

    check_matching_count(n, edges, 9)
    rejected += _expect_reject("a wrong matching count", check_matching_count, n, edges, 8)

    pn, pedges = _petersen()
    check_none_iff_petersen(pn, pedges, True)
    qn, qedges = _five_prism()
    check_none_iff_petersen(qn, qedges, False)
    rejected += _expect_reject("None on the 5-prism", check_none_iff_petersen, qn, qedges, True)
    return rejected


if __name__ == "__main__":
    print(f"checker self-test: {selftest()} corrupted outputs rejected")
