"""The four workloads: inputs made from a seed, one item, and its check.

An item is one result a user would ask for.  `build` makes the inputs
(this is the timed set-up); `item` is the only code inside an item's
timer; `check` and `finish` verify outputs with `checks`, which shares no
code with ncflow.  Modules are reached as attributes of `nc` at call time,
so the tracer's rebinding is seen.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from checks import (
    CheckFailed,
    check_flow,
    check_matching_count,
    check_none_iff_petersen,
    check_normal_coloring,
)


@dataclass
class Input:
    label: str
    graph: Any
    extra: Any = None  # per-workload: a 2-factor, or matchings to skip


def _plain(g) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    return g.n, g.edges


class Workload:
    name = ""
    # spans that a traced pass must reach, so a rename cannot zero a metric
    reached: Tuple[str, ...] = ()

    def build(self, nc, seed: int) -> List[Input]:
        raise NotImplementedError

    def start_pass(self, nc, inputs: List[Input]) -> None:
        """Called before each pass; items of a pass run in list order."""

    def item(self, nc, inp: Input) -> Any:
        raise NotImplementedError

    def key(self, out: Any) -> Any:
        """Plain-data form of an output; equal keys need no second check."""
        raise NotImplementedError

    def check(self, inp: Input, out: Any) -> None:
        raise NotImplementedError

    def finish(self, nc, inputs: List[Input], keys: Dict[int, Any], reject: Callable[[int, str], None]) -> str:
        """Checks over the whole run, after timing; returns a summary line.

        `keys` maps each input whose output passed `check` to that output's
        key; a later check that fails on input i calls `reject(i, message)`.
        """
        return ""


# ---------------------------------------------------------------------------


class TwoCycleSweep(Workload):
    """Permutation graphs with their canonical 2-factor (two n-cycles).

    All sigma for n = 3..7, 300 seeded sigma each for n = 8 and 9, and the
    ten chorded triangle-plus-9-cycle layouts.
    """

    name = "two-cycle-sweep"
    reached = (
        "flows.two_cycle_factor_flow",
        "graph.contract_two_factor",
        "graph.is_isomorphic_to_petersen",
        "matchings.complement_two_factor",
        "matchings.enumerate_perfect_matchings",
        "coloring.coloring_from_flow",
        "coloring.is_normal",
        "coloring.is_proper",
    )
    SAMPLE = 300

    # chord layouts (9-cycle positions) reaching every case-2b sub-branch
    CHORDS = (
        ((1, 5), (2, 7), (4, 8)),
        ((1, 4), (2, 7), (5, 8)),
        ((1, 8), (2, 5), (4, 7)),
        ((1, 5), (2, 8), (4, 7)),
        ((1, 7), (2, 5), (4, 8)),
        ((1, 4), (2, 8), (5, 7)),
        ((1, 7), (2, 4), (5, 8)),
        ((1, 8), (2, 4), (5, 7)),
        ((1, 8), (2, 7), (4, 5)),
        ((1, 2), (4, 5), (7, 8)),
    )

    def build(self, nc, seed):
        rng = random.Random(seed)
        gen, mt = nc.generators, nc.matchings
        sigmas: List[Tuple[int, ...]] = []
        for n in range(3, 8):
            sigmas += itertools.permutations(range(n))
        for n in (8, 9):
            seen = set()
            while len(seen) < self.SAMPLE:
                s = list(range(n))
                rng.shuffle(s)
                seen.add(tuple(s))
            sigmas += sorted(seen)
        out = []
        for s in sigmas:
            n = len(s)
            g = gen.permutation_graph(s)
            f = mt.PerfectMatching(tuple(range(2 * n, 3 * n)))
            out.append(Input(f"perm{s}", g, mt.complement_two_factor(g, f)))
        for chords in self.CHORDS:
            # triangle 0,1,2; 9-cycle 3..11; cross edges 0-3, 1-6, 2-9 (ids 12..14)
            edges = [(0, 1), (1, 2), (0, 2)]
            edges += [(3 + i, 3 + (i + 1) % 9) for i in range(9)]
            edges += [(0, 3), (1, 6), (2, 9)]
            edges += [(3 + a, 3 + b) for a, b in chords]
            g = nc.graph.build_graph(12, edges)
            f = mt.PerfectMatching((12, 13, 14, 15, 16, 17))
            out.append(Input(f"chorded{chords}", g, mt.complement_two_factor(g, f)))
        rng.shuffle(out)
        return out

    def item(self, nc, inp):
        res = nc.flows.two_cycle_factor_flow(inp.graph, inp.extra)
        if res is None:
            return None
        col = nc.coloring.coloring_from_flow(inp.graph, res.matching, res.two_factor, res.flow)
        return res, col

    def key(self, out):
        if out is None:
            return None
        res, col = out
        return res.matching.edge_ids, res.flow.values, col.coloring.colors, res.branch

    def check(self, inp, out):
        key = self.key(out)
        if key is None:
            return
        n, edges = _plain(inp.graph)
        f_ids, values, colors, _branch = key
        check_flow(n, edges, f_ids, values)
        check_normal_coloring(n, edges, colors, 6)

    def finish(self, nc, inputs, keys, reject):
        branches: Dict[str, int] = {}
        for i, key in keys.items():
            try:
                check_none_iff_petersen(*_plain(inputs[i].graph), key is None)
            except CheckFailed as exc:
                reject(i, str(exc))
                continue
            branch = "None (Petersen)" if key is None else key[3]
            branches[branch] = branches.get(branch, 0) + 1
        return "branches: " + ", ".join(f"{b} {c}" for b, c in sorted(branches.items()))


class ClawFreeSweep(Workload):
    """Claw-free bridgeless cubic graphs: the acceptance-7 set without its
    two 36-vertex graphs, plus 80 seeded small rings with a spliced chain.

    The two 36-vertex graphs (triangle-replaced 6-prism and reversed
    6-permutation graph) take 1.6 to 2.9 s each, 40% of a pass; with them a
    20-second run makes only two passes, and single 100-ms items move by
    30% between passes on a shared 2-CPU host.
    """

    name = "claw-free-sweep"
    reached = (
        "graph.three_edge_cuts",
        "matchings.matchings_meeting_all_3cuts_once",
        "matchings.matchings_through_edge",
        "matchings.complement_two_factor",
        "graph.contract_two_factor",
        "flows.min_conflict_flow",
        "kernels.flow_search",
        "coloring.coloring_from_flow",
        "coloring.is_normal",
    )
    # seeded extras per (diamonds in the ring, spliced chain); the 40 of the
    # middle kind hold the median item, so it does not hop between kinds
    EXTRAS = {(2, "2"): 10, (2, "D"): 10, (3, "2"): 40, (3, "D"): 20}

    def build(self, nc, seed):
        gen = nc.generators
        rng = random.Random(seed)

        def prism(n):
            return gen.permutation_graph(tuple(range(n)))

        graphs = [(f"ring{k}", gen.ring_of_diamonds(k)) for k in range(2, 8)]
        bases = (
            ("k4", gen.k4()), ("k33", gen.k33()),
            ("prism3", prism(3)), ("prism4", prism(4)), ("prism5", prism(5)),
            ("moebius4", gen.permutation_graph((1, 2, 3, 0))),
            ("perm5", gen.permutation_graph((0, 2, 4, 1, 3))),
            ("petersen", gen.petersen()),
        )
        graphs += [(f"tri-{nm}", gen.triangle_replace_all(b)) for nm, b in bases]
        for k in (2, 3, 4):
            ring = gen.ring_of_diamonds(k)
            for spec in ("D", "2", "D2"):
                graphs.append((f"ring{k}-{spec}", gen.replace_edge_with_string(ring, ring.m - 1, spec)))
        # each extra is cheaper than the acceptance graphs around the 90th
        # percentile; the seed picks the spliced edge
        for (k, spec), count in self.EXTRAS.items():
            ring = gen.ring_of_diamonds(k)
            for _ in range(count):
                eid = rng.randrange(ring.m)
                graphs.append((f"ring{k}-e{eid}-{spec}", gen.replace_edge_with_string(ring, eid, spec)))
        out = [Input(label, g) for label, g in graphs]
        rng.shuffle(out)
        return out

    def item(self, nc, inp):
        g = inp.graph
        cuts = nc.graph.three_edge_cuts(g)
        served = []
        for eid in range(g.m):
            for f in nc.matchings.matchings_meeting_all_3cuts_once(g, eid, cuts):
                mc = nc.flows.min_conflict_flow(g, f)
                if mc is not None and mc.conflict_count == 0:
                    tf = nc.matchings.complement_two_factor(g, f)
                    col = nc.coloring.coloring_from_flow(g, f, tf, mc.flow)
                    served.append((eid, f, mc.flow, col))
                    break
            else:
                served.append((eid, None, None, None))
        return served

    def key(self, out):
        return tuple(
            (eid, None) if f is None else (eid, f.edge_ids, flow.values, col.coloring.colors)
            for eid, f, flow, col in out
        )

    def check(self, inp, out):
        n, edges = _plain(inp.graph)
        key = self.key(out)
        if [k[0] for k in key] != list(range(len(edges))):
            raise CheckFailed("not every edge was served")
        for eid, *rest in key:
            if rest == [None]:
                raise CheckFailed(f"no conflict-free matching through edge {eid}")
            f_ids, values, colors = rest
            if eid not in f_ids:
                raise CheckFailed(f"matching for edge {eid} does not contain it")
            check_flow(n, edges, f_ids, values)
            check_normal_coloring(n, edges, colors, 6)


class NegativeFamily(Workload):
    """Perfect matchings of counterexample_family(2), one seeded pick in
    each block of four consecutive matchings of the enumeration stream."""

    name = "negative-family"
    reached = (
        "matchings.enumerate_perfect_matchings",
        "matchings.complement_two_factor",
        "graph.contract_two_factor",
        "flows.find_nonconflicting_flow",
        "kernels.flow_search",
    )
    ELL = 2
    BLOCK = 4
    BLOCKS = 1280  # the family with ell = 2 has 5,120 perfect matchings

    def build(self, nc, seed):
        rng = random.Random(seed)
        g = nc.generators.counterexample_family(self.ELL)
        out, prev = [], -1
        for b in range(self.BLOCKS):
            pos = b * self.BLOCK + rng.randrange(self.BLOCK)
            out.append(Input(f"matching#{pos}", g, pos - prev - 1))
            prev = pos
        return out

    def start_pass(self, nc, inputs):
        self._stream = nc.matchings.enumerate_perfect_matchings(inputs[0].graph)

    def item(self, nc, inp):
        for _ in range(inp.extra):
            next(self._stream)
        f = next(self._stream)
        return f, nc.flows.find_nonconflicting_flow(inp.graph, f)

    def key(self, out):
        f, theta = out
        return f.edge_ids, None if theta is None else theta.values

    def check(self, inp, out):
        f_ids, values = self.key(out)
        if values is not None:
            raise CheckFailed("a flow was found in the negative family")
        n, edges = _plain(inp.graph)
        covered = sorted(v for e in f_ids for v in edges[e])
        if covered != list(range(n)):
            raise CheckFailed("not a perfect matching")

    def finish(self, nc, inputs, keys, reject):
        g = inputs[0].graph
        stream = sum(1 for _ in nc.matchings.enumerate_perfect_matchings(g))
        check_matching_count(*_plain(g), stream)
        return f"{stream} perfect matchings, {len(inputs)} searched, all negative"


class ChiNSnarks(Workload):
    """chi_n_exact(g, 7) on Petersen with vertex subsets replaced by
    triangles, plus k23_with_p10v, counterexample_family(1) and fig3.

    The subsets are every one of size <= 2 and every 3-subset holding
    vertex 0 or 1.  The corpus is fixed and the seed sets only its order:
    over all 120 3-subsets chi_n_exact takes from 9 ms to 1 s, so a seeded
    sample of them moved a run's throughput by a quarter between seeds.
    """

    name = "chi-n-snarks"
    reached = ("coloring.chi_n_exact", "kernels.normal_coloring_search", "coloring.is_normal")
    K_MAX = 7

    def build(self, nc, seed):
        gen = nc.generators
        p = gen.petersen()
        subsets = [s for k in (0, 1, 2, 3) for s in itertools.combinations(range(10), k)]
        out = []
        for sub in subsets:
            if len(sub) == 3 and sub[0] > 1:
                continue
            g = p
            for v in sub:
                g = gen.replace_vertex_with_triangle(g, v)
            out.append(Input(f"petersen-tri{sub}", g))
        out.append(Input("k23_with_p10v", gen.k23_with_p10v()))
        out.append(Input("counterexample_family(1)", gen.counterexample_family(1)))
        out.append(Input("fig3", gen.fig3_graph()))
        random.Random(seed).shuffle(out)
        return out

    def item(self, nc, inp):
        return nc.coloring.chi_n_exact(inp.graph, self.K_MAX)

    def key(self, out):
        return None if out is None else (out.k, out.witness.k, out.witness.colors)

    def check(self, inp, out):
        key = self.key(out)
        if key is None:
            raise CheckFailed(f"no normal coloring with at most {self.K_MAX} colors")
        k, wk, colors = key
        if wk != k:
            raise CheckFailed(f"witness has {wk} colors, result says {k}")
        # none of these graphs is 3-edge-colorable, and a normal 4-coloring
        # has no rich edge, so it would be a 3-edge-coloring
        if k < 5:
            raise CheckFailed(f"chi_N = {k} < 5")
        if inp.label == "fig3" and k != 7:
            raise CheckFailed(f"chi_N = {k}, published 7")
        check_normal_coloring(*_plain(inp.graph), colors, k)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (TwoCycleSweep(), ClawFreeSweep(), NegativeFamily(), ChiNSnarks())
}
