"""Command-line interface.

Exit codes: 0 = claim verified / object found; 1 = definite negative
(search completed by exhaustion); 2 = input error; 3 = resource guard
tripped (timeout or size limit).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from . import __version__
from .batch import MODES, graph_timeout, run_batch
from .certificates import Certificate, fingerprint, flow_certificate
from .coloring import EdgeColoring, chi_n_exact, classify_edge, h_coloring, is_normal
from .errors import InputError, NcflowError, ResourceLimitError
from .flows import (
    _three_colorable_route,
    extract_disjoint_matchings,
    find_nonconflicting_flow,
    klein_bits,
    matching_verdicts,
    min_conflict_flow,
    two_cycle_factor_flow,
)
from .formats import encode_graph6, encode_sparse6, parse_any
from .generators import (
    counterexample_family,
    diamond,
    expand_vertices_to_5cycles,
    fig3_graph,
    fig4_graph,
    k4,
    k6,
    k23,
    k23_with_p10v,
    k33,
    permutation_graph,
    petersen,
    petersen_minus_edge,
    petersen_minus_vertex,
    ring_of_diamonds,
    string_gadget,
)
from .graph import Pseudograph, is_cubic, three_edge_cuts
from .kernels import SearchTimeout
from .matchings import (
    PerfectMatching,
    complement_two_factor,
    enumerate_perfect_matchings,
    matchings_meeting_all_3cuts_once,
    select_matchings,
)

EXIT_FOUND = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

_NAMED = {
    "petersen": petersen,
    "petersen-minus-edge": petersen_minus_edge,
    "petersen-minus-vertex": petersen_minus_vertex,
    "k4": k4,
    "k6": k6,
    "k23": k23,
    "k33": k33,
    "fig3": fig3_graph,
    "fig4": fig4_graph,
    "diamond": diamond,
    "k23-p10v": k23_with_p10v,
}


def _resolve_graph(arg: str) -> Pseudograph:
    if arg == "-":
        for line in sys.stdin:
            if line.strip():
                return parse_any(line)
        raise InputError("no graph on stdin")
    if arg in _NAMED:
        return _NAMED[arg]()
    # a literal may be longer than a file name can be, so it is never opened
    if not os.path.exists(arg):
        return parse_any(arg)
    try:
        with open(arg) as fh:
            for line in fh:
                if line.strip():
                    return parse_any(line)
    except OSError as exc:
        raise InputError(f"cannot read {arg}: {exc.strerror}") from exc
    raise InputError(f"no graph line in {arg}")


def _emit(g: Pseudograph, fmt: Optional[str]) -> str:
    if fmt == "graph6":
        return encode_graph6(g)
    if fmt == "sparse6":
        return encode_sparse6(g)
    return encode_graph6(g) if g.is_simple() else encode_sparse6(g)


def _deadline() -> float:
    return time.monotonic() + graph_timeout()


def _cmd_gen(args) -> int:
    fam = args.family
    if fam in _NAMED:
        g = _NAMED[fam]()
    elif fam == "counterexample":
        g = counterexample_family(args.l)
    elif fam == "ring":
        g = ring_of_diamonds(args.k)
    elif fam == "string":
        g = string_gadget(args.spec).graph
    elif fam == "permutation":
        sigma = tuple(int(t) for t in args.sigma.split(","))
        g = permutation_graph(sigma)
    else:
        raise InputError(f"unknown family {fam!r}")
    print(_emit(g, args.format))
    return EXIT_FOUND


def _write_cert(cert: Certificate, path: Optional[str]):
    if path:
        with open(path, "w") as fh:
            fh.write(cert.to_json() + "\n")


def _print_flow(f, theta):
    """Quotient edge i of F-bar's contraction is the i-th edge of the matching F."""
    ids = sorted(f.edge_ids)
    print("matching:", " ".join(map(str, ids)))
    labels = [f"{ge}:{klein_bits(v)}" for ge, v in zip(ids, theta.values)]
    print("flow:", " ".join(labels))


def _report_flow(g: Pseudograph, f, theta, stats: dict, path: Optional[str]) -> int:
    _print_flow(f, theta)
    if "branch" in stats:
        print("branch:", stats["branch"])
    _write_cert(flow_certificate(g, f, theta, stats), path)
    return EXIT_FOUND


# constructive routes: (matching, flow, certificate stats) or None


def _clawfree_route(g: Pseudograph, deadline: float):
    cuts = three_edge_cuts(g)
    for f in matchings_meeting_all_3cuts_once(g, 0, cuts, deadline) if g.m else ():
        mc = min_conflict_flow(g, f, deadline=deadline)
        if mc and mc.conflict_count == 0:
            return f, mc.flow, {"nodes": mc.nodes_expanded}
    return None


def _twocycle_route(g: Pseudograph, deadline: float):
    for f in enumerate_perfect_matchings(g, deadline=deadline):
        tf = complement_two_factor(g, f)
        if len(tf.cycles) <= 2:
            res = two_cycle_factor_flow(g, tf, deadline=deadline)
            if res is not None:
                return res.matching, res.flow, {"branch": res.branch}
    return None


def _even_route(g: Pseudograph, deadline: float):
    res = _three_colorable_route(g, deadline)
    return None if res is None else (res.matching, res.flow, {})


_ROUTES = {"clawfree": _clawfree_route, "twocycle": _twocycle_route, "even": _even_route}


def _cmd_flow(args) -> int:
    if args.action != "search":
        raise InputError(f"unknown flow action {args.action!r}")
    g = _resolve_graph(args.graph)
    if not is_cubic(g):
        raise InputError("flow search expects a cubic graph")
    deadline = _deadline()

    sel = args.matching
    if args.construct is not None:
        found = _ROUTES[args.construct](g, deadline)
        if found is not None:
            return _report_flow(g, *found, args.certificate)
        # a route that finds nothing has not refuted every matching
        print(f"route {args.construct} found no flow; searching every matching", file=sys.stderr)
        sel = "all"
    checked = 0
    for f, theta in matching_verdicts(g, select_matchings(g, sel, deadline), deadline):
        checked += 1
        if theta is not None:
            return _report_flow(g, f, theta, {}, args.certificate)
    print(f"no non-conflicting flow; matchings checked: {checked}")
    if checked == 0 and sel == "all":
        print("the graph has no perfect matching", file=sys.stderr)
    _write_cert(
        Certificate(
            kind="no-flow-for-any-matching",
            graph_fingerprint=fingerprint(g),
            payload={"selector": sel},
            stats={"matchings_checked": checked},
        ),
        args.certificate,
    )
    return EXIT_NEGATIVE


def _cmd_chi_n(args) -> int:
    g = _resolve_graph(args.graph)
    res = chi_n_exact(g, args.max, deadline=_deadline())
    if res is None:
        print(f"no normal coloring with at most {args.max} colors")
        return EXIT_NEGATIVE
    print(f"chi_n = {res.k}")
    print("witness:", " ".join(map(str, res.witness.colors)))
    if res.multigraph:
        print("note: input has parallel edges; the index is defined for simple graphs")
    return EXIT_FOUND


def _cmd_normal(args) -> int:
    if args.action != "verify":
        raise InputError(f"unknown normal action {args.action!r}")
    g = _resolve_graph(args.graph)
    with open(args.coloring) as fh:
        raw = json.load(fh)
    if "payload" in raw:  # a stored certificate
        raw = raw["payload"]
    colors = raw.get("colors") or raw.get("witness")
    k = raw.get("k") or max(colors)
    c = EdgeColoring(tuple(colors), k)
    verdict = is_normal(g, c)
    if verdict.ok:
        kinds = {classify_edge(g, c, e).kind for e in range(g.m)}
        print(f"normal {k}-edge-coloring verified; edge classes: {sorted(kinds)}")
        return EXIT_FOUND
    print("abnormal edges:", " ".join(map(str, verdict.abnormal_edges)))
    return EXIT_NEGATIVE


def _cmd_hcolor(args) -> int:
    g = _resolve_graph(args.graph)
    h = _resolve_graph(args.target)
    phi = h_coloring(g, h, deadline=_deadline())
    if phi is None:
        print("no H-coloring")
        return EXIT_NEGATIVE
    print(" ".join(f"{e}->{phi[e]}" for e in sorted(phi)))
    return EXIT_FOUND


def _cmd_thomassen(args) -> int:
    h5 = _resolve_graph(args.graph)
    g, tf = expand_vertices_to_5cycles(h5)
    f = PerfectMatching(tuple(sorted(set(range(g.m)) - tf.edge_ids())))
    theta = find_nonconflicting_flow(g, f, deadline=_deadline())
    if theta is None:
        print("no non-conflicting flow on the expansion")
        return EXIT_NEGATIVE
    a, b = extract_disjoint_matchings(h5, g, tf, theta)
    print("matching-1:", " ".join(map(str, a)))
    print("matching-2:", " ".join(map(str, b)))
    return EXIT_FOUND


def _cmd_batch(args) -> int:
    if args.corpus == "-":
        lines = [ln for ln in sys.stdin]
    else:
        with open(args.corpus) as fh:
            lines = list(fh)
    report = run_batch(lines, args.mode, jobs=args.jobs)
    if args.report:
        # report files are canonical (timings stripped) so any parallelism
        # degree produces byte-identical output
        with open(args.report, "w") as fh:
            fh.write(report.to_json(canonical=True) + "\n")
    else:
        print(report.to_json())
    summary = report.summary
    print(
        f"total={summary['total']} errors={summary['errors']} "
        f"findings={summary['findings']}",
        file=sys.stderr,
    )
    # a row stopped by the resource guard outranks any other error; a
    # batch never answers a definite negative, so it never exits 1
    if any(row.resource_guard for row in report.rows):
        return EXIT_RESOURCE
    return EXIT_INPUT if summary["errors"] else EXIT_FOUND


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ncflow",
        description="Non-conflicting nowhere-zero flows and normal edge-colorings "
        "of cubic graphs.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a named graph or family member")
    gen.add_argument("family")
    gen.add_argument("--l", type=int, default=1, help="family size parameter")
    gen.add_argument("--k", type=int, default=2, help="ring/string length")
    gen.add_argument("--spec", default="D", help="string spec, e.g. D2D")
    gen.add_argument("--sigma", default="0,1,2", help="permutation as CSV")
    gen.add_argument("--format", choices=("graph6", "sparse6"))
    gen.set_defaults(func=_cmd_gen)

    flow = sub.add_parser("flow", help="flow search on a cubic graph")
    flow.add_argument("action", help="'search'")
    flow.add_argument("graph", help="file, named graph, '-', or a format literal")
    flow.add_argument("--matching", default="all", help="all | index | edge=ID")
    flow.add_argument(
        "--construct", choices=("clawfree", "twocycle", "even"), default=None
    )
    flow.add_argument("--certificate", help="write a JSON certificate here")
    flow.set_defaults(func=_cmd_flow)

    chin = sub.add_parser("chi-n", help="exact normal chromatic index")
    chin.add_argument("graph")
    chin.add_argument("--max", type=int, default=7)
    chin.set_defaults(func=_cmd_chi_n)

    norm = sub.add_parser("normal", help="verify a stored coloring")
    norm.add_argument("action", help="'verify'")
    norm.add_argument("graph")
    norm.add_argument("coloring", help="JSON file with colors (or a certificate)")
    norm.set_defaults(func=_cmd_normal)

    hc = sub.add_parser("hcolor", help="star-preserving edge map G -> H")
    hc.add_argument("graph")
    hc.add_argument("target")
    hc.set_defaults(func=_cmd_hcolor)

    th = sub.add_parser("thomassen", help="expand a 5-regular graph and extract "
                        "two edge-disjoint perfect matchings")
    th.add_argument("graph")
    th.set_defaults(func=_cmd_thomassen)

    ba = sub.add_parser("batch", help="run a corpus file")
    ba.add_argument("corpus")
    ba.add_argument("--mode", required=True, choices=MODES)
    ba.add_argument("--jobs", type=int, default=1)
    ba.add_argument("--report")
    ba.set_defaults(func=_cmd_batch)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SearchTimeout:
        print("error: search timed out (NZFLOW_TIMEOUT_SECS)", file=sys.stderr)
        return EXIT_RESOURCE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (InputError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NcflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
