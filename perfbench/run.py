"""End-to-end benchmark of ncflow over four fixed workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload two-cycle-sweep --seed 1 --seconds 20 --trace 0

One process, no threads: each item is sent, awaited and checked before
the next (a closed loop with one client).  A run makes whole passes over
the workload's inputs until `--seconds` of passes have gone by.
`--trace 0` reports the end-to-end metrics; `--trace 1` alternates
untraced and traced passes, as many pairs as fit in `--seconds` (at least
one), and reports per-layer metrics.  Times are
rescaled to a nominal host speed (see hostspeed.py).  The last line of
standard output is one JSON object; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from checks import CheckFailed, selftest  # noqa: E402
from hostspeed import SEGMENT_S, HostSpeed  # noqa: E402
from tracer import LAYERS, SPANNED, Tracer, TraceError  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_REPEATS = 3
MODULES = ("graph", "matchings", "flows", "kernels", "coloring", "generators")


class SourceMissing(Exception):
    pass


def import_ncflow() -> SimpleNamespace:
    """Import ncflow afresh from this checkout's src/ (never an installed copy)."""
    for name in [m for m in sys.modules if m == "ncflow" or m.startswith("ncflow.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ncflow")
    if Path(pkg.__file__).resolve().parent != SRC / "ncflow":
        raise SourceMissing(f"ncflow was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"ncflow.{m}") for m in MODULES})


class Run:
    """One workload's passes, per-input latencies and check results."""

    def __init__(self, workload: Workload, nc, inputs, host: HostSpeed):
        self.w = workload
        self.nc = nc
        self.inputs = inputs
        self.host = host
        # per input: (raw latency, index of the host sample closing its segment)
        self.samples: List[List[Tuple[float, int]]] = [[] for _ in inputs]
        self.keys: Dict[int, object] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def one_pass(self, tracer: Optional[Tracer] = None) -> Tuple[float, float]:
        """Run every input once, in order.

        Returns the pass's summed raw item time and its host-speed scale.
        """
        w, nc, host = self.w, self.nc, self.host
        w.start_pass(nc, self.inputs)
        first = host.sample()
        seg = first + 1
        since = 0.0
        total = 0.0
        clock = time.perf_counter
        for i, inp in enumerate(self.inputs):
            self.attempted += 1
            root = tracer.root() if tracer else None
            t0 = clock()
            try:
                out = w.item(nc, inp)
            except Exception as exc:  # an item that raises counts as failed
                self.failed += 1
                print(f"FAILED {w.name} {inp.label}: {exc!r}", file=sys.stderr)
                continue
            d = clock() - t0
            total += d
            self.samples[i].append((d, seg))
            if tracer:
                tracer.unattributed_raw += d - root[0]
                tracer.wall_raw += d
            self._check(i, inp, out)
            since += d
            if since >= SEGMENT_S:
                seg = host.sample() + 1
                since = 0.0
        last = host.sample()
        return total, host.scale(first, last + 1)

    def _check(self, i: int, inp, out) -> None:
        key = self.w.key(out)
        if i in self.keys and self.keys[i] == key:
            return  # same output as an earlier pass, already checked
        try:
            self.w.check(inp, out)
        except CheckFailed as exc:
            self.failed += 1
            self.wrong += 1
            print(f"WRONG {self.w.name} {inp.label}: {exc}", file=sys.stderr)
            return
        self.keys[i] = key

    def reject(self, i: int, message: str) -> None:
        """An after-run check failed on input i: every attempt of it failed."""
        self.failed += len(self.samples[i])
        self.wrong += 1
        print(f"WRONG {self.w.name} {self.inputs[i].label}: {message}", file=sys.stderr)

    def latencies(self, scaled: bool = True) -> List[float]:
        """Each input's median latency over the passes: one clean pass."""
        host = self.host
        return [
            statistics.median(d * host.scale_at(seg) if scaled else d for d, seg in s)
            for s in self.samples
            if s
        ]


def timed_setup(w: Workload, seed: int, host: HostSpeed):
    """Import ncflow and build the inputs; returns (nc, inputs, raw s, scaled s)."""
    gc.collect()
    first = len(host.samples)
    for _ in range(3):
        host.sample()
    t0 = time.perf_counter()
    nc = import_ncflow()
    inputs = w.build(nc, seed)
    raw = time.perf_counter() - t0
    for _ in range(3):
        host.sample()
    return nc, inputs, raw, raw * host.scale(first, len(host.samples))


def end_to_end(lat: List[float], setup_s: float, peak_rss_mb: float) -> Dict[str, dict]:
    q = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "items_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "item_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "item_p90_ms": {"value": q[8] * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def per_layer(
    n_items: int, tracer: Tracer, untraced_s: float, untraced_passes: int, host: HostSpeed
) -> Dict[str, dict]:
    passes = tracer.passes
    calls, yielded, nodes = tracer.first_pass_counts
    self_s = {k: v / passes for k, v in tracer.self_s.items()}

    def s(name):
        return self_s.get(name, 0.0)

    out: Dict[str, dict] = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in ("graph.contract_two_factor", "matchings.complement_two_factor", "kernels.flow_search"):
        put(f"{name}.calls", calls[name], "count")
    for layer, fname in SPANNED:
        if layer != "matchings" or fname == "complement_two_factor":
            put(f"{layer}.{fname}.self_s", s(f"{layer}.{fname}"), "s")
    put(
        "flows.rebuilds_per_item",
        (calls["graph.contract_two_factor"] + calls["matchings.complement_two_factor"]) / n_items,
        "count",
    )
    is_normal = calls["coloring.is_normal"]
    put("coloring.is_proper.calls_per_is_normal", calls["coloring.is_proper"] / is_normal if is_normal else 0.0, "count")
    gens = ("matchings.enumerate_perfect_matchings", "matchings.matchings_through_edge")
    put("matchings.enumerate.self_s", sum(s(g) for g in gens), "s")
    put("matchings.enumerate.yielded", sum(yielded[g] for g in gens), "count")
    through = yielded["matchings.matchings_through_edge"]
    kept = yielded["matchings.matchings_meeting_all_3cuts_once"]
    put("matchings.cut_filter.kept_ratio", kept / through if through else 0.0, "ratio")
    put("matchings.cut_filter.self_s", s("matchings.matchings_meeting_all_3cuts_once"), "s")
    for kname in ("kernels.flow_search", "kernels.normal_coloring_search"):
        put(f"{kname}.nodes", nodes[kname], "count")
        put(f"{kname}.nodes_per_s", nodes[kname] / s(kname) if s(kname) else 0.0, "1/s")
    layer_total = 0.0
    for layer in LAYERS:
        t = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        layer_total += t
        put(f"{layer}.self_s", t, "s")
    wall = tracer.wall / passes
    unattributed = tracer.unattributed / passes
    if abs(layer_total + unattributed - wall) > 1e-6 * max(wall, 1.0):
        raise TraceError(f"layer self times {layer_total} + unattributed {unattributed} != wall {wall}")
    put("trace.wall_s", wall, "s")
    put("trace.unattributed_s", unattributed, "s")
    traced_ips = n_items / wall
    untraced_ips = n_items * untraced_passes / untraced_s
    put("trace.items_per_s_traced", traced_ips, "1/s")
    put("trace.items_per_s_untraced", untraced_ips, "1/s")
    put("trace.overhead_pct", (untraced_ips / traced_ips - 1.0) * 100.0, "%")
    put("host.reference_ms", statistics.median(host.samples) * 1e3, "ms")
    return out


def write_dump(args, run: Run, tracer: Optional[Tracer], metrics: Dict[str, dict]) -> Path:
    """Raw per-input latencies, host samples and the per-function trace table."""
    host = run.host
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": run.nc.kernels.BACKEND,
        "metrics": metrics,
        "host_reference_s": host.samples,
        "inputs": [
            {"label": inp.label, "raw_s": [d for d, _ in s], "scale": [host.scale_at(g) for _, g in s]}
            for inp, s in zip(run.inputs, run.samples)
        ],
    }
    if tracer is not None:
        doc["functions"] = {
            name: {
                "calls_per_pass": tracer.first_pass_counts[0][name],
                "yielded_per_pass": tracer.first_pass_counts[1][name],
                "nodes_per_pass": tracer.first_pass_counts[2][name],
                "self_s_per_pass": tracer.self_s.get(name, 0.0) / tracer.passes,
            }
            for name in sorted(tracer.calls)
        }
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ncflow" / "__init__.py").is_file():
        print(f"error: no ncflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    rejected = selftest()
    print(f"checker self-test: {rejected} corrupted outputs rejected", file=sys.stderr)

    w = WORKLOADS[args.workload]
    host = HostSpeed()
    setups: List[Tuple[float, float]] = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        nc = inputs = None  # drop the previous inputs before timing the next set-up
        nc, inputs, raw, scaled = timed_setup(w, args.seed, host)
        setups.append((raw, scaled))
    print(f"workload {w.name}: {len(inputs)} inputs, kernels.BACKEND = {nc.kernels.BACKEND}")
    gc.collect()
    gc.freeze()  # the inputs are long-lived; keep them out of collections

    run = Run(w, nc, inputs, host)
    tracer: Optional[Tracer] = None
    pass_times: List[float] = []
    start = time.perf_counter()
    if not args.trace:
        while True:
            raw, _scale = run.one_pass()
            pass_times.append(raw)
            if time.perf_counter() - start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        tracer = Tracer({m: getattr(nc, m) for m in LAYERS})
        untraced_s = 0.0
        untraced_passes = 0
        while True:
            pair_start = time.perf_counter()
            raw, scale = run.one_pass()
            pass_times.append(raw)
            untraced_s += raw * scale
            untraced_passes += 1
            tracer.install()
            try:
                raw, scale = run.one_pass(tracer)
            finally:
                tracer.remove()
            pass_times.append(raw)
            tracer.end_pass(scale)
            now = time.perf_counter()
            if now + (now - pair_start) - start > args.seconds:
                break  # the next pair would end after --seconds
        missing = [name for name in w.reached if not tracer.calls[name]]
        if missing:
            raise TraceError(f"{w.name}: traced functions never reached: {', '.join(missing)}")

    try:
        summary = w.finish(nc, inputs, run.keys, run.reject)
        if summary:
            print(summary)
    except CheckFailed as exc:  # a check over the whole run, not one input
        run.wrong += 1
        print(f"WRONG {w.name}: {exc}", file=sys.stderr)

    print(f"{len(pass_times)} passes, {run.attempted} items attempted, {run.failed} failed")
    print("pass item-time sums (raw): " + " ".join(f"{t:.3f}" for t in pass_times) + " s")
    print(f"host reference: median {statistics.median(host.samples) * 1e3:.3f} ms over {len(host.samples)} samples")
    if args.trace:
        metrics = per_layer(len(inputs), tracer, untraced_s, untraced_passes, host)
    else:
        metrics = end_to_end(run.latencies(), statistics.median(s for _, s in setups), peak_rss_mb)
        raw_metrics = end_to_end(run.latencies(scaled=False), statistics.median(r for r, _ in setups), peak_rss_mb)
        print("raw, not rescaled: " + ", ".join(f"{k} {m['value']:.6g}" for k, m in raw_metrics.items()))
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    dump = write_dump(args, run, tracer, metrics)
    print(f"raw samples{' and trace' if args.trace else ''}: {dump.relative_to(HERE.parent)}")
    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (SourceMissing, TraceError, CheckFailed, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
