"""Deterministic corpus runner.

Workers share nothing but their input line; the report is an ordered
reduce over row index, so any parallelism degree yields byte-identical
canonical JSON (timings are reported but excluded from the canonical
form).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .coloring import chi_n_exact
from .errors import NcflowError, ResourceLimitError
from .flows import matching_verdicts, nonconflicting_for_every_two_factor
from .formats import parse_any
from .graph import bridges, is_claw_free, is_cubic
from .kernels import SearchTimeout

MODES = ("nonconflicting", "chi-n", "every-2-factor")

DEFAULT_TIMEOUT_SECS = 300.0


def graph_timeout() -> float:
    return float(os.environ.get("NZFLOW_TIMEOUT_SECS", DEFAULT_TIMEOUT_SECS))


@dataclass
class BatchRow:
    index: int
    line: str
    error: Optional[str] = None
    order: Optional[int] = None
    size: Optional[int] = None
    cubic: Optional[bool] = None
    bridgeless: Optional[bool] = None
    claw_free: Optional[bool] = None
    verdict: Optional[str] = None
    detail: Dict[str, Any] = field(default_factory=dict)
    finding: bool = False
    seconds: float = 0.0
    # stopped at the resource guard (a timeout or a resource limit); the
    # CLI's exit code reads it, the report does not
    resource_guard: bool = False


@dataclass
class BatchReport:
    mode: str
    rows: List[BatchRow]

    @property
    def summary(self) -> Dict[str, int]:
        out: Dict[str, int] = {"total": len(self.rows), "errors": 0, "findings": 0}
        for row in self.rows:
            if row.error:
                out["errors"] += 1
            if row.finding:
                out["findings"] += 1
            if row.verdict:
                key = f"verdict:{row.verdict}"
                out[key] = out.get(key, 0) + 1
        return out

    def to_json(self, canonical: bool = False) -> str:
        rows = []
        for r in self.rows:
            d: Dict[str, Any] = {
                "index": r.index,
                "line": r.line,
                "error": r.error,
                "order": r.order,
                "size": r.size,
                "cubic": r.cubic,
                "bridgeless": r.bridgeless,
                "claw_free": r.claw_free,
                "verdict": r.verdict,
                "detail": r.detail,
                "finding": r.finding,
            }
            if not canonical:
                d["seconds"] = round(r.seconds, 3)
            rows.append(d)
        doc = {"mode": self.mode, "summary": self.summary, "rows": rows}
        return json.dumps(doc, indent=2, sort_keys=True)


def _run_one(args: Tuple[int, str, str, float]) -> BatchRow:
    index, line, mode, timeout_secs = args
    row = BatchRow(index=index, line=line)
    start = time.monotonic()
    deadline = start + timeout_secs
    try:
        g = parse_any(line)
        row.order, row.size = g.n, g.m
        row.cubic = is_cubic(g)
        row.bridgeless = not bridges(g)
        row.claw_free = is_claw_free(g)
        if not row.cubic:
            row.verdict = "skipped-not-cubic"
            return row
        if mode == "nonconflicting":
            found = False
            checked = 0
            for _f, theta in matching_verdicts(g, deadline=deadline):
                checked += 1
                if theta is not None:
                    found = True
                    break
            row.verdict = "yes" if found else "no"
            row.detail["matchings_checked"] = checked
            # a bridgeless graph with no flow for any matching is the hunted object
            row.finding = row.bridgeless and not found and checked > 0
        elif mode == "chi-n":
            res = chi_n_exact(g, 7, deadline=deadline)
            row.verdict = str(res.k) if res else ">7"
            if res:
                row.detail["witness"] = list(res.witness.colors)
                row.detail["settled_by"] = [[k, lemma] for k, lemma in res.settled_by]
        elif mode == "every-2-factor":
            rep = nonconflicting_for_every_two_factor(g, deadline=deadline)
            row.verdict = "yes" if rep.all_nonconflicting else "no"
            row.detail["matchings"] = len(rep.verdicts)
        else:
            row.error = f"unknown mode {mode!r}"
    except SearchTimeout:
        row.error = "timeout"
        row.resource_guard = True
    except ResourceLimitError as exc:
        row.error = f"resource-limit: {exc}"
        row.resource_guard = True
    except NcflowError as exc:
        row.error = str(exc)
    finally:
        row.seconds = time.monotonic() - start
    return row


def run_batch(
    lines: List[str],
    mode: str,
    jobs: int = 1,
    timeout_secs: Optional[float] = None,
) -> BatchReport:
    if mode not in MODES:
        raise NcflowError(f"unknown batch mode {mode!r}; choose from {MODES}")
    if timeout_secs is None:
        timeout_secs = graph_timeout()
    tasks = [
        (i, line.strip(), mode, timeout_secs)
        for i, line in enumerate(lines)
        if line.strip()
    ]
    if jobs <= 1:
        rows = [_run_one(t) for t in tasks]
    else:
        with multiprocessing.Pool(jobs) as pool:
            rows = pool.map(_run_one, tasks)
    rows.sort(key=lambda r: r.index)
    return BatchReport(mode=mode, rows=rows)
