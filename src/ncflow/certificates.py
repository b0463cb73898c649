"""Self-validating JSON certificates for flow searches.

The two kinds are those `flow search --certificate` writes.  A
`flow-found` certificate re-verifies against the graph in polynomial
time.  A `no-flow-for-any-matching` certificate is re-verified by
re-running its search: every matching its selector names must be refuted
again, and their number must be the count it records.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from . import __version__
from .errors import InputError
from .flows import FlowAssignment, _is_nonconflicting_flow, klein_bits, klein_from_bits, matching_verdicts
from .graph import Pseudograph, contract_two_factor
from .matchings import PerfectMatching, complement_two_factor, select_matchings

SCHEMA_VERSION = 1

KINDS = ("flow-found", "no-flow-for-any-matching")


def fingerprint(g: Pseudograph) -> str:
    """Cheap canonical-labeling hash for bookkeeping (not isomorphism).

    Vertices are relabeled by iterated neighborhood-degree refinement,
    ties broken by original index; the hash covers the relabeled sorted
    edge multiset.
    """
    colors = [g.degree(v) for v in range(g.n)]
    for _ in range(g.n):
        sig = [
            (colors[v], tuple(sorted(colors[w] for w in g.neighbors(v))))
            for v in range(g.n)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [palette[s] for s in sig]
        if new == colors:
            break
        colors = new
    order = sorted(range(g.n), key=lambda v: (colors[v], v))
    relabel = {v: i for i, v in enumerate(order)}
    edges = sorted(
        (min(relabel[u], relabel[v]), max(relabel[u], relabel[v])) for u, v in g.edges
    )
    blob = json.dumps([g.n, edges], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class Certificate:
    kind: str
    graph_fingerprint: str
    payload: Dict[str, Any]
    stats: Dict[str, Any] = field(default_factory=dict)
    tool_version: str = __version__
    schema_version: int = SCHEMA_VERSION

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema_version": self.schema_version,
                "kind": self.kind,
                "graph_fingerprint": self.graph_fingerprint,
                "payload": self.payload,
                "stats": self.stats,
                "tool_version": self.tool_version,
            },
            indent=2,
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "Certificate":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"certificate is not valid JSON: {exc}") from exc
        if raw.get("kind") not in KINDS:
            raise InputError(f"unknown certificate kind {raw.get('kind')!r}")
        return Certificate(
            kind=raw["kind"],
            graph_fingerprint=raw["graph_fingerprint"],
            payload=raw.get("payload", {}),
            stats=raw.get("stats", {}),
            tool_version=raw.get("tool_version", "?"),
            schema_version=raw.get("schema_version", SCHEMA_VERSION),
        )


def flow_certificate(
    g: Pseudograph, f: PerfectMatching, theta: FlowAssignment, stats: Dict[str, Any]
) -> Certificate:
    return Certificate(
        kind="flow-found",
        graph_fingerprint=fingerprint(g),
        payload={
            "matching": list(f.edge_ids),
            "flow": [klein_bits(v) for v in theta.values],
        },
        stats=stats,
    )


def verify_certificate(cert: Certificate, g: Pseudograph, deadline: Optional[float] = None) -> bool:
    """Re-verify a certificate against a graph.

    `flow-found` re-runs the polynomial checks on its matching and flow.
    `no-flow-for-any-matching` replays its search: the matchings of its
    payload's `selector` ("all" when absent, "INDEX" or "edge=ID", as `flow
    search --matching` takes it) go through `matching_verdicts` again, and
    it verifies only when none has a flow and their number is its
    `stats.matchings_checked`.  Any other kind is refuted (False), and so
    is a payload of the wrong shape or type, never raised; the replay
    raises SearchTimeout once `deadline` has passed.
    """
    if cert.graph_fingerprint != fingerprint(g):
        return False
    try:
        if cert.kind == "flow-found":
            f = PerfectMatching(tuple(sorted(cert.payload["matching"])))
            theta = FlowAssignment(
                tuple(klein_from_bits(b) for b in cert.payload["flow"])
            )
            return _is_nonconflicting_flow(contract_two_factor(g, complement_two_factor(g, f)), theta)
        if cert.kind == "no-flow-for-any-matching":
            claimed = cert.stats["matchings_checked"]
            selector = cert.payload.get("selector", "all") if isinstance(cert.payload, dict) else None
            if not isinstance(selector, str):
                return False
            checked = 0
            for _f, theta in matching_verdicts(g, select_matchings(g, selector, deadline), deadline):
                if theta is not None:
                    return False
                checked += 1
            return checked == claimed
    except (InputError, KeyError, IndexError, TypeError, ValueError):
        return False
    return False
