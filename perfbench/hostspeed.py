"""Host-speed reference: a fixed computation timed between items.

On a shared host the same pure-Python pass takes 2.9 s in one run and
4.6 s in another, with CPU time equal to wall time, so the drift is the
host's speed and not scheduling.  The benchmark times this reference every
`SEGMENT_S` of item time and rescales the items of each segment to a host
on which one reference call takes `NOMINAL_S`.  Raw figures are printed too.

The reference is part of the unit of every reported time.  It uses no
ncflow code, and changing it (or `NOMINAL_S`) changes every time the
benchmark reports, so it must stay as it is.
"""

from __future__ import annotations

import statistics
import time
from typing import List

NOMINAL_S = 0.002  # about one reference() call on the 2-CPU host the bounds were set on
SEGMENT_S = 0.05  # item time between two reference samples
WINDOW = 10  # a segment's speed is the median of 2 * WINDOW + 1 samples around it

# 14-vertex cubic graph: two 7-cycles joined by i -- 7 + sigma(i)
_SIGMA = (0, 2, 4, 1, 3, 5, 6)
_EDGES = (
    [(i, (i + 1) % 7) for i in range(7)]
    + [(7 + i, 7 + (i + 1) % 7) for i in range(7)]
    + [(i, 7 + s) for i, s in enumerate(_SIGMA)]
)


def _matchings(adj: List[List[int]], covered: List[bool]) -> int:
    v = covered.index(False) if False in covered else -1
    if v < 0:
        return 1
    total = 0
    covered[v] = True
    for w in adj[v]:
        if not covered[w]:
            covered[w] = True
            total += _matchings(adj, covered)
            covered[w] = False
    covered[v] = False
    return total


def reference() -> int:
    """Count the perfect matchings of the fixed graph a few times over."""
    total = 0
    for _ in range(24):
        adj: List[List[int]] = [[] for _ in range(14)]
        for u, v in _EDGES:
            adj[u].append(v)
            adj[v].append(u)
        total += _matchings(adj, [False] * 14)
    return total


class HostSpeed:
    """Reference samples taken during a run, and the scale they imply."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> int:
        """Time one reference call; returns the sample's index."""
        t0 = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - t0)
        return len(self.samples) - 1

    def scale(self, lo: int, hi: int) -> float:
        """Nominal over measured reference time, on samples lo..hi-1."""
        return NOMINAL_S / statistics.median(self.samples[max(lo, 0):hi])

    def scale_at(self, index: int) -> float:
        """Scale for the segment closed by sample `index`."""
        return self.scale(index - WINDOW, index + WINDOW + 1)
