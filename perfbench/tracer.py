"""Span tracing of ncflow's layers, installed from outside the package.

Each traced function is replaced at every binding in the loaded `ncflow`
modules that holds it, because `flows` and `coloring` import kernel and
matching functions by name.  A span covers one call; for a generator it
covers one resume (one `next`), so a lazily consumed matching stream is
charged to the generator and not to its consumer.  Self time is a span's
duration minus the time of the spans it encloses, kept on a span stack.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

# (layer module, function): the module whose binding is the public name
SPANNED: Tuple[Tuple[str, str], ...] = (
    ("graph", "contract_two_factor"),
    ("graph", "three_edge_cuts"),
    ("graph", "is_isomorphic_to_petersen"),
    ("matchings", "enumerate_perfect_matchings"),
    ("matchings", "matchings_through_edge"),
    ("matchings", "matchings_meeting_all_3cuts_once"),
    ("matchings", "complement_two_factor"),
    ("flows", "two_cycle_factor_flow"),
    ("flows", "find_nonconflicting_flow"),
    ("flows", "min_conflict_flow"),
    ("kernels", "flow_search"),
    ("kernels", "normal_coloring_search"),
    ("coloring", "coloring_from_flow"),
    ("coloring", "is_normal"),
    ("coloring", "chi_n_exact"),
)

# called per edge inside is_normal: counted only, their time stays with the caller
COUNTED: Tuple[Tuple[str, str], ...] = (
    ("coloring", "is_proper"),
    ("coloring", "classify_edge"),
)

LAYERS = ("graph", "matchings", "flows", "kernels", "coloring")

# position of the expanded-node count in each kernel's return tuple
_NODES_AT = {"kernels.flow_search": 2, "kernels.normal_coloring_search": 1}


class TraceError(Exception):
    """A traced function is missing, unreached, or counted differently per pass."""


class Tracer:
    def __init__(self, modules: Dict[str, object]):
        self._modules = modules  # layer name -> imported ncflow module
        self.calls: Counter = Counter()
        self.yielded: Counter = Counter()
        self.nodes: Counter = Counter()
        self.first_pass_counts: Tuple[Counter, Counter, Counter] = (Counter(), Counter(), Counter())
        self.passes = 0
        # seconds summed over the finished passes, each pass rescaled to the
        # nominal host speed; the raw figures of the open pass are below
        self.self_s: Dict[str, float] = defaultdict(float)
        self.wall = 0.0
        self.unattributed = 0.0
        self._self_raw: Dict[str, float] = defaultdict(float)
        self.wall_raw = 0.0  # summed item time of the open pass
        self.unattributed_raw = 0.0  # part of it that no span covers
        self._stack: List[List[float]] = []
        self._patched: List[Tuple[dict, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for layer, fname in SPANNED + COUNTED:
            mod = self._modules[layer]
            orig = getattr(mod, fname, None)
            if orig is None:
                raise TraceError(f"{layer}.{fname} no longer exists")
            name = f"{layer}.{fname}"
            if (layer, fname) in COUNTED:
                wrapper = self._counted(name, orig)
            elif inspect.isgeneratorfunction(orig):
                wrapper = self._spanned_generator(name, orig)
            else:
                wrapper = self._spanned(name, orig)
            self._rebind(orig, wrapper)

    def remove(self) -> None:
        """Restore every binding that install() replaced."""
        for namespace, key, orig in reversed(self._patched):
            namespace[key] = orig
        self._patched.clear()

    def _rebind(self, orig: object, wrapper: Callable) -> None:
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ncflow" or modname.startswith("ncflow.")):
                continue
            namespace = vars(mod)
            for key, val in list(namespace.items()):
                if val is orig:
                    self._patched.append((namespace, key, orig))
                    namespace[key] = wrapper
                    hits += 1
        if not hits:
            raise TraceError(f"no binding found for {orig!r}")

    # -- spans -----------------------------------------------------------

    def root(self) -> List[float]:
        """Open the span of one item; returns its child-time accumulator."""
        frame = [0.0]
        self._stack = [frame]
        return frame

    def _close(self, name: str, frame: List[float], t0: float) -> None:
        d = time.perf_counter() - t0
        self._stack.pop()
        self._self_raw[name] += d - frame[0]
        self._stack[-1][0] += d

    def _spanned(self, name: str, orig: Callable) -> Callable:
        nodes_at = _NODES_AT.get(name)

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                self._close(name, frame, t0)
            if nodes_at is not None:
                self.nodes[name] += out[nodes_at]
            return out

        return wrapper

    def _spanned_generator(self, name: str, orig: Callable) -> Callable:
        def resume(inner):
            while True:
                frame = [0.0]
                self._stack.append(frame)
                t0 = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(name, frame, t0)
                self.yielded[name] += 1
                yield item

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return resume(orig(*args, **kwargs))

        return wrapper

    def _counted(self, name: str, orig: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return orig(*args, **kwargs)

        return wrapper

    def end_pass(self, scale: float) -> None:
        """Close a traced pass whose host-speed scale is `scale`.

        The first pass's counts are kept; every later pass must repeat them.
        """
        for name, t in self._self_raw.items():
            self.self_s[name] += t * scale
        self.wall += self.wall_raw * scale
        self.unattributed += self.unattributed_raw * scale
        self._self_raw.clear()
        self.wall_raw = self.unattributed_raw = 0.0
        self.passes += 1
        totals = (self.calls, self.yielded, self.nodes)
        if self.passes == 1:
            self.first_pass_counts = tuple(Counter(c) for c in totals)
            return
        for first, total in zip(self.first_pass_counts, totals):
            for name, count in total.items():
                if count != first[name] * self.passes:
                    raise TraceError(f"{name}: counts differ between traced passes")
