"""Kernel backend selection: the compiled C kernels if built, pure Python otherwise.

The C kernels are `_kernels.c`, a plain C file with no Python C-API,
compiled to `_kernels.so` in this package (`python setup.py build_ext
--inplace`, or by hand with `cc -O2 -shared -fPIC`) and bound with
ctypes by `bind`.  When that file is absent the pure-Python twin in
`_kernels_py` is used, without importing ctypes.  Set NZFLOW_PURE_PYTHON=1
to force the fallback.  Both backends return the same results, node
counts included.
"""

from __future__ import annotations

import os
import time
from types import SimpleNamespace
from typing import Optional

from . import _kernels_py
from ._kernels_py import SearchTimeout, check_edge_args, check_search_args

LIBRARY = os.path.join(os.path.dirname(__file__), "_kernels.so")

# status codes of the C entry points
_EXHAUSTED, _FOUND, _TIMEOUT, _NOMEM, _BADINDEX, _BADARG = range(6)
_MODES = {"first": 0, "min": 1}


def _seconds_left(deadline: Optional[float]) -> float:
    """Seconds until `deadline` for the C kernels, -1 for none; raises
    SearchTimeout once it has passed, as `_kernels_py` does on entry."""
    if deadline is None:
        return -1.0
    left = deadline - time.monotonic()
    if left < 0:
        raise SearchTimeout
    return left


def _check(status: int) -> None:
    """Raise what a C kernel's failure status stands for."""
    if status == _TIMEOUT:
        raise SearchTimeout
    if status == _NOMEM:
        raise MemoryError
    if status == _BADINDEX:
        raise IndexError("vertex or edge index out of range")
    if status == _BADARG:
        raise ValueError("a loop, a self-pair or a group the C kernels do not search")


def bind(path: str) -> SimpleNamespace:
    """The C kernels of the library at `path`, with `_kernels_py`'s API.

    Returns a namespace with BACKEND = "c", `flow_search` and
    `normal_coloring_search`.  Raises OSError when the file is not a
    loadable library and AttributeError when it lacks the entry points.
    Input arrays go to C packed by `struct` into bytes, which is faster
    than filling ctypes or `array` arrays; results come back in an `array`.
    """
    import ctypes
    import struct
    from array import array

    lib = ctypes.CDLL(path)
    c_int, c_nodes = ctypes.c_int, ctypes.c_longlong
    ints_in, ints_out = ctypes.c_char_p, ctypes.c_void_p
    c_flow = lib.nc_flow_search
    c_flow.argtypes = [c_int, c_int, ints_in, ints_in, c_int, ints_in, c_int, c_int, ctypes.c_double]
    c_flow.argtypes += [ints_out, ctypes.POINTER(c_int), ctypes.POINTER(c_nodes)]
    c_flow.restype = c_int
    c_color = lib.nc_normal_coloring_search
    c_color.argtypes = [c_int, c_int, ints_in, ints_in, c_int, ints_in, ctypes.c_double, ints_out]
    c_color.argtypes += [ints_out, ctypes.POINTER(c_int)]
    c_color.restype = c_int

    def pack(seq) -> bytes:
        return struct.pack("%di" % len(seq), *seq)

    def flow_search(nq, eu, ev, first, second, mode, bits=2, deadline=None):
        """See `_kernels_py.flow_search`; same contract and return shape."""
        check_search_args(nq, eu, ev, first, second, mode, bits)
        seconds = _seconds_left(deadline)
        m, npairs = len(eu), len(first)
        pairs = pack(first) + pack(second)  # the layout nc_flow_search reads
        out, conf, nodes = array("i", [0]) * m, c_int(), c_nodes()
        status = c_flow(
            nq, m, pack(eu), pack(ev), npairs, pairs, _MODES[mode], bits, seconds,
            out.buffer_info()[0], conf, nodes,
        )
        _check(status)
        if status == _FOUND:
            return out.tolist(), conf.value, nodes.value
        return None, 0, nodes.value

    def normal_coloring_search(n, eu, ev, k, deadline=None):
        """See `_kernels_py.normal_coloring_search`; same contract."""
        check_edge_args(n, eu, ev)
        seconds = _seconds_left(deadline)
        m = len(eu)
        # as in `_kernels_py`, colors above m + 1 search as m + 1 and a
        # palette below 1 as 0; the clamp keeps every palette a C int
        palettes = [min(max(p, 0), m + 1) for p in ((k,) if isinstance(k, int) else k)]
        out, trail, searched = array("i", [0]) * m, array("q", [0]) * len(palettes), c_int()
        status = c_color(
            n, m, pack(eu), pack(ev), len(palettes), pack(palettes), seconds,
            out.buffer_info()[0], trail.buffer_info()[0], searched,
        )
        _check(status)
        trail = tuple(trail[: searched.value])
        return (out.tolist() if status == _FOUND else None), sum(trail), trail

    return SimpleNamespace(BACKEND="c", flow_search=flow_search, normal_coloring_search=normal_coloring_search)


_impl = _kernels_py
if not os.environ.get("NZFLOW_PURE_PYTHON") and os.path.exists(LIBRARY):
    try:
        _impl = bind(LIBRARY)
    except (OSError, AttributeError):
        pass

BACKEND: str = _impl.BACKEND
flow_search = _impl.flow_search
normal_coloring_search = _impl.normal_coloring_search


def check_deadline(deadline: Optional[float]) -> None:
    """Raise SearchTimeout once `time.monotonic()` has passed `deadline`."""
    if deadline is not None and time.monotonic() > deadline:
        raise SearchTimeout


__all__ = ["BACKEND", "bind", "check_deadline", "flow_search", "normal_coloring_search", "SearchTimeout"]
