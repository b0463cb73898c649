"""Kernel backend selection: compiled extension if built, pure Python otherwise.

Set NZFLOW_PURE_PYTHON=1 to force the fallback (used by the benchmark and
the backend-parity tests).
"""

from __future__ import annotations

import os
import time
from typing import Optional

from ._kernels_py import SearchTimeout  # single exception type for both backends

if os.environ.get("NZFLOW_PURE_PYTHON"):
    from . import _kernels_py as _impl
else:
    try:
        from . import _kernels as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _kernels_py as _impl

BACKEND: str = _impl.BACKEND
flow_search = _impl.flow_search
normal_coloring_search = _impl.normal_coloring_search


def check_deadline(deadline: Optional[float]) -> None:
    """Raise SearchTimeout once `time.monotonic()` has passed `deadline`."""
    if deadline is not None and time.monotonic() > deadline:
        raise SearchTimeout


__all__ = ["BACKEND", "check_deadline", "flow_search", "normal_coloring_search", "SearchTimeout"]
