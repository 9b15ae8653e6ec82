"""Kernel selection: compiled extension when available, pure Python otherwise.

Set ``STRONGPACK_PURE=1`` in the environment to force the pure kernel (used
by the benchmark and the backend-parity tests).
"""

import os

from . import _pycore

if os.environ.get("STRONGPACK_PURE"):
    _impl = _pycore
else:
    try:
        from . import _fastcore as _impl  # type: ignore[attr-defined]
    except ImportError:
        _impl = _pycore

BACKEND = _impl.BACKEND
MAX_VERTICES = _pycore._MAX_N  # both backends work on 64-bit vertex masks
search_arc_disjoint = _impl.search_arc_disjoint
search_internally_disjoint = _impl.search_internally_disjoint


def backend() -> str:
    """Name of the active search kernel ('compiled' or 'pure')."""
    return BACKEND
