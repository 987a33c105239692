"""repro.kernels — the numeric hot-path kernels behind a backend switch.

The control loop is dominated by three numeric kernels:

* **weighted k-means** assignment/update over the pooled ``k*m``
  micro-cluster pseudo-points (:mod:`repro.kernels.wkmeans`),
* **micro-cluster CF maintenance** — absorb/merge/split over
  ``(count, weight, linear_sum, square_sum)`` rows
  (:mod:`repro.kernels.cf`),
* **coordinate-space distances** for candidate ranking and
  migration-gain prediction (:mod:`repro.kernels.wkmeans` cross/pairwise
  distances, memoized by :mod:`repro.kernels.distcache`).

Every kernel exists in two implementations selected by a process-wide
*backend* switch:

``"numpy"``
    The production path.  Vectorised array kernels, except the
    sequential stream-absorb rule, which runs compiled: a C port of the
    scalar loop, built on first use with the system ``cc`` (see
    :func:`repro.kernels.cf.absorb_stream`).  Without a compiler it
    falls back to the scalar loop.
``"python"``
    Scalar pure-Python loops — the reference oracle the differential
    test suite checks the fast path against bit for bit, and the
    baseline the ``benchmarks/test_kernels.py`` speedup is measured
    from.

The switch defaults to ``numpy`` and can be set three ways, in
precedence order: an explicit ``backend=`` argument on a kernel call,
the process-wide :func:`set_backend` / :func:`use_backend` switch, and
the ``REPRO_KERNEL_BACKEND`` environment variable (read once at import,
so subprocess workers spawned by the parallel runner inherit it).

Both backends consume the *same* random stream: seeding, probability
draws and all control flow stay on ``numpy.random.Generator``; only the
arithmetic kernels switch.  That is what makes the differential suite
meaningful — same seed, same decisions, backend-independent.

Examples
--------
>>> from repro import kernels
>>> kernels.get_backend()
'numpy'
>>> with kernels.use_backend("python"):
...     kernels.get_backend()
'python'
>>> kernels.get_backend()
'numpy'
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "BACKENDS",
    "get_backend",
    "set_backend",
    "use_backend",
    "resolve_backend",
]

#: The recognised kernel backends.
BACKENDS = ("python", "numpy")


def _validated(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of {BACKENDS}"
        )
    return name


_backend = _validated(os.environ.get("REPRO_KERNEL_BACKEND", "numpy"))


def get_backend() -> str:
    """The process-wide default kernel backend."""
    return _backend


def set_backend(name: str) -> None:
    """Set the process-wide default kernel backend."""
    global _backend
    _backend = _validated(name)


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Temporarily switch the process-wide kernel backend."""
    global _backend
    previous = _backend
    _backend = _validated(name)
    try:
        yield _backend
    finally:
        _backend = previous


def resolve_backend(backend: str | None) -> str:
    """An explicit ``backend=`` argument, or the process-wide default."""
    if backend is None:
        return _backend
    return _validated(backend)
