"""Batched micro-cluster CF kernels.

A micro-cluster batch is four parallel rows-first arrays —
``counts (m,)``, ``weights (m,)``, ``linear (m, d)``, ``square (m, d)``
— one row per cluster feature.  The kernels below implement the paper's
stream-maintenance rule (absorb within one standard deviation, else
spawn and merge the closest pair) over whole blocks of points, plus the
CF vector algebra (merge, split, deviations) the property suite
certifies.

Everything is deterministic and RNG-free: absorb/spawn/merge decisions
depend only on the inputs, and ties resolve to the lowest index in both
backends.  The python variants are scalar loops — the reference oracle.
The numpy variants of the CF algebra keep the math on arrays, reducing
over dimensions in the reference's left-to-right order; the numpy
stream rule runs the compiled C kernel ``absorb.c``, built on first use
with the system ``cc`` and cached per user (see :func:`absorb_stream`).
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import shutil
import stat
import subprocess
import tempfile
import warnings
from pathlib import Path

import numpy as np

from repro import obs
from repro.kernels import resolve_backend
from repro.kernels.wkmeans import fold_sum, sq_distances

__all__ = [
    "deviations",
    "merge_rows",
    "split_row",
    "closest_pair",
    "absorb_stream",
]


def deviations(counts: np.ndarray, linear: np.ndarray, square: np.ndarray,
               *, backend: str | None = None) -> np.ndarray:
    """Per-row RMS deviation ``sqrt(max(sum(E[X^2] - E[X]^2), 0))``.

    The clamp matters: CF subtraction can leave ``square/count`` a few
    ulps below ``mean**2``, and a negative recovered variance would put
    a NaN radius into the absorption rule.
    """
    counts = np.asarray(counts, dtype=float)
    linear = np.atleast_2d(np.asarray(linear, dtype=float))
    square = np.atleast_2d(np.asarray(square, dtype=float))
    if resolve_backend(backend) == "numpy":
        mean = linear / counts[:, None]
        var = square / counts[:, None] - mean ** 2
        return np.sqrt(np.maximum(fold_sum(var), 0.0))
    out = []
    for n, ls, ss in zip(counts.tolist(), linear.tolist(), square.tolist()):
        total = 0.0
        for l, s in zip(ls, ss):
            mean = l / n
            total += s / n - mean * mean
        out.append(math.sqrt(max(total, 0.0)))
    return np.asarray(out, dtype=float)


def merge_rows(counts: np.ndarray, weights: np.ndarray, linear: np.ndarray,
               square: np.ndarray, keep: int, drop: int,
               *, backend: str | None = None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fold row ``drop`` into row ``keep`` and delete it (CFs are additive).

    Deletion shifts the following rows up, preserving insertion order —
    the tie-break order of every later nearest-cluster search depends on
    it.
    """
    if keep == drop:
        raise ValueError("cannot merge a row into itself")
    counts = np.asarray(counts, dtype=float).copy()
    weights = np.asarray(weights, dtype=float).copy()
    linear = np.atleast_2d(np.asarray(linear, dtype=float)).copy()
    square = np.atleast_2d(np.asarray(square, dtype=float)).copy()
    if resolve_backend(backend) == "numpy":
        counts[keep] += counts[drop]
        weights[keep] += weights[drop]
        linear[keep] += linear[drop]
        square[keep] += square[drop]
    else:
        counts[keep] = counts[keep] + counts[drop]
        weights[keep] = weights[keep] + weights[drop]
        for dim in range(linear.shape[1]):
            linear[keep, dim] = float(linear[keep, dim]) + float(linear[drop, dim])
            square[keep, dim] = float(square[keep, dim]) + float(square[drop, dim])
    return (np.delete(counts, drop), np.delete(weights, drop),
            np.delete(linear, drop, axis=0), np.delete(square, drop, axis=0))


def split_row(count: float, weight: float, linear: np.ndarray,
              square: np.ndarray, *, backend: str | None = None
              ) -> tuple[tuple, tuple]:
    """Split one CF row into two halves that sum back to the original.

    The halves sit one recovered standard deviation apart along each
    dimension; counts split as evenly as integer counts allow, weight
    proportionally, and the second half is computed by subtraction.
    ``count`` and ``weight`` are conserved *exactly* (the weight split
    stays within Sterbenz's lemma); ``linear_sum`` round-trips to within
    one ulp and ``square_sum`` to within float error.  Deterministic —
    no RNG.
    """
    count = float(count)
    if count < 2:
        raise ValueError("cannot split a cluster with count < 2")
    linear = np.asarray(linear, dtype=float)
    square = np.asarray(square, dtype=float)
    if float(count).is_integer():
        n1 = float(math.ceil(count / 2))
    else:
        n1 = count / 2.0
    n2 = count - n1
    w1 = weight * (n1 / count)
    w2 = weight - w1
    if resolve_backend(backend) == "numpy":
        mean = linear / count
        var = np.maximum(square / count - mean ** 2, 0.0)
        sigma = np.sqrt(var)
        m1 = mean + sigma * (n2 / count)
        m2 = mean - sigma * (n1 / count)
        ls1 = n1 * m1
        ls2 = linear - ls1
        resid = np.maximum(square - n1 * m1 ** 2 - n2 * m2 ** 2, 0.0)
        ss1 = n1 * m1 ** 2 + resid * (n1 / count)
        ss2 = square - ss1
        return (n1, w1, ls1, ss1), (n2, w2, ls2, ss2)
    d = linear.size
    ls1 = [0.0] * d
    ss1 = [0.0] * d
    for dim in range(d):
        l = float(linear[dim])
        s = float(square[dim])
        mean = l / count
        var = max(s / count - mean * mean, 0.0)
        sigma = math.sqrt(var)
        m1 = mean + sigma * (n2 / count)
        m2 = mean - sigma * (n1 / count)
        ls1[dim] = n1 * m1
        resid = max(s - n1 * m1 * m1 - n2 * m2 * m2, 0.0)
        ss1[dim] = n1 * m1 * m1 + resid * (n1 / count)
    ls1 = np.asarray(ls1)
    ss1 = np.asarray(ss1)
    return (n1, w1, ls1, ss1), (n2, w2, linear - ls1, square - ss1)


def closest_pair(centroids: np.ndarray,
                 *, backend: str | None = None) -> tuple[int, int]:
    """Indices ``(keep, drop)`` of the two closest rows, ``keep < drop``.

    Ties resolve to the first pair in row-major order in both backends.
    """
    centroids = np.atleast_2d(np.asarray(centroids, dtype=float))
    if centroids.shape[0] < 2:
        raise ValueError("need at least two rows")
    if resolve_backend(backend) == "numpy":
        # Direct (m, m, d) differences: micro-cluster budgets are small
        # (m <= a few dozen), and explicit differences folded in scalar
        # order keep the pair distances bitwise-identical to the scalar
        # backend's — neither the Gram-matrix trick nor einsum would.
        dist = sq_distances(centroids, centroids, backend="numpy")
        np.fill_diagonal(dist, np.inf)
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        return (int(i), int(j)) if i < j else (int(j), int(i))
    rows = centroids.tolist()
    best = (0, 1)
    best_val = math.inf
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            acc = 0.0
            for a, b in zip(rows[i], rows[j]):
                diff = a - b
                acc += diff * diff
            if acc < best_val:
                best_val = acc
                best = (i, j)
    return best


def absorb_stream(counts: np.ndarray, weights: np.ndarray,
                  linear: np.ndarray, square: np.ndarray,
                  points: np.ndarray, point_weights: np.ndarray,
                  radius_floor: float, max_clusters: int,
                  *, backend: str | None = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                             dict[str, int]]:
    """Run the stream-maintenance rule over a whole block of points.

    Starting from the given CF rows, each point in order is absorbed by
    the nearest cluster when it falls within ``max(deviation,
    radius_floor)`` of its centroid; otherwise it spawns a new cluster,
    and when the budget overflows the two closest clusters merge.
    Returns the updated rows plus ``{"spawned", "absorbed", "merged"}``
    event counts for the metrics registry.

    The rule is sequential — every decision sees the clusters as the
    previous point left them — so the ``numpy`` backend runs it in the
    compiled C kernel ``absorb.c``, bitwise-equal to the scalar
    reference.  Without a working C compiler both backends run the
    scalar reference; the ``kernels.cf.absorb_compiled`` gauge records
    which one served.
    """
    registry = obs.get_registry()
    with registry.phase("kernels.cf.absorb_stream"):
        kernel = (_compiled_kernel() if resolve_backend(backend) == "numpy"
                  else None)
        registry.gauge("kernels.cf.absorb_compiled").set(kernel is not None)
        if kernel is not None:
            return _absorb_stream_compiled(kernel, counts, weights, linear,
                                           square, points, point_weights,
                                           radius_floor, max_clusters)
        return _absorb_stream_python(counts, weights, linear, square,
                                     points, point_weights,
                                     radius_floor, max_clusters)


# ----------------------------------------------------------------------
# The compiled kernel: built once per source hash, cached per user
# ----------------------------------------------------------------------
_SOURCE = Path(__file__).with_name("absorb.c")
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

#: The loaded C entry point; ``False`` once building or loading failed.
_kernel = None


class _KernelUnavailable(RuntimeError):
    """The C kernel cannot be built, or not loaded safely."""


def _find_compiler() -> str | None:
    return shutil.which("cc")


def _cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro"


def _private_dir(path: Path) -> Path:
    """Create ``path`` (mode 0700) and check that only we can write it.

    A directory another user owns or can write to — ``/tmp`` itself, a
    group-writable share — could swap the shared object under us, so it
    is refused rather than loaded from.
    """
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = path.lstat()
    if not stat.S_ISDIR(info.st_mode):
        raise _KernelUnavailable(f"{path} is not a directory")
    if info.st_uid != os.getuid():
        raise _KernelUnavailable(f"{path} is not owned by the current user")
    if info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise _KernelUnavailable(f"{path} is group- or other-writable")
    return path


def _build(compiler: str, cache: Path) -> Path:
    """The shared object for this source and these flags, built if absent.

    The build goes to a private temp file that is renamed into place, so
    processes building at once never load a half-written file.
    """
    source = _SOURCE.read_bytes()
    key = hashlib.sha256(b"\0".join(
        [source, " ".join(_CFLAGS).encode(), compiler.encode(),
         platform.machine().encode()])).hexdigest()[:16]
    target = cache / f"absorb-{key}.so"
    if target.exists():
        return target
    fd, tmp = tempfile.mkstemp(prefix=".absorb-", suffix=".so", dir=cache)
    os.close(fd)
    try:
        done = subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp, str(_SOURCE), "-lm"],
            capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise _KernelUnavailable(
                done.stderr.strip() or f"{compiler} exited {done.returncode}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _load():
    compiler = _find_compiler()
    if compiler is None:
        raise _KernelUnavailable("no C compiler (cc) on PATH")
    library = ctypes.CDLL(str(_build(compiler, _private_dir(_cache_dir()))))
    kernel = library.absorb_stream
    ptr, n = ctypes.c_void_p, ctypes.c_long
    kernel.argtypes = [ptr] * 5 + [n, n, ptr, ptr, n, ctypes.c_double, n,
                                   ptr]
    kernel.restype = n
    return kernel


def _compiled_kernel():
    """The C entry point, or ``None`` (after one warning) when unavailable."""
    global _kernel
    if _kernel is None:
        try:
            _kernel = _load()
        except (OSError, subprocess.SubprocessError,
                _KernelUnavailable) as exc:
            warnings.warn(f"compiled absorb kernel unavailable, using the "
                          f"scalar reference: {exc}", RuntimeWarning,
                          stacklevel=3)
            _kernel = False
    return _kernel or None


def _absorb_stream_compiled(kernel, counts, weights, linear, square, points,
                            point_weights, radius_floor, max_clusters):
    points = np.ascontiguousarray(np.atleast_2d(points), dtype=float)
    npts, d = points.shape
    point_weights = np.ascontiguousarray(point_weights, dtype=float)
    if point_weights.shape != (npts,):
        raise ValueError(f"expected {npts} point weights, "
                         f"got shape {point_weights.shape}")
    n = len(counts)
    # Room for one spawn past the budget; never more rows than points.
    cap = min(max(n, max_clusters), n + npts) + 1
    cnt, wts = np.empty(cap), np.empty(cap)
    ls, ss, ctr = np.empty((cap, d)), np.empty((cap, d)), np.empty((cap, d))
    cnt[:n] = counts
    wts[:n] = weights
    if n:
        ls[:n] = linear
        ss[:n] = square
    stats = np.zeros(3, dtype=ctypes.c_long)
    n = kernel(cnt.ctypes.data, wts.ctypes.data, ls.ctypes.data,
               ss.ctypes.data, ctr.ctypes.data, n, d, points.ctypes.data,
               point_weights.ctypes.data, npts, float(radius_floor),
               int(max_clusters), stats.ctypes.data)
    spawned, absorbed, merged = stats.tolist()
    return (cnt[:n].copy(), wts[:n].copy(), ls[:n].copy(), ss[:n].copy(),
            {"spawned": spawned, "absorbed": absorbed, "merged": merged})


def _absorb_stream_python(counts, weights, linear, square, points,
                          point_weights, radius_floor, max_clusters):
    cnt = [float(c) for c in np.asarray(counts, dtype=float)]
    wts = [float(w) for w in np.asarray(weights, dtype=float)]
    ls = [list(map(float, row)) for row in np.atleast_2d(linear)] if len(cnt) else []
    ss = [list(map(float, row)) for row in np.atleast_2d(square)] if len(cnt) else []
    pts = np.atleast_2d(np.asarray(points, dtype=float)).tolist()
    pws = [float(w) for w in np.asarray(point_weights, dtype=float)]
    ctr = [[l / c for l in row] for c, row in zip(cnt, ls)]
    stats = {"spawned": 0, "absorbed": 0, "merged": 0}
    for p, w in zip(pts, pws):
        if not cnt:
            cnt.append(1.0)
            wts.append(w)
            ls.append(list(p))
            ss.append([x * x for x in p])
            ctr.append(list(p))
            stats["spawned"] += 1
            continue
        nearest, best_sq = 0, math.inf
        for idx, c in enumerate(ctr):
            acc = 0.0
            for a, b in zip(c, p):
                diff = a - b
                acc += diff * diff
            if acc < best_sq:
                nearest, best_sq = idx, acc
        distance = math.sqrt(best_sq)
        total = 0.0
        n_near = cnt[nearest]
        for l, s in zip(ls[nearest], ss[nearest]):
            mean = l / n_near
            total += s / n_near - mean * mean
        deviation = math.sqrt(max(total, 0.0))
        if distance <= max(deviation, radius_floor):
            cnt[nearest] += 1.0
            wts[nearest] += w
            row_ls, row_ss = ls[nearest], ss[nearest]
            for dim, x in enumerate(p):
                row_ls[dim] += x
                row_ss[dim] += x * x
            c = cnt[nearest]
            ctr[nearest] = [l / c for l in row_ls]
            stats["absorbed"] += 1
            continue
        cnt.append(1.0)
        wts.append(w)
        ls.append(list(p))
        ss.append([x * x for x in p])
        ctr.append(list(p))
        stats["spawned"] += 1
        if len(cnt) > max_clusters:
            keep, drop = closest_pair(np.asarray(ctr), backend="python")
            cnt[keep] += cnt[drop]
            wts[keep] += wts[drop]
            for dim in range(len(ls[keep])):
                ls[keep][dim] += ls[drop][dim]
                ss[keep][dim] += ss[drop][dim]
            for seq in (cnt, wts, ls, ss, ctr):
                del seq[drop]
            c = cnt[keep]
            ctr[keep] = [l / c for l in ls[keep]]
            stats["merged"] += 1
    return (np.asarray(cnt, dtype=float), np.asarray(wts, dtype=float),
            np.asarray(ls, dtype=float).reshape(len(cnt), -1),
            np.asarray(ss, dtype=float).reshape(len(cnt), -1),
            stats)
