"""Weighted k-means assignment/update and coordinate-distance kernels.

The assignment kernel materialises the full ``(n, k)`` point-by-centroid
squared-distance matrix; an optional *eligibility* mask excludes
centroids (columns) from the assignment without disturbing the matrix
shape — that is how chaos-degraded epochs (partitioned candidates,
unreachable sites) keep using the same code path.

Every function takes ``backend={"python","numpy"}`` (``None`` resolves
the process-wide switch, see :mod:`repro.kernels`).  The numpy variants
are the production path; the python variants are deliberately scalar
loops — the reference oracle.  All functions return numpy arrays either
way, so callers never branch on the backend themselves.
"""

from __future__ import annotations

import math

import numpy as np

from repro.kernels import resolve_backend

__all__ = [
    "fold_sum",
    "sq_distances",
    "assign_labels",
    "assignment_costs",
    "update_centroids",
    "cross_distances",
    "pairwise_distances",
]


def fold_sum(values: np.ndarray) -> np.ndarray:
    """Sum over the last axis strictly left to right, from ``0.0``.

    The same reduction order as the scalar loops' ``acc += x``, so the
    numpy and python backends agree bitwise.  ``einsum`` does not keep
    that order for three or more terms, nor ``sum`` for eight or more.
    """
    values = np.asarray(values, dtype=float)
    out = np.zeros(values.shape[:-1])
    for k in range(values.shape[-1]):
        out += values[..., k]
    return out


def sq_distances(points: np.ndarray, centers: np.ndarray,
                 *, backend: str | None = None) -> np.ndarray:
    """``(n, k)`` squared Euclidean distances, point row by centroid row."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if resolve_backend(backend) == "numpy":
        diff = points[:, None, :] - centers[None, :, :]
        return fold_sum(diff * diff)
    rows = points.tolist()
    cols = centers.tolist()
    out = [[0.0] * len(cols) for _ in rows]
    for i, p in enumerate(rows):
        row = out[i]
        for j, c in enumerate(cols):
            acc = 0.0
            for a, b in zip(p, c):
                d = a - b
                acc += d * d
            row[j] = acc
    return np.asarray(out, dtype=float)


def assign_labels(sq: np.ndarray, *, eligible: np.ndarray | None = None,
                  backend: str | None = None) -> np.ndarray:
    """Nearest-centroid labels from a squared-distance matrix.

    ``eligible`` is an optional ``(k,)`` boolean mask over centroids;
    ineligible columns can never win the argmin.  Ties resolve to the
    lowest index in both backends (numpy's ``argmin`` rule).
    """
    sq = np.atleast_2d(np.asarray(sq, dtype=float))
    if eligible is not None:
        eligible = np.asarray(eligible, dtype=bool)
        if eligible.shape != (sq.shape[1],):
            raise ValueError(
                f"eligibility mask must be ({sq.shape[1]},), "
                f"got {eligible.shape}")
        if not eligible.any():
            raise ValueError("no centroid is eligible")
    if resolve_backend(backend) == "numpy":
        if eligible is None:
            return np.argmin(sq, axis=1)
        masked = np.where(eligible[None, :], sq, np.inf)
        return np.argmin(masked, axis=1)
    ok = [True] * sq.shape[1] if eligible is None else eligible.tolist()
    labels = []
    for row in sq.tolist():
        best, best_val = -1, math.inf
        for j, val in enumerate(row):
            if ok[j] and val < best_val:
                best, best_val = j, val
        labels.append(best)
    return np.asarray(labels, dtype=int)


def assignment_costs(sq: np.ndarray, labels: np.ndarray, weights: np.ndarray,
                     *, backend: str | None = None) -> np.ndarray:
    """Per-point weighted squared distance to its assigned centroid.

    Summing this vector gives the inertia; its argmax is the point a
    deterministic empty-cluster reseed should grab.
    """
    sq = np.atleast_2d(np.asarray(sq, dtype=float))
    labels = np.asarray(labels, dtype=int)
    weights = np.asarray(weights, dtype=float)
    if resolve_backend(backend) == "numpy":
        return weights * sq[np.arange(labels.size), labels]
    out = [w * row[lab] for row, lab, w in
           zip(sq.tolist(), labels.tolist(), weights.tolist())]
    return np.asarray(out, dtype=float)


def update_centroids(points: np.ndarray, labels: np.ndarray,
                     weights: np.ndarray, centers: np.ndarray,
                     costs: np.ndarray,
                     *, backend: str | None = None) -> np.ndarray:
    """One Lloyd update: weighted means, empty clusters reseeded.

    An empty cluster is reseeded at the point with the largest current
    assignment cost — a deterministic rule driven entirely by the
    inputs, never by hidden RNG state, so ``backend="python"`` runs are
    exactly as seed-stable as the vectorised path.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    labels = np.asarray(labels, dtype=int)
    weights = np.asarray(weights, dtype=float)
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    costs = np.asarray(costs, dtype=float)
    k = centers.shape[0]
    if resolve_backend(backend) == "numpy":
        new_centers = centers.copy()
        for c in range(k):
            mask = labels == c
            mass = weights[mask].sum()
            if mass > 0:
                new_centers[c] = np.average(points[mask], axis=0,
                                            weights=weights[mask])
            else:
                new_centers[c] = points[int(np.argmax(costs))]
        return new_centers
    d = points.shape[1]
    sums = [[0.0] * d for _ in range(k)]
    masses = [0.0] * k
    for p, lab, w in zip(points.tolist(), labels.tolist(), weights.tolist()):
        masses[lab] += w
        row = sums[lab]
        for dim in range(d):
            row[dim] += w * p[dim]
    cost_list = costs.tolist()
    worst = max(range(len(cost_list)), key=lambda i: cost_list[i],
                default=0) if cost_list else 0
    out = []
    for c in range(k):
        if masses[c] > 0:
            out.append([s / masses[c] for s in sums[c]])
        else:
            out.append(list(points[worst]))
    return np.asarray(out, dtype=float)


def cross_distances(a: np.ndarray, b: np.ndarray,
                    b_heights: np.ndarray | None = None,
                    a_heights: np.ndarray | None = None,
                    *, backend: str | None = None) -> np.ndarray:
    """``(na, nb)`` Euclidean distances between row sets, plus heights.

    ``a_heights`` / ``b_heights`` are optional per-row height-vector
    components added to every distance involving that row (the
    Vivaldi/RNP access-link delay model).
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if resolve_backend(backend) == "numpy":
        d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
        if a_heights is not None:
            d = d + np.asarray(a_heights, dtype=float)[:, None]
        if b_heights is not None:
            d = d + np.asarray(b_heights, dtype=float)[None, :]
        return d
    ah = ([0.0] * a.shape[0] if a_heights is None
          else np.asarray(a_heights, dtype=float).tolist())
    bh = ([0.0] * b.shape[0] if b_heights is None
          else np.asarray(b_heights, dtype=float).tolist())
    rows = a.tolist()
    cols = b.tolist()
    out = [[0.0] * len(cols) for _ in rows]
    for i, p in enumerate(rows):
        row = out[i]
        for j, q in enumerate(cols):
            acc = 0.0
            for x, y in zip(p, q):
                diff = x - y
                acc += diff * diff
            row[j] = math.sqrt(acc) + ah[i] + bh[j]
    return np.asarray(out, dtype=float)


def pairwise_distances(points: np.ndarray,
                       heights: np.ndarray | None = None,
                       *, backend: str | None = None) -> np.ndarray:
    """All pairwise distances of one row set; zero diagonal.

    With ``heights`` the result is ``planar + h_i + h_j`` off-diagonal —
    the height-vector distance rule — while the diagonal stays zero.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if resolve_backend(backend) == "numpy":
        diff = points[:, None, :] - points[None, :, :]
        d = np.linalg.norm(diff, axis=-1)
        if heights is not None:
            heights = np.asarray(heights, dtype=float)
            d = d + heights[:, None] + heights[None, :]
        np.fill_diagonal(d, 0.0)
        return d
    d = cross_distances(points, points, b_heights=heights, a_heights=heights,
                        backend="python")
    np.fill_diagonal(d, 0.0)
    return d
