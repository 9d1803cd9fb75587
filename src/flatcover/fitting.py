"""Single-cluster optimal fitting: the k=1 base case used by every solver.

The optimal r-flat under the sum-of-squared-distances objective passes
through the weighted centroid and is spanned by the top-r eigenvectors of
the weighted scatter matrix; its cost is the sum of the d-r smallest
eigenvalues (Eckart-Young).  Eigen-decomposing the d x d scatter matrix
rather than the n x d data matrix keeps the cost at O(d n^2 + d^3), which
is the right trade-off here because d is small in every use case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import AffineDependenceError, DimensionMismatchError, ScalarModeError
from .geometry import (
    MODE_FLOAT,
    MODE_RATIONAL,
    AffineFlat,
    Hyperplane,
    WeightedPointCloud,
)

# Eigenvalues in [-EIG_CLAMP, 0) are numerical PSD violations; clamp to 0.
EIG_CLAMP = 1e-12


@dataclass(frozen=True)
class FitResult:
    """Fitted flat, its cost, and the full scatter spectrum (descending)."""

    flat: AffineFlat
    cost: float
    spectrum: tuple

    def __post_init__(self):
        object.__setattr__(self, "spectrum", tuple(float(s) for s in self.spectrum))


def centroid(cloud: WeightedPointCloud):
    """Weighted mean of the cloud; exact in rational mode."""
    if not cloud.records:
        raise ValueError("centroid of an empty cloud")
    if cloud.mode == MODE_FLOAT:
        X = cloud.coords_array()
        w = cloud.weights_array()
        return tuple((w @ X) / w.sum())
    total = Fraction(0)
    acc = [Fraction(0)] * cloud.dim
    for rec in cloud.records:
        total += rec.mult
        for i, c in enumerate(rec.coords):
            acc[i] += rec.mult * Fraction(c)
    return tuple(a / total for a in acc)


def _sorted_eig(S: np.ndarray):
    """Eigenpairs sorted descending with deterministic tie-breaking.

    Ties keep ascending original index; each eigenvector's sign is fixed so
    that its largest-magnitude component (first such index) is positive.
    """
    w, V = np.linalg.eigh(S)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    V = V[:, order]
    for j in range(V.shape[1]):
        col = V[:, j]
        idx = int(np.argmax(np.abs(col)))
        if col[idx] < 0:
            V[:, j] = -col
    w[(w < 0) & (w >= -EIG_CLAMP)] = 0.0
    return w, V


def best_fit_flat(cloud: WeightedPointCloud, r: int) -> FitResult:
    """Optimal r-flat for the whole cloud: centroid plus top-r principal directions.

    Cost equals the sum of the d-r smallest scatter eigenvalues.  Output is
    deterministic under spectrum ties (stable sort, sign-fixed eigenvectors),
    so permuting input records cannot change the fitted flat.
    """
    if cloud.mode != MODE_FLOAT:
        raise ScalarModeError("best_fit_flat operates on float-mode clouds; "
                              "convert explicitly with cloud.to_float()")
    if not cloud.records:
        raise ValueError("cannot fit a flat to an empty cloud")
    d = cloud.dim
    if not (0 <= r <= d - 1):
        raise ValueError(f"flat dimension must satisfy 0 <= r <= d-1, got r={r}, d={d}")
    return fit_points(cloud.coords_array(), cloud.weights_array(), r)


def fit_points(X: np.ndarray, w: np.ndarray, r: int) -> FitResult:
    """Array core of :func:`best_fit_flat`: rows of X with weights w, unchecked.

    The caller guarantees at least one row and 0 <= r < d.
    """
    d = X.shape[1]
    C = (w @ X) / w.sum()
    D = X - C
    S = (D * w[:, None]).T @ D
    evals, evecs = _sorted_eig(S)
    basis = tuple(tuple(evecs[:, j]) for j in range(r))
    B = evecs[:, :r]
    offset = C - B @ (B.T @ C) if r else C.copy()
    flat = AffineFlat(d, r, basis, tuple(offset), MODE_FLOAT)
    cost = float(np.sum(evals[r:]))
    return FitResult(flat=flat, cost=max(cost, 0.0), spectrum=tuple(evals))


# ---------------------------------------------------------------------------
# fraction-free integer echelon form
#
# Every exact span computation (hyperplane fits here, slot hulls in the cover
# search) scales its points to integers once and keeps a basis of direction
# rows as (pivot, row) pairs.  A row is zero at the pivots of all rows added
# before it, so reducing against the rows in order clears every pivot.


def integer_points(points: Sequence[Sequence]) -> list[tuple]:
    """Rational points scaled by the lcm of all coordinate denominators."""
    lcm = 1
    for p in points:
        for c in p:
            den = Fraction(c).denominator
            lcm = lcm * den // math.gcd(lcm, den)
    return [tuple(int(Fraction(c) * lcm) for c in p) for p in points]


def reduce_row(v: Sequence[int], rows: Sequence[tuple]) -> Sequence[int]:
    """Reduce integer vector v against (pivot, row) rows without division.

    The result is zero at every pivot, and all zero exactly when v lies in
    the span of the rows.
    """
    for piv, row in rows:
        if v[piv]:
            a, b = row[piv], v[piv]
            v = [x * a - y * b for x, y in zip(v, row)]
    return v


def echelon_row(v: Sequence[int]) -> tuple:
    """A nonzero reduced vector as a new (pivot, row) pair with coprime entries."""
    g = math.gcd(*v)
    piv = next(i for i, c in enumerate(v) if c)
    return piv, tuple(c // g for c in v)


def fit_hyperplane_exact(points: Sequence[Sequence]) -> Hyperplane:
    """Exact normalized hyperplane through up to d affinely independent points.

    With d points spanning affine dimension d-1 the hyperplane is unique.
    With fewer points the affine hull is completed deterministically by
    appending standard-basis directions e_1, e_2, ... in order, skipping any
    that would push the dimension past d-1.
    """
    if not points:
        raise ValueError("need at least one point")
    for p in points:
        if any(isinstance(c, float) for c in p):
            raise ScalarModeError("fit_hyperplane_exact requires exact coordinates")
    d = len(points[0])
    if any(len(p) != d for p in points):
        raise DimensionMismatchError("points of mixed dimension")
    if len(points) > d:
        raise ValueError(f"at most d={d} points may be supplied")
    pts = integer_points(points)
    base = pts[0]
    rows: list[tuple] = []
    for p in pts[1:]:
        v = reduce_row([a - b for a, b in zip(p, base)], rows)
        if not any(v):
            raise AffineDependenceError("points are affinely dependent")
        rows.append(echelon_row(v))
    for i in range(d):
        if len(rows) == d - 1:
            break
        v = reduce_row([int(j == i) for j in range(d)], rows)
        if any(v):
            rows.append(echelon_row(v))
    # Normal vector n with row . n = 0 for all d-1 rows.  Row t is nonzero
    # only at its own pivot, the pivots of later rows and the one free
    # column, so walking the rows backwards fixes one pivot entry at a time;
    # rescaling the solved entries keeps everything integral.
    pivots = {piv for piv, _ in rows}
    free = next(j for j in range(d) if j not in pivots)
    normal = [int(j == free) for j in range(d)]
    for piv, row in reversed(rows):
        num = -sum(r * c for r, c in zip(row, normal))
        g = math.gcd(num, row[piv])
        normal = [c * (row[piv] // g) for c in normal]
        normal[piv] = num // g
    c0 = -sum(n * Fraction(x) for n, x in zip(normal, points[0]))
    return Hyperplane((c0, *normal))
