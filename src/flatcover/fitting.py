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
from typing import Sequence

import numpy as np

from .errors import AffineDependenceError, DimensionMismatchError, ScalarModeError
from .geometry import (
    MODE_FLOAT,
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


def _sorted_eig(S: np.ndarray):
    """Eigenpairs of a symmetric matrix, or of each matrix of a stack
    ``(..., d, d)``, sorted descending with deterministic tie-breaking.

    One ``eigh`` call, one stable argsort and one sign fix serve the whole
    stack, and each matrix gets the eigenpairs it gets alone, bit for bit.
    Ties keep ascending original index; each eigenvector's sign is fixed so
    that its largest-magnitude component (first such index) is positive.
    Eigenvalues in [-EIG_CLAMP, 0) become 0.  Each matrix of eigenvectors
    is Fortran-ordered, as a column selection of one ``eigh`` result is: a
    matmul with its columns rounds by their layout, and a C-ordered copy
    moves fitted offsets in the last bit.
    """
    d = S.shape[-1]
    w, V = np.linalg.eigh(S.reshape(-1, d, d))
    rows = np.arange(len(w))[:, None]
    order = (-w).argsort(kind="stable")
    w = w[rows, order]
    # Vt[t, j] is eigenvector j of matrix t, in descending order.
    Vt = V.transpose(0, 2, 1)[rows, order]
    flip = Vt[rows, np.arange(d), abs(Vt).argmax(axis=2)] < 0
    np.negative(Vt, out=Vt, where=flip[..., None])
    w[(w < 0) & (w >= -EIG_CLAMP)] = 0.0
    return w.reshape(S.shape[:-1]), Vt.reshape(S.shape).swapaxes(-1, -2)


def best_fit_flat(cloud: WeightedPointCloud, r: int) -> FitResult:
    """Optimal r-flat for the whole cloud: centroid plus top-r principal directions.

    Cost equals the sum of the d-r smallest scatter eigenvalues.  Output is
    deterministic under spectrum ties (stable sort, sign-fixed eigenvectors),
    so permuting input records cannot change the fitted flat.
    """
    if cloud.mode != MODE_FLOAT:
        raise ScalarModeError(f"best_fit_flat needs a float-mode cloud, got a "
                              f"{cloud.mode} one")
    if not cloud.records:
        raise ValueError("cannot fit a flat to an empty cloud")
    d = cloud.dim
    if not (0 <= r <= d - 1):
        raise ValueError(f"flat dimension must satisfy 0 <= r <= d-1, got r={r}, d={d}")
    return fit_points(cloud.coords_array(), cloud.weights_array(), r)


def fit_points(X: np.ndarray, w: np.ndarray, r: int) -> FitResult:
    """:func:`best_fit_flat` on rows of X with weights w, whose shapes are unchecked.

    The caller guarantees at least one row and 0 <= r < d.  The arithmetic
    is :func:`centred_scatter` then :func:`fit_scatter`, which also serve
    stacks of blocks; this wraps their arrays as a :class:`FitResult`, whose
    :class:`AffineFlat` checks the fitted basis and offset.
    """
    evals, B, offset = fit_scatter(*centred_scatter(X, w), r)
    cost = float(np.sum(evals[r:]))
    return FitResult(flat=affine_flat(offset, B), cost=max(cost, 0.0),
                     spectrum=tuple(evals))


def centred_scatter(X: np.ndarray, w: np.ndarray):
    """Weighted centroid C and centred scatter S of the rows of X.

    X is ``(..., n, d)`` with weights w ``(..., n)``: one block or a stack
    of equal-size blocks, each block's arrays bit for bit those it gets
    alone.
    """
    C = (w[..., None, :] @ X)[..., 0, :] / w.sum(axis=-1)[..., None]
    D = X - C[..., None, :]
    return C, (D * w[..., None]).swapaxes(-1, -2) @ D


def fit_scatter(C: np.ndarray, S: np.ndarray, r: int):
    """(spectrum, basis B, offset) of the optimal r-flat of each scatter.

    C is ``(..., d)`` and S ``(..., d, d)``; one :func:`_sorted_eig` call
    serves the stack.  B holds the top-r eigenvectors as columns and the
    offset is C minus its projection onto them, so B^T offset = 0 up to
    rounding.  Nothing is checked: :class:`AffineFlat` and
    :func:`geometry.check_canonical` check the flat.
    """
    evals, evecs = _sorted_eig(S)
    B = evecs[..., :r]
    offset = C - (B @ (B.swapaxes(-1, -2) @ C[..., None]))[..., 0] if r else C.copy()
    return evals, B, offset


def affine_flat(offset: np.ndarray, B: np.ndarray) -> AffineFlat:
    """The :class:`AffineFlat` with basis columns B and this offset."""
    d, r = B.shape
    return AffineFlat(d, r, tuple(tuple(B[:, j]) for j in range(r)), tuple(offset),
                      MODE_FLOAT)


# ---------------------------------------------------------------------------
# fraction-free integer echelon form
#
# Every exact span computation (hyperplane fits here, slot hulls in the cover
# search) works on a rational cloud's int numerators and keeps a basis of
# direction rows as (pivot, row) pairs.  A row is zero at the pivots of all
# rows added before it, so reducing against the rows in order clears every
# pivot.


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


def fit_hyperplane_exact(points: Sequence[Sequence[int]], den: int = 1) -> Hyperplane:
    """Exact normalized hyperplane through up to d affinely independent points.

    The points are int numerators over the common denominator ``den``, as a
    rational cloud stores them.  The plane c0 + n.p = 0 through the
    numerators p is c0 + (den*n).x = 0 in the real coordinates x = p/den.
    With d points spanning affine dimension d-1 the hyperplane is unique.
    With fewer points the affine hull is completed deterministically by
    appending standard-basis directions e_1, e_2, ... in order, skipping any
    that would push the dimension past d-1.
    """
    if not points:
        raise ValueError("need at least one point")
    for p in points:
        if not all(isinstance(c, int) for c in p):
            raise ScalarModeError("fit_hyperplane_exact requires int numerators")
    d = len(points[0])
    if any(len(p) != d for p in points):
        raise DimensionMismatchError("points of mixed dimension")
    if len(points) > d:
        raise ValueError(f"at most d={d} points may be supplied")
    base = points[0]
    rows: list[tuple] = []
    for p in points[1:]:
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
    c0 = -sum(n * x for n, x in zip(normal, base))
    return Hyperplane((c0, *(den * n for n in normal)))
