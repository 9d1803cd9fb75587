"""Shared geometric data model and distance primitives.

All quantities live in one of two scalar regimes:

* ``"rational"`` - exact arbitrary-precision rationals (``fractions.Fraction``,
  always in lowest terms with positive denominator).  Used by the cover
  solvers and the reduction generators, whose coordinates overflow any float.
* ``"float"`` - IEEE binary64.  Used by the clustering numerics, which have
  no closed rational form.

No operation silently mixes regimes; mixing raises :class:`ScalarModeError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    RankDeficiencyError,
    ScalarModeError,
)
from .util import DEFAULT_REL_TOL, fraction_sqrt

Scalar = Union[Fraction, float]

MODE_RATIONAL = "rational"
MODE_FLOAT = "float"


def parse_scalar(text, mode: str) -> Scalar:
    """Parse a JSON-level scalar: "num/den" strings in rational mode, numbers in float mode."""
    if mode == MODE_RATIONAL:
        if isinstance(text, str):
            try:
                return Fraction(text)
            except ZeroDivisionError:
                raise ValueError(f"rational scalar with a zero denominator: {text!r}") from None
        if isinstance(text, int):
            return Fraction(text)
        raise ScalarModeError(f"rational scalar must be a string or int, got {text!r}")
    if mode == MODE_FLOAT:
        if isinstance(text, float):
            value = text
        elif isinstance(text, (int, str)) and not isinstance(text, bool):
            try:
                value = float(text)
            except OverflowError:  # an integer beyond the float range
                value = math.inf
        else:
            raise ValueError(f"float scalars must be numbers, got {text!r:.40}")
        if not math.isfinite(value):
            raise ValueError(f"float scalars must be finite, got {text!r}")
        return value
    raise ValueError(f"unknown scalar mode {mode!r}")


def format_scalar(value: Scalar):
    """Inverse of :func:`parse_scalar`; denominators of 1 are omitted."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return str(value)
    return float(value)


def _coerce(value, mode: str) -> Scalar:
    if mode == MODE_RATIONAL:
        if isinstance(value, float):
            raise ScalarModeError("float value in a rational-mode object")
        return Fraction(value)
    return float(value)


@dataclass(frozen=True)
class PointRecord:
    """One position with an integer multiplicity (compact multiset entry)."""

    coords: tuple
    mult: int = 1

    def __post_init__(self):
        if self.mult < 1:
            raise ValueError(f"multiplicity must be >= 1, got {self.mult}")
        object.__setattr__(self, "coords", tuple(self.coords))


@dataclass(frozen=True)
class WeightedPointCloud:
    """d-dimensional points with multiplicities, in a single scalar regime."""

    dim: int
    mode: str
    records: tuple

    def __post_init__(self):
        if self.mode not in (MODE_RATIONAL, MODE_FLOAT):
            raise ValueError(f"unknown scalar mode {self.mode!r}")
        recs = tuple(self.records)
        for rec in recs:
            if len(rec.coords) != self.dim:
                raise DimensionMismatchError(
                    f"record of length {len(rec.coords)} in a dim-{self.dim} cloud"
                )
        object.__setattr__(self, "records", recs)

    @classmethod
    def create(cls, points: Iterable[Sequence], mode: str, mults: Iterable[int] | None = None,
               dim: int | None = None) -> "WeightedPointCloud":
        pts = [tuple(_coerce(c, mode) for c in p) for p in points]
        if dim is None:
            if not pts:
                raise ValueError("cannot infer dimension of an empty cloud")
            dim = len(pts[0])
        if mults is None:
            mults = [1] * len(pts)
        recs = tuple(PointRecord(p, int(m)) for p, m in zip(pts, mults, strict=True))
        return cls(dim, mode, recs)

    @property
    def total_weight(self) -> int:
        return sum(r.mult for r in self.records)

    def positions(self) -> list:
        return [r.coords for r in self.records]

    def distinct_positions(self) -> list:
        seen = {}
        for r in self.records:
            seen.setdefault(r.coords, None)
        return list(seen)

    def to_float(self) -> "WeightedPointCloud":
        """Explicit regime conversion; the only sanctioned rational-to-float path."""
        if self.mode == MODE_FLOAT:
            return self
        recs = tuple(PointRecord(tuple(float(c) for c in r.coords), r.mult)
                     for r in self.records)
        return WeightedPointCloud(self.dim, MODE_FLOAT, recs)

    def coords_array(self) -> np.ndarray:
        if self.mode != MODE_FLOAT:
            raise ScalarModeError("coords_array is only available in float mode")
        return np.array([r.coords for r in self.records], dtype=float).reshape(
            len(self.records), self.dim)

    def weights_array(self) -> np.ndarray:
        try:
            return np.array([r.mult for r in self.records], dtype=float)
        except OverflowError:
            raise ValueError("a multiplicity is beyond the float64 range") from None


def _require_same_mode(mode_a: str, mode_b: str, what: str) -> None:
    if mode_a != mode_b:
        raise ScalarModeError(f"{what}: cannot mix {mode_a} and {mode_b} operands")


@dataclass(frozen=True)
class AffineFlat:
    """r-flat in canonical form: column-orthonormal basis, offset orthogonal to it.

    The canonical constraint B^T p = 0 makes the projector form
    ``|x - p - B B^T x|^2`` and the residual form ``|(I - B B^T)(x - p)|^2``
    agree, so either may be used for distances.
    """

    dim_ambient: int
    dim_flat: int
    basis: tuple  # dim_flat columns, each a tuple of length dim_ambient
    offset: tuple
    mode: str = MODE_FLOAT

    def __post_init__(self):
        d, r = self.dim_ambient, self.dim_flat
        if not (0 <= r <= d - 1):
            raise ValueError(f"flat dimension must satisfy 0 <= r <= d-1, got r={r}, d={d}")
        basis = tuple(tuple(col) for col in self.basis)
        offset = tuple(self.offset)
        if len(basis) != r or any(len(col) != d for col in basis):
            raise DimensionMismatchError("basis must consist of r columns of length d")
        if len(offset) != d:
            raise DimensionMismatchError("offset length must equal ambient dimension")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "offset", offset)
        self._validate()

    def _validate(self):
        if self.mode == MODE_FLOAT:
            B = self.basis_array()
            if self.dim_flat:
                gram = B.T @ B
                if not np.allclose(gram, np.eye(self.dim_flat), atol=1e-8):
                    raise RankDeficiencyError("basis is not column-orthonormal")
                if np.max(np.abs(B.T @ np.array(self.offset))) > 1e-6 * max(
                        1.0, float(np.max(np.abs(self.offset)))):
                    raise ValueError("offset has a component inside the basis span")
        else:
            for col in self.basis + (self.offset,):
                for c in col:
                    if isinstance(c, float):
                        raise ScalarModeError("float entry in a rational-mode flat")
            for i, ci in enumerate(self.basis):
                for j in range(i, len(self.basis)):
                    dot = sum(a * b for a, b in zip(ci, self.basis[j]))
                    want = 1 if i == j else 0
                    if dot != want:
                        raise RankDeficiencyError("rational basis is not exactly orthonormal")
                if sum(a * b for a, b in zip(ci, self.offset)) != 0:
                    raise ValueError("rational offset not orthogonal to basis")

    def basis_array(self) -> np.ndarray:
        return np.array(self.basis, dtype=float).T.reshape(self.dim_ambient, self.dim_flat)

    def offset_array(self) -> np.ndarray:
        return np.array(self.offset, dtype=float)


@dataclass(frozen=True)
class Hyperplane:
    """Exact hyperplane c0 + c1*x[1] + ... + cd*x[d] = 0, stored normalized.

    Normalization scales the coefficients to coprime integers and makes the
    first nonzero of (c1..cd) positive, giving one representative per plane.
    """

    coeffs: tuple  # (c0, c1, ..., cd) as ints after normalization

    def __post_init__(self):
        object.__setattr__(self, "coeffs", normalize_coeffs(self.coeffs))

    @property
    def dim(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, point: Sequence) -> Scalar:
        if len(point) != self.dim:
            raise DimensionMismatchError(
                f"point of dim {len(point)} against hyperplane of dim {self.dim}")
        acc = self.coeffs[0]
        for c, x in zip(self.coeffs[1:], point):
            acc += c * x
        return acc

    def contains(self, point: Sequence) -> bool:
        return self.evaluate(point) == 0


def normalize_coeffs(coeffs: Sequence) -> tuple:
    """Scale rational coefficients to the canonical coprime-integer form."""
    fr = [Fraction(c) if not isinstance(c, Fraction) else c for c in coeffs]
    if all(c == 0 for c in fr[1:]):
        raise ValueError("hyperplane requires a nonzero linear part")
    lcm = 1
    for c in fr:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in fr]
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
    ints = [v // g for v in ints]
    for v in ints[1:]:
        if v != 0:
            if v < 0:
                ints = [-w for w in ints]
            break
    return tuple(ints)


@dataclass(frozen=True)
class ClusteringSolution:
    """k flats plus the induced assignment and objective value.

    ``budget_decision`` is set only when the solver ran in decision mode:
    True/False for cost <= budget, None otherwise.
    """

    flats: tuple
    assignment: tuple
    cost: Scalar
    budget_decision: bool | None = None

    def __post_init__(self):
        object.__setattr__(self, "flats", tuple(self.flats))
        object.__setattr__(self, "assignment", tuple(map(int, self.assignment)))


@dataclass(frozen=True)
class CoverSolution:
    """At most k hyperplanes jointly containing every input position."""

    hyperplanes: tuple

    def __post_init__(self):
        object.__setattr__(self, "hyperplanes", tuple(self.hyperplanes))


# ---------------------------------------------------------------------------
# distance primitives


def dist2_point_flat(x: Sequence, flat: AffineFlat) -> Scalar:
    """Squared Euclidean distance from a point to a canonical flat.

    Evaluated as |(I - B B^T)(x - p)|^2, which equals |x - p - B B^T x|^2
    under the canonical invariant B^T p = 0.  Returns 0 exactly when x lies
    on the flat (up to float roundoff in float mode).
    """
    if len(x) != flat.dim_ambient:
        raise DimensionMismatchError(
            f"point of dim {len(x)} against flat in dim {flat.dim_ambient}")
    if flat.mode == MODE_FLOAT:
        if any(isinstance(c, Fraction) for c in x):
            raise ScalarModeError("rational point against a float-mode flat")
        y = np.asarray(x, dtype=float) - flat.offset_array()
        if flat.dim_flat:
            B = flat.basis_array()
            y = y - B @ (B.T @ y)
        return float(y @ y)
    if any(isinstance(a, float) for a in x):
        raise ScalarModeError("float point against a rational-mode flat")
    diff = [Fraction(a) - b for a, b in zip(x, flat.offset)]
    for col in flat.basis:
        t = sum(a * b for a, b in zip(col, diff))
        diff = [a - t * b for a, b in zip(diff, col)]
    return sum(a * a for a in diff)


def dist2_point_complement_form(x: Sequence, comp: Sequence[Sequence], p: Sequence,
                                tol: float = DEFAULT_REL_TOL) -> float:
    """Squared distance via the orthogonal complement: |C^T (x - p)|^2.

    ``comp`` holds d-r column-orthonormal columns spanning the complement of
    the flat's direction space.  Agrees with :func:`dist2_point_flat` for the
    flat through p whose basis is the complement of ``comp``.
    """
    C = np.array([list(col) for col in comp], dtype=float).T
    d = C.shape[0]
    if len(x) != d or len(p) != d:
        raise DimensionMismatchError("point, offset, and complement dimensions differ")
    gram = C.T @ C
    if not np.allclose(gram, np.eye(C.shape[1]), atol=max(tol, 1e-9)):
        raise RankDeficiencyError("complement matrix is not column-orthonormal")
    y = C.T @ (np.asarray(x, dtype=float) - np.asarray(p, dtype=float))
    return float(y @ y)


def canonicalize_flat(raw_basis: Sequence[Sequence], raw_offset: Sequence,
                      mode: str = MODE_FLOAT) -> AffineFlat:
    """Build a canonical AffineFlat from any spanning basis and offset.

    Orthonormalizes the basis by modified Gram-Schmidt in column order and
    replaces the offset by its component orthogonal to the span; the
    represented point set is unchanged.
    """
    cols = [list(col) for col in raw_basis]
    d = len(raw_offset)
    r = len(cols)
    if any(len(c) != d for c in cols):
        raise DimensionMismatchError("basis columns and offset have different lengths")
    if mode == MODE_FLOAT:
        B = np.array(cols, dtype=float).T.reshape(d, r)
        ortho = []
        scale = max(1.0, float(np.max(np.abs(B)))) if r else 1.0
        for j in range(r):
            v = B[:, j].copy()
            for u in ortho:
                v -= (u @ v) * u
            nrm = float(np.linalg.norm(v))
            if nrm <= 1e-12 * scale:
                raise RankDeficiencyError("raw basis is rank-deficient")
            ortho.append(v / nrm)
        p = np.asarray(raw_offset, dtype=float).copy()
        for u in ortho:
            p -= (u @ p) * u
        return AffineFlat(d, r, tuple(tuple(u) for u in ortho), tuple(p), MODE_FLOAT)

    vecs = [[Fraction(c) for c in col] for col in cols]
    ortho_f: list[list[Fraction]] = []
    for v in vecs:
        w = list(v)
        for u in ortho_f:
            t = sum(a * b for a, b in zip(u, w))
            w = [a - t * b for a, b in zip(w, u)]
        nrm2 = sum(a * a for a in w)
        if nrm2 == 0:
            raise RankDeficiencyError("raw basis is rank-deficient")
        nrm = fraction_sqrt(nrm2)
        if nrm is None:
            raise ScalarModeError(
                "basis cannot be orthonormalized exactly in rational mode "
                "(irrational column norm)")
        ortho_f.append([a / nrm for a in w])
    p_f = [Fraction(c) for c in raw_offset]
    for u in ortho_f:
        t = sum(a * b for a, b in zip(u, p_f))
        p_f = [a - t * b for a, b in zip(p_f, u)]
    return AffineFlat(d, r, tuple(tuple(u) for u in ortho_f), tuple(p_f), MODE_RATIONAL)


def total_cost(cloud: WeightedPointCloud, flats: Sequence[AffineFlat]) -> Scalar:
    """Sum over records of multiplicity times squared distance to the nearest flat."""
    flats = list(flats)
    if not flats:
        raise ValueError("total_cost requires at least one flat")
    for f in flats:
        _require_same_mode(cloud.mode, f.mode, "total_cost")
        if f.dim_ambient != cloud.dim:
            raise DimensionMismatchError("flat and cloud dimensions differ")
    if cloud.mode == MODE_FLOAT:
        X = cloud.coords_array()
        w = cloud.weights_array()
        best = np.full(len(cloud.records), np.inf)
        for f in flats:
            Y = X - f.offset_array()
            if f.dim_flat:
                B = f.basis_array()
                Y = Y - (Y @ B) @ B.T
            best = np.minimum(best, np.einsum("ij,ij->i", Y, Y))
        return float(w @ best)
    acc = Fraction(0)
    for rec in cloud.records:
        acc += rec.mult * min(dist2_point_flat(rec.coords, f) for f in flats)
    return acc
