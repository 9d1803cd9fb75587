"""Shared geometric data model and distance primitives.

Point clouds live in one of two scalar regimes:

* ``"rational"`` - exact rationals stored as Python ``int`` numerators over
  one cloud-wide denominator ``den`` (coordinate ``c`` is ``c / den``), put
  in lowest terms once when the cloud is built.  Used by the cover solvers
  and the reduction generators, whose coordinates overflow any float.
* ``"float"`` - IEEE binary64 with ``den`` 1.  Used by the clustering
  numerics, which have no closed rational form.

Affine flats are float-only: the clustering objective over r-flats is float
numerics throughout.  The exact objects are :class:`Hyperplane` for covers
and the axis-parallel ``reductions.AxisLine``, whose exact line cost is
``reductions.exact_cloud_cost``.  No operation silently mixes regimes; a
rational point or cloud against a flat raises :class:`ScalarModeError`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    RankDeficiencyError,
    ScalarModeError,
)

MODE_RATIONAL = "rational"
MODE_FLOAT = "float"

# The only rational text: an integer, or a numerator over a denominator.
# Fraction(text) would also take exponents, and "1e10000000" takes seconds.
_RATIONAL_TEXT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_INT_TEXT = re.compile(r"[+-]?[0-9]+")


def parse_int(value, what: str) -> int:
    """An integer as read: a JSON int or "[+-]digits" text.  Floats, booleans
    and any other text (spaces, underscores, non-ASCII digits) are refused."""
    if type(value) is int:
        return value
    if isinstance(value, str) and _INT_TEXT.fullmatch(value):
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r:.40}")


def parse_scalar(text, mode: str):
    """Parse a JSON-level scalar: in rational mode an int or "[+-]digits[/digits]"
    text (a Fraction only for "num/den"), in float mode a finite number."""
    if mode == MODE_RATIONAL:
        if type(text) is int:
            return text
        if not isinstance(text, str):
            raise ScalarModeError(f"rational scalar must be a string or int, got {text!r:.40}")
        match = _RATIONAL_TEXT.fullmatch(text)
        if match is None:
            raise ValueError(f"rational scalars are written num or num/den, got {text!r:.40}")
        num, den = match.groups()
        if den is None:
            return int(num)
        if not int(den):
            raise ValueError(f"rational scalar with a zero denominator: {text!r:.40}")
        return Fraction(int(num), int(den))
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


class PointRecord(NamedTuple):
    """One position with an integer multiplicity (compact multiset entry).

    A named ``(coords, mult)`` tuple whose ``coords`` is itself a tuple.
    Building one checks nothing: the :class:`WeightedPointCloud` that holds
    it checks both fields."""

    coords: tuple
    mult: int = 1


@dataclass(frozen=True)
class WeightedPointCloud:
    """d-dimensional points with multiplicities, in a single scalar regime.

    The cloud checks each :class:`PointRecord` it is given: a tuple of
    ``dim`` coordinates and a multiplicity of at least 1.  Rational records
    may come with int or Fraction coordinates over any ``den``."""

    dim: int
    mode: str
    records: tuple
    den: int = 1

    def __post_init__(self):
        if self.mode not in (MODE_RATIONAL, MODE_FLOAT):
            raise ValueError(f"unknown scalar mode {self.mode!r}")
        if self.dim < 1:
            raise ValueError(f"cloud dimension must be at least 1, got {self.dim}")
        recs = tuple(self.records)
        for coords, mult in recs:
            if type(coords) is not tuple:
                raise TypeError(f"record coordinates must be a tuple, got {coords!r:.40}")
            if len(coords) != self.dim:
                raise DimensionMismatchError(
                    f"record of length {len(coords)} in a dim-{self.dim} cloud"
                )
            if mult < 1:
                raise ValueError(f"multiplicity must be >= 1, got {mult}")
        den = self.den
        if self.mode == MODE_FLOAT and den != 1:
            raise ValueError(f"a float cloud has den 1, got {den!r:.40}")
        if self.mode == MODE_RATIONAL and (
                den != 1 or any(type(c) is not int for rec in recs for c in rec.coords)):
            recs, den = _lowest_terms(recs, den)
        object.__setattr__(self, "records", recs)
        object.__setattr__(self, "den", den)

    @classmethod
    def create(cls, points: Iterable[Sequence], mode: str, mults: Iterable[int] | None = None,
               dim: int | None = None) -> "WeightedPointCloud":
        pts = [tuple(p if mode == MODE_RATIONAL else map(float, p)) for p in points]
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

    def distinct_positions(self) -> list:
        return list(dict.fromkeys(r.coords for r in self.records))

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


def _lowest_terms(records: tuple, den) -> tuple:
    """(records, den) as int numerators over the least common denominator."""
    if type(den) is not int or den < 1:
        raise ValueError(f"a cloud denominator must be a positive integer, got {den!r:.40}")
    if any(isinstance(c, float) for rec in records for c in rec.coords):
        raise ScalarModeError("float value in a rational-mode cloud")
    rows = [[c if type(c) is int else Fraction(c) for c in rec.coords] for rec in records]
    scale = math.lcm(*(c.denominator for row in rows for c in row))
    rows = [[c.numerator * (scale // c.denominator) for c in row] for row in rows]
    g = math.gcd(den * scale, *(c for row in rows for c in row))
    return (tuple(PointRecord(tuple(c // g for c in row), rec.mult)
                  for row, rec in zip(rows, records)), den * scale // g)


@dataclass(frozen=True)
class AffineFlat:
    """Float r-flat in canonical form: column-orthonormal basis, offset orthogonal to it.

    ``mode`` must be ``MODE_FLOAT``; any other value raises ScalarModeError.
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
        if self.mode != MODE_FLOAT:
            raise ScalarModeError(f"affine flats are float-only, got mode {self.mode!r}")
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
        if r:
            check_canonical(self.basis_array(), self.offset_array())

    def basis_array(self) -> np.ndarray:
        return np.array(self.basis, dtype=float).T.reshape(self.dim_ambient, self.dim_flat)

    def offset_array(self) -> np.ndarray:
        return np.array(self.offset, dtype=float)


def check_canonical(B: np.ndarray, offset: np.ndarray) -> None:
    """Raise unless each flat of B ``(..., d, r)`` and offset ``(..., d)`` is canonical.

    The basis columns must be orthonormal (``np.allclose`` of B^T B to I at
    atol 1e-8, written out so that it applies to a stack) and the offset
    orthogonal to them: no |B^T offset| entry above 1e-6 times the largest
    |offset| entry, or 1e-6 if that entry is below 1.
    """
    r = B.shape[-1]
    if not r:
        return
    Bt = B.swapaxes(-1, -2)
    eye = np.eye(r)
    if not (abs(Bt @ B - eye) <= 1e-8 + 1e-5 * eye).all():
        raise RankDeficiencyError("basis is not column-orthonormal")
    inside = abs(Bt @ offset[..., None]).max(axis=(-2, -1))
    if (inside > 1e-6 * np.fmax(1.0, abs(offset).max(axis=-1))).any():
        raise ValueError("offset has a component inside the basis span")


@dataclass(frozen=True)
class Hyperplane:
    """Exact hyperplane c0 + c1*x[1] + ... + cd*x[d] = 0 with coprime int
    coefficients, the first nonzero of (c1..cd) positive: one representative
    per plane.  Other coefficient types raise ScalarModeError, and
    ``cover.scaled_planes`` tests membership.
    """

    coeffs: tuple  # (c0, c1, ..., cd), coprime ints

    def __post_init__(self):
        object.__setattr__(self, "coeffs", normalize_coeffs(self.coeffs))

    @property
    def dim(self) -> int:
        return len(self.coeffs) - 1


def normalize_coeffs(coeffs: Sequence) -> tuple:
    """Scale integer coefficients to the canonical coprime form."""
    if not all(type(c) is int for c in coeffs):
        raise ScalarModeError("hyperplane coefficients must be ints")
    if not any(coeffs[1:]):
        raise ValueError("hyperplane requires a nonzero linear part")
    g = math.gcd(*coeffs)
    if next(c for c in coeffs[1:] if c) < 0:
        g = -g
    return tuple(c // g for c in coeffs)


@dataclass(frozen=True)
class ClusteringSolution:
    """k flats plus the induced assignment and objective value."""

    flats: tuple
    assignment: tuple
    cost: float

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


def dist2_rows(X: np.ndarray, flat: AffineFlat) -> np.ndarray:
    """Squared Euclidean distance from every row of X to a canonical flat.

    Evaluated as |(I - B B^T)(x - p)|^2, which equals |x - p - B B^T x|^2
    under the canonical invariant B^T p = 0.  A row on the flat gets 0, up to
    float roundoff.
    """
    return dist2_arrays(X, flat.offset_array(), flat.basis_array())


def dist2_arrays(X: np.ndarray, offset: np.ndarray, B: np.ndarray) -> np.ndarray:
    """:func:`dist2_rows` for a flat given as its offset and basis columns B."""
    Y = X - offset
    if B.shape[1]:
        Y = Y - (Y @ B) @ B.T
    return np.einsum("ij,ij->i", Y, Y)


def total_cost(cloud: WeightedPointCloud, flats: Sequence[AffineFlat]) -> float:
    """Sum over records of multiplicity times squared distance to the nearest flat.

    The cloud must be float-mode; exact costs of axis-parallel lines on a
    rational cloud are ``reductions.exact_cloud_cost``.
    """
    flats = list(flats)
    if not flats:
        raise ValueError("total_cost requires at least one flat")
    for f in flats:
        if f.dim_ambient != cloud.dim:
            raise DimensionMismatchError("flat and cloud dimensions differ")
    X = cloud.coords_array()
    D = np.column_stack([dist2_rows(X, f) for f in flats])
    return float(cloud.weights_array() @ D.min(axis=1))
