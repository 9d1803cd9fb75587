"""Brute-force references the solvers are checked against, and the small
builders that only tests use.

Each reference enumerates its whole search space and shares no search code
with the solver it checks.
"""

import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from flatcover.errors import (
    AffineDependenceError,
    DimensionMismatchError,
    RankDeficiencyError,
    ScalarModeError,
)
from flatcover.fitting import best_fit_flat, echelon_row, fit_hyperplane_exact, reduce_row
from flatcover.geometry import (
    MODE_FLOAT,
    AffineFlat,
    Hyperplane,
    WeightedPointCloud,
    dist2_rows,
)
from flatcover.reductions import ColoredGraph


def partitions(n, k):
    """Canonical partitions of n records into at most k nonempty blocks.

    Restricted growth strings in lexicographic order: record 0 is in block 0
    and each label is at most one more than the largest label before it.
    """
    def rec(labels, used):
        if len(labels) == n:
            yield labels
            return
        for b in range(min(used + 1, k)):
            yield from rec(labels + (b,), max(used, b + 1))

    yield from rec((0,), 1)


def unpruned_optimum(cloud, k, r):
    """Least total best-fit cost over every partition into at most k blocks."""
    best = math.inf
    for labels in partitions(len(cloud.records), k):
        cost = 0.0
        for b in range(max(labels) + 1):
            block = tuple(rec for rec, lab in zip(cloud.records, labels) if lab == b)
            cost += best_fit_flat(WeightedPointCloud(cloud.dim, cloud.mode, block), r).cost
        best = min(best, cost)
    return best


def generate_candidates(cloud):
    """Every hyperplane spanned by at most d distinct positions of a rational cloud.

    Returns (hyperplane, indices of the records on it) pairs, one per
    hyperplane, sorted by normalized coefficients.  Complete: any
    hyperplane's records lie on some candidate (one spanned by a maximal
    affinely independent subset of them).
    """
    positions = cloud.distinct_positions()
    planes = {}
    for size in range(1, min(cloud.dim, len(positions)) + 1):
        for subset in itertools.combinations(positions, size):
            try:
                h = fit_hyperplane_exact(subset, cloud.den)
            except AffineDependenceError:
                continue
            planes.setdefault(h.coeffs, h)
    return [(h, tuple(i for i, rec in enumerate(cloud.records)
                      if on_plane(h, rec.coords, cloud.den)))
            for _, h in sorted(planes.items())]


def on_plane(h, point, den=1):
    """Whether the point point/den lies on hyperplane h: c0*den + c.point == 0."""
    if len(point) != h.dim:
        raise DimensionMismatchError(
            f"point of dim {len(point)} against hyperplane of dim {h.dim}")
    c0, *normal = h.coeffs
    return c0 * den + sum(c * x for c, x in zip(normal, point)) == 0


def integer_plane(coeffs):
    """The Hyperplane with rational coefficients ``coeffs``, scaled to
    integers by their common denominator."""
    scale = math.lcm(*(Fraction(c).denominator for c in coeffs))
    return Hyperplane(tuple(int(c * scale) for c in coeffs))


def cover_oracle(cloud, k):
    """Whether at most k candidate hyperplanes jointly hold every record."""
    masks = [sum(1 << i for i in covered) for _, covered in generate_candidates(cloud)]
    full = (1 << len(cloud.records)) - 1
    for size in range(k + 1):
        for combo in itertools.combinations(masks, size):
            acc = 0
            for m in combo:
                acc |= m
            if acc == full:
                return True
    return False


def slot_search_oracle(pts, den, k):
    """The cover slot search with no cut, bound or node guard: at most k
    hyperplanes through the distinct integer points, or None.

    The same depth-first order as ``cover._solve_partition``, so it returns
    the first cover that search reaches; cuts that drop only subtrees
    holding no cover must leave that cover unchanged.
    """
    if k == 0:
        return None
    n, d = len(pts), len(pts[0])

    def search(i, slots):
        while True:
            if i == n:
                return slots
            x = pts[i]
            residuals = []
            for base, rows, reps in slots:
                v = reduce_row([a - b for a, b in zip(x, pts[base])], rows)
                if not any(v):
                    break
                residuals.append(v)
            else:
                break
            i += 1
        for j, (base, rows, reps) in enumerate(slots):
            if len(rows) < d - 1:
                new_slot = (base, rows + (echelon_row(residuals[j]),), reps + (i,))
                result = search(i + 1, slots[:j] + (new_slot,) + slots[j + 1:])
                if result is not None:
                    return result
        if len(slots) < k:
            return search(i + 1, slots + ((i, (), ()),))
        return None

    final = search(1, ((0, (), ()),))
    if final is None:
        return None
    return [fit_hyperplane_exact([pts[base]] + [pts[i] for i in reps], den)
            for base, rows, reps in final]


def fraction_positions(cloud):
    """A rational cloud's distinct positions as tuples of Fractions."""
    return [tuple(Fraction(c, cloud.den) for c in p) for p in cloud.distinct_positions()]


def fraction_covers(cloud, planes):
    """Whether every position satisfies some plane's equation, substituting
    the Fraction coordinates into c0 + c1*x1 + ... + cd*xd."""
    return all(any(h.coeffs[0] + sum(c * x for c, x in zip(h.coeffs[1:], p)) == 0
                   for h in planes)
               for p in fraction_positions(cloud))


def fraction_cloud_cost(cloud, lines):
    """Sum of multiplicity times squared distance to the nearest axis line,
    in Fractions, comparing each record with every line."""
    total = Fraction(0)
    for rec in cloud.records:
        x, y = (Fraction(c, cloud.den) for c in rec.coords)
        total += rec.mult * min(((y if line.axis == "h" else x) - Fraction(line.c)) ** 2
                                for line in lines)
    return total


def full_rank(matrix):
    """Whether the rows of an integer matrix are linearly independent.

    For a square matrix this is a nonzero determinant.
    """
    rows = []
    for v in matrix:
        v = reduce_row(list(v), rows)
        if not any(v):
            return False
        rows.append(echelon_row(v))
    return True


def dist2_point_flat(x: Sequence, flat: AffineFlat) -> float:
    """Squared Euclidean distance from one float point to a canonical flat."""
    if len(x) != flat.dim_ambient:
        raise DimensionMismatchError(
            f"point of dim {len(x)} against flat in dim {flat.dim_ambient}")
    if any(isinstance(c, Fraction) for c in x):
        raise ScalarModeError("rational point against a float flat")
    return float(dist2_rows(np.array([x], dtype=float), flat)[0])


def canonicalize_flat(raw_basis: Sequence[Sequence], raw_offset: Sequence) -> AffineFlat:
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


def centroid(cloud: WeightedPointCloud):
    """Weighted mean of a float-mode cloud."""
    if not cloud.records:
        raise ValueError("centroid of an empty cloud")
    X = cloud.coords_array()
    w = cloud.weights_array()
    return tuple((w @ X) / w.sum())


def ring_color_graph(ell: int, nu: int) -> ColoredGraph:
    """w_j of class i is adjacent to w_j of classes i-1 and i+1 cyclically (q = 2)."""
    if ell < 3:
        raise ValueError("ring graph needs at least three classes")
    colors = tuple(tuple(range(i * nu, (i + 1) * nu)) for i in range(ell))
    edges = set()
    for i in range(ell):
        nxt = (i + 1) % ell
        for j in range(nu):
            edges.add(tuple(sorted((colors[i][j], colors[nxt][j]))))
    return ColoredGraph(ell * nu, frozenset(edges), colors)


def path_graph(n: int) -> ColoredGraph:
    return ColoredGraph(n, frozenset((i, i + 1) for i in range(n - 1)))


def star_graph(leaves: int) -> ColoredGraph:
    return ColoredGraph(leaves + 1, frozenset((0, i) for i in range(1, leaves + 1)))
