"""Brute-force references the solvers are checked against.

Each one enumerates its whole search space and shares no search code with
the solver it checks.
"""

import itertools
import math
from fractions import Fraction

from flatcover.errors import AffineDependenceError
from flatcover.fitting import best_fit_flat, echelon_row, fit_hyperplane_exact, reduce_row
from flatcover.geometry import WeightedPointCloud


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
                      if h.contains(rec.coords, cloud.den)))
            for _, h in sorted(planes.items())]


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
