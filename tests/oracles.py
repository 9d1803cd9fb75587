"""Brute-force references the solvers are checked against.

Each one enumerates its whole search space and shares no search code with
the solver it checks.
"""

import itertools
import math

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
                h = fit_hyperplane_exact(subset)
            except AffineDependenceError:
                continue
            planes.setdefault(h.coeffs, h)
    return [(h, tuple(i for i, rec in enumerate(cloud.records) if h.contains(rec.coords)))
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
