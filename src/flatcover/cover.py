"""Exact decision/search for covering rational point sets with k hyperplanes.

Everything here runs in exact integer arithmetic on a rational cloud's int
numerators over its one denominator; membership is equation evaluation with
an exact zero test.  Float clouds are rejected because a zero-budget cover
is meaningless under roundoff.

The search is a depth-first assignment of positions to at most k slots,
tracking each slot's affine hull exactly; a slot stays feasible while its
hull has dimension at most d-1.  Points inside a slot's current hull are
absorbed without branching (dominance), so the branch tree is bounded by
the total hull-dimension budget k*d.  When the remaining positions fit in
the free hull capacity, the first branch is the greedy completion, which
cannot fail, so no separate terminal rule is needed.

Before branching, a counting cut rejects instances where no hyperplane holds
enough positions: k hyperplanes that each hold fewer than n/k of the n
distinct positions cannot cover them.  The cut runs for d <= 3 when
n > k*d (with n <= k*d every slot can take d positions, so a cover exists).
It hashes hyperplanes by gcd-normalised integer keys, one anchor position at
a time, and stops after the first anchor whose hyperplanes include one that
holds ceil(n/k) positions, since the cut cannot fire after that.  For d >= 4
the d-subsets per anchor are too many to hash, so the search runs without
it.  The hashing is not counted against the node guard; instead the cut
runs only when it hashes at most CUT_KEY_LIMIT combinations, and larger
clouds go straight to the guarded search.

The d=2 forced-line kernel, a step of ``solve_cover``, finds its heavy
lines with the same hashing.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Optional, Sequence

from .errors import (
    DimensionMismatchError,
    GuardLimitError,
    IntegrityError,
    ScalarModeError,
)
from .fitting import echelon_row, fit_hyperplane_exact, reduce_row
from .geometry import (
    MODE_RATIONAL,
    CoverSolution,
    Hyperplane,
    WeightedPointCloud,
)
from .util import DEFAULT_NODE_GUARD, resolve_guard

# Cap on the (anchor, d-1 later positions) combinations the counting cut may
# hash, a few seconds of work; above it the cut is skipped.
CUT_KEY_LIMIT = 10**6


def verify_cover(cloud: WeightedPointCloud, hyperplanes: Sequence[Hyperplane]) -> bool:
    """Exact membership test: every position lies on at least one hyperplane."""
    if cloud.mode != MODE_RATIONAL:
        raise ScalarModeError("verify_cover requires a rational-mode cloud")
    for h in hyperplanes:
        if h.dim != cloud.dim:
            raise DimensionMismatchError("hyperplane dimension differs from cloud")
    planes = scaled_planes(hyperplanes, cloud.den)
    return all(any(c + sum(map(operator.mul, normal, pos)) == 0 for c, normal in planes)
               for pos in cloud.distinct_positions())


def scaled_planes(hyperplanes: Sequence[Hyperplane], den: int) -> list:
    """Each plane as (c0*den, normal): the point p/den lies on it exactly when
    c0*den + normal.p == 0.  Dimensions are the caller's to check."""
    return [(h.coeffs[0] * den, h.coeffs[1:]) for h in hyperplanes]


def solve_cover(cloud: WeightedPointCloud, k: int, *, guard: int | None = None,
                kernel: bool = False) -> Optional[CoverSolution]:
    """Cover all positions with at most k hyperplanes, or None if impossible.

    With ``kernel`` (d = 2 only) the forced-line kernel runs first, and the
    cut and the search work on the positions and budget it leaves.  A None
    answer carries the full guarantee that no k hyperplanes cover.  ``guard``
    caps the nodes the search may visit; exceeding it raises
    GuardLimitError.  The kernel's and the cut's hashing do not count as
    nodes; the cut runs only when it hashes at most CUT_KEY_LIMIT
    combinations.  Every returned cover is checked against the whole cloud.
    """
    if cloud.mode != MODE_RATIONAL:
        raise ScalarModeError("solve_cover requires a rational-mode cloud")
    if k < 0:
        raise ValueError("k must be >= 0")
    pts, forced = cloud.distinct_positions(), []
    if kernel:
        if cloud.dim != 2:
            raise DimensionMismatchError("the forced-line kernel requires d = 2")
        kernelized = forced_line_kernel(pts, cloud.den, k)
        if kernelized is None:
            return None
        pts, forced, k = kernelized
    planes = _solve_partition(pts, cloud.den, k, guard) if pts else []
    if planes is None:
        return None
    planes = forced + planes
    if not verify_cover(cloud, planes):
        raise IntegrityError("cover search returned hyperplanes that miss a point")
    return CoverSolution(tuple(planes))


# ---------------------------------------------------------------------------
# integer hyperplane keys and the counting cut


def _plane_key(base, spans):
    """Hash key of the hyperplane through integer point ``base`` along ``spans``.

    ``spans`` holds d-1 integer difference vectors, one for d=2 and two for
    d=3.  The key is (c0, n1..nd) with the normal n coprime, its first nonzero
    entry positive and c0 = -n.base, so each hyperplane has exactly one key.
    Returns None when the spans are linearly dependent.
    """
    if len(spans) == 1:
        (dx, dy), = spans
        normal = (dy, -dx)
    else:
        (u0, u1, u2), (v0, v1, v2) = spans
        normal = (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)
    g = math.gcd(*normal)
    if not g:
        return None
    if next(c for c in normal if c) < 0:
        g = -g
    normal = tuple(c // g for c in normal)
    return (-sum(a * b for a, b in zip(normal, base)), *normal)


def _heavy_planes(pts, size):
    """Each hyperplane through ``size`` or more points, as (key, member indices).

    For d = 2 or 3 and size >= 2.  Each hyperplane its points span is
    yielded once, at its first point, by hashing the hyperplanes through
    that anchor and d-1 later points; anchors with fewer than size-1 later
    points are skipped, so at most C(n, d) - C(size-1, d) combinations are
    hashed.  If an anchor and every later point are collinear (d = 3), any
    plane through their line holds them all: the key is None, and last.
    """
    n = len(pts)
    found = set()
    for a in range(n - size + 1):
        base = pts[a]
        diffs = [tuple(x - y for x, y in zip(p, base)) for p in pts[a + 1:]]
        members: dict[tuple, set] = {}
        for combo in itertools.combinations(range(len(diffs)), len(base) - 1):
            key = _plane_key(base, [diffs[t] for t in combo])
            if key is not None:
                members.setdefault(key, set()).update(combo)
        if not members:
            yield None, set(range(a, n))
            return
        for key, held in members.items():
            if len(held) + 1 >= size and key not in found:
                found.add(key)
                yield key, {a, *(a + 1 + t for t in held)}


# ---------------------------------------------------------------------------
# partition search


def _solve_partition(pts, den, k, guard):
    """At most k hyperplanes through the distinct integer points, or None."""
    if k == 0:
        return None
    n, d = len(pts), len(pts[0])
    target = -(-n // k)
    # The cut's hashing, bounded by its worst case C(n, d) - C(target-1, d).
    if (2 <= d <= 3 and n > k * d
            and math.comb(n, d) - math.comb(target - 1, d) <= CUT_KEY_LIMIT
            and not any(_heavy_planes(pts, target))):
        return None
    cap = resolve_guard(DEFAULT_NODE_GUARD, guard)
    nodes = 0

    # Slot state: (base_index, rows, reps) with rows a tuple of (pivot, row)
    # in echelon form over the integers and reps the indices whose additions
    # grew the hull (at most d of them, pairwise affinely independent).

    def search(i, slots):
        # Recurses only where a slot grows or opens, at most k*d deep.
        nonlocal nodes
        while True:
            nodes += 1
            if nodes > cap:
                raise GuardLimitError(
                    f"instance too large for exact mode: partition-search nodes exceed {cap}")
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
            # Inside a slot's hull: absorbing it is dominant.
            i += 1
        for j, (base, rows, reps) in enumerate(slots):
            if len(rows) < d - 1:
                new_slot = (base, rows + (echelon_row(residuals[j]),), reps + (i,))
                result = search(i + 1, slots[:j] + (new_slot,) + slots[j + 1:])
                if result is not None:
                    return result
        if len(slots) < k:
            result = search(i + 1, slots + ((i, (), ()),))
            if result is not None:
                return result
        return None

    final = search(1, ((0, (), ()),))
    if final is None:
        return None
    planes = []
    for base, rows, reps in final:
        frame = [pts[base]] + [pts[i] for i in reps]
        planes.append(fit_hyperplane_exact(frame, den))
    return planes


# ---------------------------------------------------------------------------
# d=2 kernel


def forced_line_kernel(pts, den, k):
    """Classic quadratic kernel for covering distinct planar points with k lines.

    ``pts`` are int numerators over ``den``.  Repeatedly forces a line
    through at least k+1 of them (k lines cannot otherwise cover them, as
    two lines share at most one point), removing its points and decrementing
    k.  Of the heaviest lines it forces the one with the smallest normalized
    coefficients.  Returns (pts, forced, k) for what remains, or None when
    more than k^2 points remain, which k lines cannot cover.
    """
    forced = []
    while k >= 1:
        # A key's plane c0 + n.p = 0 in the numerators p is c0 + (den*n).x = 0.
        lines = [(-len(m), Hyperplane((c0, den * a, den * b)).coeffs, m)
                 for (c0, a, b), m in _heavy_planes(pts, k + 1)]
        if not lines:
            break
        _, coeffs, members = min(lines)
        forced.append(Hyperplane(coeffs))
        pts = [p for t, p in enumerate(pts) if t not in members]
        k -= 1
    if len(pts) > k * k:
        return None
    return pts, forced, k
