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
a time, and stops at the first hyperplane that holds ceil(n/k) positions,
since the cut cannot fire after that.  For d >= 4 the d-subsets per anchor
are too many to hash, so the search runs without it.  The hashing is not
counted against the node guard; instead the cut runs only when it hashes at
most CUT_KEY_LIMIT combinations, and larger clouds go straight to the
guarded search.  The same keys group point pairs into lines in the d=2
forced-line kernel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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


def _require_rational(cloud: WeightedPointCloud, what: str) -> None:
    if cloud.mode != MODE_RATIONAL:
        raise ScalarModeError(f"{what} requires a rational-mode cloud")


def verify_cover(cloud: WeightedPointCloud, hyperplanes: Sequence[Hyperplane]) -> bool:
    """Exact membership test: every position lies on at least one hyperplane."""
    _require_rational(cloud, "verify_cover")
    for h in hyperplanes:
        if h.dim != cloud.dim:
            raise DimensionMismatchError("hyperplane dimension differs from cloud")
    den = cloud.den
    for pos in cloud.distinct_positions():
        if not any(h.contains(pos, den) for h in hyperplanes):
            return False
    return True


def solve_cover(cloud: WeightedPointCloud, k: int, *,
                guard: int | None = None) -> Optional[CoverSolution]:
    """Cover all positions with at most k hyperplanes, or None if impossible.

    A None answer carries the full guarantee that no k hyperplanes cover:
    either the counting cut shows that no hyperplane holds n/k of the n
    distinct positions (checked for d <= 3 and n > k*d, stopping at the first
    hyperplane that holds enough), or the search explores its space
    exhaustively.  ``guard`` caps the nodes the search may visit; exceeding
    it raises GuardLimitError.  The cut's hashing does not count as nodes;
    it runs only when it hashes at most CUT_KEY_LIMIT combinations.
    """
    _require_rational(cloud, "solve_cover")
    if k < 0:
        raise ValueError("k must be >= 0")
    positions = cloud.distinct_positions()
    if not positions:
        return CoverSolution(())
    if k == 0:
        return None
    planes = _solve_partition(positions, cloud.den, k, guard)
    if planes is None:
        return None
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


def _some_plane_holds(pts, target):
    """Whether some hyperplane holds ``target`` of the distinct integer points.

    For d = 2 or 3 and target > d.  A hyperplane holding the most points is
    spanned by d of them, so it suffices to hash the hyperplanes through
    each anchor and d-1 later points; anchoring at the hyperplane's first
    point finds all its members.  Anchors with fewer than target-1 later
    points cannot reach the target and are skipped, so at most
    C(n, d) - C(target-1, d) combinations are hashed.
    """
    n, d = len(pts), len(pts[0])
    for a in range(n - target + 1):
        base = pts[a]
        diffs = [tuple(x - y for x, y in zip(p, base)) for p in pts[a + 1:]]
        members: dict[tuple, set] = {}
        for combo in itertools.combinations(range(len(diffs)), d - 1):
            key = _plane_key(base, [diffs[t] for t in combo])
            if key is None:
                continue
            held = members.setdefault(key, set())
            held.update(combo)
            if len(held) + 1 >= target:
                return True
        if not members:
            # The anchor and every later point are collinear: a plane
            # through their line holds all n - a >= target of them.
            return True
    return False


# ---------------------------------------------------------------------------
# partition search


def _solve_partition(pts, den, k, guard):
    n, d = len(pts), len(pts[0])
    target = -(-n // k)
    # The cut's hashing, bounded by its worst case C(n, d) - C(target-1, d).
    if (2 <= d <= 3 and n > k * d
            and math.comb(n, d) - math.comb(target - 1, d) <= CUT_KEY_LIMIT
            and not _some_plane_holds(pts, target)):
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

    final = search(1, ((0, (), ()),)) if n else ()
    if final is None:
        return None
    planes = []
    for base, rows, reps in final:
        frame = [pts[base]] + [pts[i] for i in reps]
        planes.append(fit_hyperplane_exact(frame, den))
    return planes


# ---------------------------------------------------------------------------
# d=2 kernel


@dataclass(frozen=True)
class KernelResult:
    reduced: WeightedPointCloud
    forced: tuple
    k: int


def forced_line_kernel(cloud: WeightedPointCloud, k: int) -> Optional[KernelResult]:
    """Classic quadratic kernel for covering planar points with k lines.

    Repeatedly forces any line through at least k+1 distinct positions (k
    lines cannot otherwise cover them, as two lines share at most one point),
    removing its positions and decrementing k.  Afterwards more than k^2
    positions left means NO; otherwise the reduced instance together with the
    forced lines is equivalent to the original.
    """
    _require_rational(cloud, "forced_line_kernel")
    if cloud.dim != 2:
        raise DimensionMismatchError("forced_line_kernel requires d = 2")
    if k < 0:
        raise ValueError("k must be >= 0")
    pts = cloud.distinct_positions()
    forced: list[Hyperplane] = []
    k_cur = k
    while k_cur >= 1 and len(pts) >= 2:
        lines: dict[tuple, set] = {}
        for (i, p), (j, q) in itertools.combinations(enumerate(pts), 2):
            key = _plane_key(p, [(q[0] - p[0], q[1] - p[1])])
            lines.setdefault(key, set()).update((i, j))
        most = max(map(len, lines.values()))
        if most < k_cur + 1:
            break
        # Force a line with the most members; ties go to the smallest
        # normalized coefficients, so only those lines need a Hyperplane.
        heaviest = {fit_hyperplane_exact([pts[i] for i in sorted(m)[:2]], cloud.den).coeffs: m
                    for m in lines.values() if len(m) == most}
        coeffs = min(heaviest)
        members = heaviest[coeffs]
        forced.append(Hyperplane(coeffs))
        pts = [p for t, p in enumerate(pts) if t not in members]
        k_cur -= 1
    if len(pts) > k_cur * k_cur:
        return None
    kept = set(pts)
    reduced_records = tuple(r for r in cloud.records if r.coords in kept)
    reduced = WeightedPointCloud(cloud.dim, cloud.mode, reduced_records, cloud.den)
    return KernelResult(reduced, tuple(forced), k_cur)


def solve_cover_kernelized(cloud: WeightedPointCloud, k: int,
                           *, guard: int | None = None) -> Optional[CoverSolution]:
    """Kernel + search; answers agree with plain solve_cover on every instance."""
    kr = forced_line_kernel(cloud, k)
    if kr is None:
        return None
    if not kr.reduced.records:
        return CoverSolution(kr.forced)
    inner = solve_cover(kr.reduced, kr.k, guard=guard)
    if inner is None:
        return None
    return CoverSolution(kr.forced + inner.hyperplanes)
