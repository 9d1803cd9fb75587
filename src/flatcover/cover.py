"""Exact decision/search for covering rational point sets with k hyperplanes.

Everything here runs in exact rational arithmetic; membership is equation
evaluation with an exact zero test.  Float clouds are rejected because a
zero-budget cover is meaningless under roundoff.

The search is a depth-first assignment of positions to at most k slots,
tracking each slot's affine hull exactly; a slot stays feasible while its
hull has dimension at most d-1.  Points inside a slot's current hull are
absorbed without branching (dominance), so the branch tree is bounded by
the total hull-dimension budget k*d.  When the remaining positions fit in
the free hull capacity, the first branch is the greedy completion, which
cannot fail, so no separate terminal rule is needed.

``generate_candidates`` enumerates every hyperplane spanned by at most d
positions; it is kept as the reference oracle the tests compare against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    AffineDependenceError,
    DimensionMismatchError,
    GuardLimitError,
    IntegrityError,
    ScalarModeError,
)
from .fitting import echelon_row, fit_hyperplane_exact, integer_points, reduce_row
from .geometry import (
    MODE_RATIONAL,
    CoverSolution,
    Hyperplane,
    WeightedPointCloud,
)
from .util import DEFAULT_CANDIDATE_GUARD, resolve_guard

# Node cap for the partition search; exceeding it raises, never degrades.
PARTITION_NODE_GUARD = 10**7


@dataclass(frozen=True)
class CandidateHyperplane:
    """A candidate plane together with exactly the records lying on it."""

    hyperplane: Hyperplane
    covered: tuple

    def __post_init__(self):
        object.__setattr__(self, "covered", tuple(sorted(self.covered)))


def _require_rational(cloud: WeightedPointCloud, what: str) -> None:
    if cloud.mode != MODE_RATIONAL:
        raise ScalarModeError(f"{what} requires a rational-mode cloud")


def verify_cover(cloud: WeightedPointCloud, hyperplanes: Sequence[Hyperplane]) -> bool:
    """Exact membership test: every position lies on at least one hyperplane."""
    _require_rational(cloud, "verify_cover")
    for h in hyperplanes:
        if h.dim != cloud.dim:
            raise DimensionMismatchError("hyperplane dimension differs from cloud")
    for pos in cloud.distinct_positions():
        if not any(h.contains(pos) for h in hyperplanes):
            return False
    return True


def generate_candidates(cloud: WeightedPointCloud,
                        guard: int | None = None) -> list[CandidateHyperplane]:
    """All hyperplanes spanned by <= d affinely independent distinct positions.

    Complete in the sense that for any hyperplane H, some candidate's covered
    set contains H's covered set (take a maximal affinely independent subset
    of it).  Candidates are deduplicated by normalized coefficient vector.
    """
    _require_rational(cloud, "generate_candidates")
    positions = cloud.distinct_positions()
    d = cloud.dim
    n = len(positions)
    cap = resolve_guard(DEFAULT_CANDIDATE_GUARD, guard)
    if n > 1 and n ** d > cap:
        raise GuardLimitError(
            f"instance too large for exact mode: n^d = {n ** d} exceeds guard {cap}")
    seen: dict[tuple, Hyperplane] = {}
    for size in range(1, min(d, n) + 1):
        for subset in itertools.combinations(range(n), size):
            try:
                h = fit_hyperplane_exact([positions[i] for i in subset])
            except AffineDependenceError:
                continue
            seen.setdefault(h.coeffs, h)
    out = []
    for h in seen.values():
        covered = tuple(i for i, rec in enumerate(cloud.records)
                        if h.contains(rec.coords))
        out.append(CandidateHyperplane(h, covered))
    out.sort(key=lambda c: c.hyperplane.coeffs)
    return out


def solve_cover(cloud: WeightedPointCloud, k: int, *,
                guard: int | None = None) -> Optional[CoverSolution]:
    """Cover all positions with at most k hyperplanes, or None if impossible.

    A None answer carries the full guarantee that no k hyperplanes cover:
    the search explores its space exhaustively.  ``guard`` caps the nodes it
    may visit; exceeding it raises GuardLimitError.
    """
    _require_rational(cloud, "solve_cover")
    if k < 0:
        raise ValueError("k must be >= 0")
    positions = cloud.distinct_positions()
    if not positions:
        return CoverSolution(())
    if k == 0:
        return None
    planes = _solve_partition(positions, cloud.dim, k, guard)
    if planes is None:
        return None
    if not verify_cover(cloud, planes):
        raise IntegrityError("cover search returned hyperplanes that miss a point")
    return CoverSolution(tuple(planes))


# ---------------------------------------------------------------------------
# partition search


def _solve_partition(positions, d, k, guard):
    pts = integer_points(positions)
    n = len(pts)
    cap = resolve_guard(PARTITION_NODE_GUARD, guard)
    nodes = 0

    # Slot state: (base_index, rows, reps) with rows a tuple of (pivot, row)
    # in echelon form over the integers and reps the indices whose additions
    # grew the hull (at most d of them, pairwise affinely independent).

    def search(i, slots):
        nonlocal nodes
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
                # Inside this slot's hull: absorbing it is dominant.
                return search(i + 1, slots)
            residuals.append(v)
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
        frame = [positions[base]] + [positions[i] for i in reps]
        planes.append(fit_hyperplane_exact(frame))
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
    positions = cloud.distinct_positions()
    forced: list[Hyperplane] = []
    k_cur = k
    while k_cur >= 1 and len(positions) >= 2:
        counts: dict[tuple, set] = {}
        for i, j in itertools.combinations(range(len(positions)), 2):
            h = fit_hyperplane_exact([positions[i], positions[j]])
            counts.setdefault(h.coeffs, set()).update((i, j))
        best = None
        for coeffs, members in counts.items():
            if len(members) >= k_cur + 1:
                key = (-len(members), coeffs)
                if best is None or key < best[0]:
                    best = (key, coeffs, members)
        if best is None:
            break
        _, coeffs, members = best
        forced.append(Hyperplane(coeffs))
        positions = [p for t, p in enumerate(positions) if t not in members]
        k_cur -= 1
    if len(positions) > k_cur * k_cur:
        return None
    kept = set(positions)
    reduced_records = tuple(r for r in cloud.records if r.coords in kept)
    reduced = WeightedPointCloud(cloud.dim, cloud.mode, reduced_records)
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
