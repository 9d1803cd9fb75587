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
holds ceil(n/k) positions, since the cut cannot fire after that.  For d = 2
each anchor's later positions are bucketed by their gcd-normalised direction
from it, one gcd per pair; for d = 3 each pair of later positions is hashed.
For d >= 4 the d-subsets per anchor are too many to hash, so the search runs
without it.  The hashing is not counted against the node guard; instead the
cut runs only when it hashes at most CUT_KEY_LIMIT combinations, and larger
clouds go straight to the guarded search.

For d = 2 the same hashing builds a table of every line through three or
more positions, and the search applies a count bound at each node where it
would branch: the lines its slots can still become must hold every position
not on a slot's line already.  The table is built at the search's first
failed branch, so a greedy descent that succeeds never pays for it.  The
bound drops only subtrees that hold no cover, so the depth-first search
reaches the same first cover and returns the same hyperplanes.  For d = 3
a plane through a long collinear run is never keyed (every triple on it is
collinear), so no such per-node count is kept there.

The d=2 forced-line kernel, a step of ``solve_cover``, builds the same
table on its own positions and forces its lines from it.
"""

from __future__ import annotations

import heapq
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

# Cap on the (anchor, d-1 later positions) combinations the counting cut or
# the d = 2 line table may hash, a few seconds of work; above it both are
# skipped.
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
    GuardLimitError.  Hashing hyperplanes, for the kernel, the cut or the
    d = 2 line table the search's count bound reads, does not count as
    nodes; the cut and the table are built only when they hash at most
    CUT_KEY_LIMIT combinations.  The count bound drops only subtrees that
    hold no cover, so it changes which nodes are visited but not the cover
    returned.  Every returned cover is checked against the whole cloud.
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
# integer hyperplane keys, the counting cut and the d=2 line table


def _plane_key(base, spans):
    """Hash key of the plane through integer point ``base`` along two spans.

    ``spans`` holds two integer difference vectors in 3-D.  The key is
    (c0, n1, n2, n3) with the normal n coprime, its first nonzero entry
    positive and c0 = -n.base, so each plane has exactly one key.  Returns
    None when the spans are linearly dependent.
    """
    (u0, u1, u2), (v0, v1, v2) = spans
    normal = (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)
    g = math.gcd(*normal)
    if not g:
        return None
    if next(c for c in normal if c) < 0:
        g = -g
    normal = tuple(c // g for c in normal)
    return (-sum(a * b for a, b in zip(normal, base)), *normal)


def _lines_from(pts, a, size):
    """The lines through planar point ``pts[a]`` and size-1 or more later
    points, as {key: later indices}.

    Each later point is bucketed by its direction from the anchor, scaled
    to the coprime normal (dy, -dx) whose first nonzero entry is positive,
    the convention of _plane_key and Hyperplane.  The key is (c0, n1, n2)
    with c0 = -n.anchor, so each line has exactly one key.
    """
    bx, by = pts[a]
    held: dict[tuple, list] = {}
    for t, (x, y) in enumerate(pts[a + 1:], a + 1):
        dx, dy = x - bx, y - by
        g = math.gcd(dx, dy)
        if dy < 0 or not dy and dx > 0:
            g = -g
        held.setdefault((dy // g, -dx // g), []).append(t)
    return {(-na * bx - nb * by, na, nb): later
            for (na, nb), later in held.items() if len(later) + 1 >= size}


def _planes_from(pts, a):
    """The planes through 3-D point ``pts[a]`` and two later points, as
    {key: later indices}; empty when every later point is collinear with
    the anchor."""
    base = pts[a]
    diffs = [tuple(x - y for x, y in zip(p, base)) for p in pts[a + 1:]]
    held: dict[tuple, set] = {}
    for s, t in itertools.combinations(range(len(diffs)), 2):
        key = _plane_key(base, [diffs[s], diffs[t]])
        if key is not None:
            held.setdefault(key, set()).update((a + 1 + s, a + 1 + t))
    return held


def _hashed(n, d, size):
    """Worst-case combinations _heavy_planes(pts, size) hashes on n points."""
    return math.comb(n, d) - math.comb(size - 1, d)


def _heavy_planes(pts, size):
    """Each hyperplane through ``size`` or more points, as (key, member indices).

    For d = 2 or 3 and size >= 2.  Each hyperplane its points span is
    yielded once, at its first point, by hashing the hyperplanes through
    that anchor and d-1 later points: for d = 2 each later point is
    bucketed by its direction (_lines_from), for d = 3 each pair of later
    points is keyed (_plane_key).  Anchors with fewer than size-1 later
    points are skipped, so at most C(n, d) - C(size-1, d) combinations are
    hashed.  If an anchor and every later point are collinear (d = 3), any
    plane through their line holds them all: the key is None, and last.
    The counting cut stops at the first hyperplane yielded; the d = 2 line
    table takes every one with size 3.
    """
    n = len(pts)
    found = set()
    for a in range(n - size + 1):
        if len(pts[a]) == 2:
            held = _lines_from(pts, a, size)
        else:
            held = _planes_from(pts, a)
            if not held:
                yield None, set(range(a, n))
                return
        for key, later in held.items():
            if len(later) + 1 >= size and key not in found:
                found.add(key)
                yield key, [a, *later]


def _line_table(pts):
    """Every line through three or more of the planar points, as
    (key, member indices), the ones holding most points first."""
    return sorted(_heavy_planes(pts, 3), key=lambda line: -len(line[1]))


def _bitmask(indices):
    return sum(1 << t for t in indices)


def _count_bound(pts, k):
    """The d = 2 count bound, as cut(i, slots): True when no k lines extend
    the slots to a cover of the positions from i on.

    U is the set of positions from i on that lie on no line slot's line;
    the search absorbs the others.  A slot holding one point b (b < i, so
    b is not in U) becomes a line through b.  That line holds at most
    max(1, |l & U|) positions of U over the table lines l through b, since
    a line missing from the table holds b and one other position at most.
    The f free slots become f lines, holding at most the f largest |l & U|
    over the table, with 2 for each line missing from it.  No cover extends
    the slots when these add up to less than |U|.
    """
    masks, through = [], [[] for _ in pts]
    for _, held in _line_table(pts):
        mask = _bitmask(held)
        masks.append((len(held), mask))
        for t in held:
            through[t].append(mask)
    full = (1 << len(pts)) - 1

    def cut(i, slots):
        on_lines, bases = 0, []
        for base, rows, reps in slots:
            if rows:
                # A line missing from the table holds base and reps[0] only.
                on_lines |= next((m for m in through[base] if m >> reps[0] & 1), 0)
            else:
                bases.append(base)
        left = full >> i << i & ~on_lines
        need = left.bit_count()
        for b in bases:
            need -= max(1, max(((m & left).bit_count() for m in through[b]), default=1))
        free = k - len(slots)
        if need <= 2 * free:
            return False
        if not free:
            return True
        # A heap of the f largest counts, padded with 2s.  The table is
        # heaviest first, so once a line holds no more positions than the
        # least of them, no later line can enter.
        top = [2] * free
        for size, mask in masks:
            if size <= top[0]:
                break
            count = (mask & left).bit_count()
            if count > top[0]:
                heapq.heapreplace(top, count)
        return sum(top) < need

    return cut


# ---------------------------------------------------------------------------
# partition search


def _solve_partition(pts, den, k, guard):
    """At most k hyperplanes through the distinct integer points, or None."""
    if k == 0:
        return None
    n, d = len(pts), len(pts[0])
    target = -(-n // k)
    if (2 <= d <= 3 and n > k * d and _hashed(n, d, target) <= CUT_KEY_LIMIT
            and not any(_heavy_planes(pts, target))):
        return None
    bounded = d == 2 and n > k * d and _hashed(n, 2, 3) <= CUT_KEY_LIMIT
    bound = None
    cap = resolve_guard(DEFAULT_NODE_GUARD, guard)
    nodes = 0

    # Slot state: (base_index, rows, reps) with rows a tuple of (pivot, row)
    # in echelon form over the integers and reps the indices whose additions
    # grew the hull (at most d of them, pairwise affinely independent).

    def search(i, slots):
        # Recurses only where a slot grows or opens, at most k*d deep.
        nonlocal nodes, bound
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
        if bound is not None and bound(i, slots):
            return None
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
        # The first failed branch: from here on the bound pays for its table.
        if bound is None and bounded:
            bound = _count_bound(pts, k)
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

    The lines come from one table of every line through three or more
    points, counted against the points left in each round.  A line through
    two points only matters at k = 1 with exactly those two left, and is
    then the line through them.
    """
    forced, left = [], (1 << len(pts)) - 1
    # A key's plane c0 + n.p = 0 in the numerators p is c0 + (den*n).x = 0.
    lines = [(Hyperplane((c0, den * a, den * b)).coeffs, _bitmask(held))
             for (c0, a, b), held in _line_table(pts)] if k >= 1 else []
    while k >= 1:
        if k == 1 and left.bit_count() == 2:
            forced.append(fit_hyperplane_exact(
                [p for t, p in enumerate(pts) if left >> t & 1], den))
            left, k = 0, 0
            break
        count, coeffs, mask = min(((-(m & left).bit_count(), c, m) for c, m in lines),
                                  default=(0, None, 0))
        if -count < k + 1:
            break
        forced.append(Hyperplane(coeffs))
        left &= ~mask
        k -= 1
    if left.bit_count() > k * k:
        return None
    return [p for t, p in enumerate(pts) if left >> t & 1], forced, k
