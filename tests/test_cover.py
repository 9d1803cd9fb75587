import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcover import cover
from flatcover.cover import forced_line_kernel, solve_cover, verify_cover
from flatcover.errors import GuardLimitError, IntegrityError, ScalarModeError
from flatcover.fitting import fit_hyperplane_exact
from flatcover.geometry import MODE_FLOAT, MODE_RATIONAL, Hyperplane, WeightedPointCloud
from flatcover.util import make_rng
from oracles import (
    cover_oracle,
    fraction_covers,
    fraction_positions,
    generate_candidates,
    integer_plane,
    on_plane,
    slot_search_oracle,
)


def rcloud(points):
    return WeightedPointCloud.create(points, MODE_RATIONAL)


def grid3x3():
    return rcloud([(x, y) for x in range(3) for y in range(3)])


def test_verify_cover_basic():
    cloud = rcloud([(0, 0), (1, 1), (2, 2)])
    line = fit_hyperplane_exact([(0, 0), (1, 1)])
    assert verify_cover(cloud, [line])
    assert not verify_cover(cloud, [fit_hyperplane_exact([(0, 0), (1, 0)])])


def test_verify_cover_rejects_float():
    cloud = WeightedPointCloud.create([(0.0, 0.0)], MODE_FLOAT)
    with pytest.raises(ScalarModeError):
        verify_cover(cloud, [])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_verify_cover_matches_substitution_oracle(seed):
    rng = np.random.default_rng(seed)
    pts = [tuple(int(c) for c in p) for p in rng.integers(-4, 5, size=(6, 2))]
    cloud = rcloud(set(pts))
    planes = [fit_hyperplane_exact([pts[0], pts[1]]) if pts[0] != pts[1]
              else fit_hyperplane_exact([pts[0]])]
    assert verify_cover(cloud, planes) == fraction_covers(cloud, planes)


def test_candidates_three_noncollinear_points():
    cloud = rcloud([(0, 0), (1, 2), (3, 1)])
    cands = generate_candidates(cloud)
    # 3 pair-lines plus 3 singleton completions (horizontal per the e1 rule).
    assert len(cands) == 6
    horizontals = [h for h, _ in cands if h.coeffs[1] == 0]
    assert len(horizontals) == 3


def test_candidates_collinear_points_deduplicate():
    cloud = rcloud([(0, 0), (1, 1), (2, 2)])
    cands = generate_candidates(cloud)
    on_line = [h for h, covered in cands if len(covered) == 3]
    assert len(on_line) == 1
    assert on_line[0].coeffs == (0, 1, -1)


def test_candidates_coplanar_points_in_3d():
    pts = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (2, 3, 1)]
    cands = generate_candidates(rcloud(pts))
    full = [h for h, covered in cands if len(covered) == 4]
    assert any(h.coeffs == (-1, 0, 0, 1) for h in full)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_candidate_completeness(seed):
    rng = np.random.default_rng(seed)
    pts = {tuple(int(c) for c in p) for p in rng.integers(-3, 4, size=(7, 2))}
    cloud = rcloud(pts)
    cands = generate_candidates(cloud)
    positions = cloud.distinct_positions()
    # Any line through >= 2 input points is dominated by some candidate.
    for a, b in itertools.combinations(positions, 2):
        h = fit_hyperplane_exact([a, b])
        covered = {p for p in positions if on_plane(h, p)}
        assert any(covered <= {cloud.records[i].coords for i in on}
                   for _, on in cands)


def test_grid_cover_answers():
    g = grid3x3()
    yes = solve_cover(g, 3)
    assert yes is not None and len(yes.hyperplanes) <= 3
    assert verify_cover(g, yes.hyperplanes)
    assert solve_cover(g, 2) is None


def test_cover_k_at_least_positions():
    cloud = rcloud([(0, 0), (5, 7), (1, 3)])
    sol = solve_cover(cloud, 3)
    assert sol is not None
    assert verify_cover(cloud, sol.hyperplanes)


def test_cover_empty_cloud():
    cloud = WeightedPointCloud(2, MODE_RATIONAL, ())
    sol = solve_cover(cloud, 0)
    assert sol is not None and sol.hyperplanes == ()


def test_cover_k0_nonempty_is_no():
    assert solve_cover(rcloud([(0, 0)]), 0) is None


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_cover_matches_oracle(seed, k):
    rng = np.random.default_rng(seed)
    pts = {tuple(int(c) for c in p) for p in rng.integers(-3, 4, size=(8, 2))}
    cloud = rcloud(pts)
    got = solve_cover(cloud, k)
    assert (got is not None) == cover_oracle(cloud, k)
    if got is not None:
        assert len(got.hyperplanes) <= k
        assert verify_cover(cloud, got.hyperplanes)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_strategies_agree(seed, k):
    # The partition search and candidate enumeration (the oracle) give the same answer.
    rng = np.random.default_rng(seed)
    pts = {tuple(int(c) for c in p) for p in rng.integers(-4, 5, size=(9, 2))}
    cloud = rcloud(pts)
    got = solve_cover(cloud, k)
    assert (got is not None) == cover_oracle(cloud, k)
    if got is not None:
        assert verify_cover(cloud, got.hyperplanes)


def test_cover_monotone_in_k():
    rng = np.random.default_rng(4)
    pts = {tuple(int(c) for c in p) for p in rng.integers(-4, 5, size=(9, 2))}
    cloud = rcloud(pts)
    answers = [solve_cover(cloud, k) is not None for k in range(0, 6)]
    for prev, nxt in zip(answers, answers[1:]):
        assert not (prev and not nxt)


def test_planted_cover_soundness():
    rng = np.random.default_rng(8)
    lines = [fit_hyperplane_exact([(0, 0), (1, 3)]),
             fit_hyperplane_exact([(0, 5), (1, 5)])]
    pts = set()
    for t in range(1, 7):
        pts.add((t, 3 * t))  # on the first line
        pts.add((t, 5))      # on the second
    cloud = rcloud(pts)
    sol = solve_cover(cloud, 2)
    assert sol is not None
    assert verify_cover(cloud, sol.hyperplanes)


def test_cover_3d_two_planes():
    # Two planes, z = 0 and z = 1, six points each in general position.
    pts = []
    rng = np.random.default_rng(2)
    for z in (0, 1):
        for _ in range(6):
            pts.append((int(rng.integers(-9, 10)), int(rng.integers(-9, 10)), z))
    cloud = rcloud(set(pts))
    sol = solve_cover(cloud, 2)
    assert sol is not None
    assert verify_cover(cloud, sol.hyperplanes)
    assert solve_cover(cloud, 1) is None


def test_cover_node_guard():
    # Moment-curve points: no d+1 of them lie on one hyperplane, so n = k*d
    # points need all k slots filled to capacity.  The search reaches YES in
    # exactly n nodes, and one node less must raise rather than answer NO.
    for d, k in ((2, 4), (3, 3)):
        n = k * d
        cloud = rcloud([tuple(t ** e for e in range(1, d + 1)) for t in range(1, n + 1)])
        sol = solve_cover(cloud, k, guard=n)
        assert sol is not None and verify_cover(cloud, sol.hyperplanes)
        with pytest.raises(GuardLimitError):
            solve_cover(cloud, k, guard=n - 1)


def test_cover_integrity_check(monkeypatch):
    cloud = rcloud([(0, 0), (1, 1), (2, 0)])
    miss = fit_hyperplane_exact([(0, 0), (1, 1)])
    monkeypatch.setattr(cover, "_solve_partition", lambda *args: [miss])
    with pytest.raises(IntegrityError):
        solve_cover(cloud, 1)


def grid_heavy_cloud(rng, d):
    """A cloud drawn mostly from a small grid, so many of its points are
    collinear (d = 2) or coplanar (d = 3), plus a point or two off the grid."""
    side = 4 if d == 2 else 3
    grid = list(itertools.product(range(side), repeat=d))
    n = int(rng.integers(2 * d + 1, 13 if d == 2 else 12))
    pts = {grid[i] for i in rng.choice(len(grid), size=n, replace=False)}
    for _ in range(int(rng.integers(0, 3))):
        pts.add(tuple(int(c) for c in rng.integers(-9, 10, size=d)))
    return rcloud(pts)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3]))
def test_cover_matches_oracle_on_grid_heavy_clouds(seed, d):
    # The counting cut must never turn one of these YES instances into a NO.
    cloud = grid_heavy_cloud(np.random.default_rng(seed), d)
    for k in range(1, 5):
        got = solve_cover(cloud, k)
        assert (got is not None) == cover_oracle(cloud, k), k
        if got is not None:
            assert len(got.hyperplanes) <= k
            assert verify_cover(cloud, got.hyperplanes)


@pytest.mark.parametrize("d,n,k", [(2, 15, 7), (3, 13, 4)])
def test_counting_cut_answers_general_position_no_at_guard_1(d, n, k):
    # Moment-curve points: no d+1 lie on one hyperplane, so every hyperplane
    # holds at most d < n/k of them and the cut answers before any node.
    cloud = rcloud([tuple(t ** e for e in range(1, d + 1)) for t in range(1, n + 1)])
    assert solve_cover(cloud, k, guard=1) is None
    assert solve_cover(cloud, k + 1) is not None


@pytest.mark.parametrize("d,n,k", [(2, 15, 7), (3, 13, 4)])
def test_counting_cut_hashing_is_capped(monkeypatch, d, n, k):
    # With no plane reaching the target the cut hashes exactly
    # C(n, d) - C(target-1, d) combinations: for d = 2 the pairs of an anchor
    # and a later point, each bucketed by its direction, and for d = 3 the
    # _plane_key calls.  Above CUT_KEY_LIMIT it is skipped, and the node
    # guard bounds the search that runs instead.
    cloud = rcloud([tuple(t ** e for e in range(1, d + 1)) for t in range(1, n + 1)])
    keys = math.comb(n, d) - math.comb(-(-n // k) - 1, d)
    hashed = 0
    if d == 2:
        lines_from = cover._lines_from

        def counting_lines_from(pts, a, size):
            nonlocal hashed
            hashed += len(pts) - 1 - a
            return lines_from(pts, a, size)

        monkeypatch.setattr(cover, "_lines_from", counting_lines_from)
    else:
        plane_key = cover._plane_key

        def counting_plane_key(base, spans):
            nonlocal hashed
            hashed += 1
            return plane_key(base, spans)

        monkeypatch.setattr(cover, "_plane_key", counting_plane_key)
    monkeypatch.setattr(cover, "CUT_KEY_LIMIT", keys)
    assert solve_cover(cloud, k, guard=1) is None
    assert hashed == keys
    monkeypatch.setattr(cover, "CUT_KEY_LIMIT", keys - 1)
    with pytest.raises(GuardLimitError):
        solve_cover(cloud, k, guard=1)
    assert hashed == keys


def test_counting_cut_keeps_collinear_3d_clouds():
    # Every point on one line: the cut's plane hashing sees no plane spanned
    # by three points, yet a single plane holds them all.
    cloud = rcloud([(t, 2 * t, 3 * t) for t in range(7)])
    for k in (1, 2):
        sol = solve_cover(cloud, k)
        assert sol is not None and verify_cover(cloud, sol.hyperplanes)


def reference_kernel(cloud, k):
    """The forced-line kernel with one exact Fraction line per point pair,
    scaled to integers: the oracle the integer line hashing in
    forced_line_kernel must match.  The remaining positions come back as
    Fraction coordinates."""
    positions = fraction_positions(cloud)
    forced = []
    k_cur = k
    while k_cur >= 1 and len(positions) >= 2:
        counts = {}
        for i, j in itertools.combinations(range(len(positions)), 2):
            (px, py), (qx, qy) = positions[i], positions[j]
            h = integer_plane((qx * py - px * qy, qy - py, px - qx))
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
    return positions, forced, k_cur


def kernel(cloud, k):
    """forced_line_kernel on a cloud's distinct positions."""
    return forced_line_kernel(cloud.distinct_positions(), cloud.den, k)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 4), st.booleans())
def test_kernel_matches_fraction_reference(seed, k, rational):
    rng = np.random.default_rng(seed)
    pts = set()
    for _ in range(int(rng.integers(1, 5))):
        base = rng.integers(-20, 21, size=2)
        step = rng.integers(-3, 4, size=2)
        for t in rng.integers(-8, 9, size=int(rng.integers(1, 8))):
            pts.add(tuple(int(b + t * s) for b, s in zip(base, step)))
    if rational:
        den = [int(v) for v in rng.integers(1, 6, size=2)]
        pts = {(Fraction(x, den[0]), Fraction(y, den[1])) for x, y in pts}
    cloud = rcloud(pts)
    got = kernel(cloud, k)
    expect = reference_kernel(cloud, k)
    if expect is None:
        assert got is None
    else:
        left, forced, k_left = got
        assert ([tuple(Fraction(c, cloud.den) for c in p) for p in left],
                forced, k_left) == expect


def test_kernel_forces_heavy_line():
    pts = [(i, 0) for i in range(5)] + [(0, 3), (2, 7)]
    kr = kernel(rcloud(pts), 2)
    assert kr is not None
    remaining, forced, _ = kr
    assert Hyperplane((0, 0, 1)) in forced  # the line y = 0
    assert all(p[1] != 0 for p in remaining)


def test_kernel_grid_trace():
    kr = kernel(grid3x3(), 2)
    assert kr is None  # forcing cascades to k=0 with points left over
    assert solve_cover(grid3x3(), 2) is None
    assert solve_cover(grid3x3(), 2, kernel=True) is None


def test_kernel_empty_cloud():
    kr = forced_line_kernel([], 1, 2)
    assert kr is not None
    remaining, forced, _ = kr
    assert forced == [] and remaining == []
    empty = WeightedPointCloud(2, MODE_RATIONAL, ())
    assert solve_cover(empty, 2, kernel=True) == solve_cover(empty, 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_kernel_soundness(seed, k):
    rng = np.random.default_rng(seed)
    pts = {tuple(int(c) for c in p) for p in rng.integers(-3, 4, size=(10, 2))}
    cloud = rcloud(pts)
    direct = solve_cover(cloud, k)
    viakernel = solve_cover(cloud, k, kernel=True)
    assert (direct is None) == (viakernel is None)
    if viakernel is not None:
        assert len(viakernel.hyperplanes) <= k
        assert verify_cover(cloud, viakernel.hyperplanes)


def test_kernel_lines_are_checked_against_the_cloud(monkeypatch):
    # Five points on y = 0 force that line; a kernel that forces y = 1
    # instead leaves them uncovered, and solve_cover must not return it.
    cloud = rcloud([(i, 0) for i in range(5)] + [(0, 3)])
    assert solve_cover(cloud, 2, kernel=True) is not None

    def wrong_kernel(pts, den, k):
        return [(0, 3)], [Hyperplane((-1, 0, 1))], k - 1

    monkeypatch.setattr(cover, "forced_line_kernel", wrong_kernel)
    with pytest.raises(IntegrityError):
        solve_cover(cloud, 2, kernel=True)


def few_lines_cloud(rng):
    """One to three random lines with three to five integer points each, plus
    three to six points that may lie on none of them, so that covers often
    need lines through two points only."""
    pts = set()
    for _ in range(int(rng.integers(1, 4))):
        base = rng.integers(-20, 21, size=2)
        step = rng.integers(-3, 4, size=2)
        for t in rng.choice(np.arange(-8, 9), size=int(rng.integers(3, 6)), replace=False):
            pts.add(tuple(int(b + t * s) for b, s in zip(base, step)))
    for _ in range(int(rng.integers(3, 7))):
        pts.add(tuple(int(c) for c in rng.integers(-30, 31, size=2)))
    return rcloud(pts)


def oracle_cover(cloud, k, with_kernel):
    """The Fraction kernel, when asked for, then the unpruned slot search."""
    pts, forced = cloud.distinct_positions(), []
    if with_kernel:
        kernelized = reference_kernel(cloud, k)
        if kernelized is None:
            return None
        left, forced, k = kernelized
        pts = [tuple(int(c * cloud.den) for c in p) for p in left]
    planes = slot_search_oracle(pts, cloud.den, k) if pts else []
    return None if planes is None else forced + planes


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.booleans())
def test_count_bound_keeps_slot_search_witnesses(seed, on_lines, with_kernel):
    # The count bound drops only subtrees that hold no cover, so the search
    # returns the unpruned search's first cover, hyperplane for hyperplane.
    rng = np.random.default_rng(seed)
    cloud = few_lines_cloud(rng) if on_lines else grid_heavy_cloud(rng, 2)
    for k in range(1, 6):
        got = solve_cover(cloud, k, kernel=with_kernel)
        expect = oracle_cover(cloud, k, with_kernel)
        assert (None if got is None else list(got.hyperplanes)) == expect, k


def lines_points(rng, k, per_line):
    """k distinct lines in the plane with per_line distinct integer points
    each (perfbench's cover generator)."""
    lines = []
    while len(lines) < k:
        base = tuple(int(v) for v in rng.integers(-60, 61, size=2))
        dx, dy = (int(v) for v in rng.integers(-6, 7, size=2))
        if dx == 0 and dy == 0:
            continue
        g = math.gcd(dx, dy)
        dx, dy = dx // g, dy // g
        if dx < 0 or (dx == 0 and dy < 0):
            dx, dy = -dx, -dy
        key = (dx, dy, dy * base[0] - dx * base[1])
        if key in {ln[0] for ln in lines}:
            continue
        ts = rng.choice(np.arange(-25, 26), size=per_line, replace=False)
        pts = [(base[0] + int(t) * dx, base[1] + int(t) * dy) for t in ts]
        lines.append((key, pts))
    return lines


def eight_lines_cloud(seed):
    return rcloud(sorted({p for _, line in lines_points(make_rng(seed), 8, 4) for p in line}))


@pytest.mark.parametrize("seed", range(10))
def test_eight_lines_of_four_answer_within_guard(seed):
    # 32 points on 8 lines: 8 lines cover them, 7 do not.  Without a count
    # below the root, seed 0 with k = 8 needs more than 2000 nodes.
    cloud = eight_lines_cloud(seed)
    sol = solve_cover(cloud, 8, guard=2000)
    assert sol is not None and verify_cover(cloud, sol.hyperplanes)
    assert solve_cover(cloud, 7, guard=2000) is None


@pytest.mark.parametrize("seed,k,nodes", [(0, 8, 68), (1, 7, 22)])
def test_count_bound_node_counts(seed, k, nodes):
    # A YES and a NO that the root cut does not decide, each answered in
    # exactly ``nodes`` nodes.
    cloud = eight_lines_cloud(seed)
    assert (solve_cover(cloud, k, guard=nodes) is None) == (k == 7)
    with pytest.raises(GuardLimitError):
        solve_cover(cloud, k, guard=nodes - 1)


def test_line_table_is_built_at_the_first_failed_branch(monkeypatch):
    # A 6 x 5 grid in column order: with k = 6 the greedy descent takes the
    # columns and never backtracks; with k = 5 it fails before finding the
    # rows.  Above CUT_KEY_LIMIT no table is built at all.
    cloud = rcloud([(x, y) for x in range(6) for y in range(5)])
    built = []
    line_table = cover._line_table

    def counting_line_table(pts):
        built.append(len(pts))
        return line_table(pts)

    monkeypatch.setattr(cover, "_line_table", counting_line_table)
    sol = solve_cover(cloud, 6)
    assert sol is not None and all(h.coeffs[2] == 0 for h in sol.hyperplanes)
    assert built == []
    sol = solve_cover(cloud, 5)
    assert sol is not None and all(h.coeffs[1] == 0 for h in sol.hyperplanes)
    assert built == [30]
    monkeypatch.setattr(cover, "CUT_KEY_LIMIT", math.comb(30, 2) - 2)
    assert solve_cover(cloud, 5) == sol
    assert built == [30]
