"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance is pinned here; nothing defers to calibration.
"""

import math
import time
from fractions import Fraction

import numpy as np

from flatcover.clustering import (
    HeuristicConfig,
    count_consistent_partitions,
    partition_count,
    is_voronoi_consistent,
    solve_exact,
    solve_heuristic,
)
from flatcover.cover import (
    solve_cover,
    verify_cover,
)
from flatcover.fitting import best_fit_flat
from flatcover.generators import (
    all_graphs,
    matching_color_graph,
    min_dominating_size,
    planted_lines_cloud,
    random_exact_cloud,
)
from flatcover.geometry import (
    MODE_FLOAT,
    MODE_RATIONAL,
    WeightedPointCloud,
    total_cost,
)
from flatcover.reductions import (
    cover_to_dominating_set,
    desanitize_multiset,
    ds_to_hyperplane_cover,
    exact_cloud_cost,
    exact_solution_cost,
    independent_set_to_lines,
    rmis_to_line_clustering,
    vandermonde_value,
)
from oracles import (
    canonicalize_flat,
    cover_oracle,
    dist2_point_flat,
    full_rank,
    ring_color_graph,
    unpruned_optimum,
)


def report(num, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num} ({elapsed:.1f}s) {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def fcloud(points, mults=None):
    return WeightedPointCloud.create(points, MODE_FLOAT, mults)


# ---------------------------------------------------------------------------
# criterion 1: best-fit correctness against the angle-sweep oracle

_SWEEP_STEPS = 1_000_000


def test_criterion_1_best_fit():
    t0 = time.time()
    thetas = np.linspace(0.0, math.pi, _SWEEP_STEPS, endpoint=False)
    sin2 = np.sin(thetas) ** 2
    cos2 = np.cos(thetas) ** 2
    sincos = np.sin(thetas) * np.cos(thetas)
    rng = np.random.default_rng(20260810)
    worst_gap = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 51))
        pts = rng.normal(size=(n, 2)) * rng.uniform(0.5, 5.0)
        w = rng.integers(1, 4, size=n).astype(float)
        cloud = fcloud(pts, w.astype(int))
        res = best_fit_flat(cloud, 1)
        # Oracle: per angle theta the optimal offset is the weighted mean of
        # normal projections; the cost is the weighted variance, evaluated
        # from raw data moments over the 1e6-step grid.
        sw = w.sum()
        m1 = w @ pts
        m2 = (pts * w[:, None]).T @ pts
        a = m2[0, 0] - m1[0] * m1[0] / sw
        b = m2[0, 1] - m1[0] * m1[1] / sw
        c = m2[1, 1] - m1[1] * m1[1] / sw
        sweep = float(np.min(a * sin2 - 2 * b * sincos + c * cos2))
        worst_gap = max(worst_gap, res.cost - sweep)
        assert res.cost <= sweep + 1e-6
        assert dist2_point_flat(
            tuple((w @ pts) / sw), res.flat) <= 1e-18
    elapsed = time.time() - t0
    report(1, elapsed < 10.0, elapsed,
           f"100 instances, worst fitted-minus-sweep gap {worst_gap:.2e}")


# ---------------------------------------------------------------------------
# criterion 2: exact solver equals the unpruned full enumeration


def _random_instances(rng, count, dim, n_max):
    # n >= 6 keeps the optimum bounded away from zero: with n <= 2(r+1)+1
    # every partition into two blocks of <= r+1 points costs exactly zero
    # and the comparison would measure eigensolver noise, not the solver.
    out = []
    for _ in range(count):
        n = int(rng.integers(6, n_max + 1))
        out.append(fcloud(rng.normal(size=(n, dim)) * 3.0))
    return out


def test_criterion_2_exact_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2)
    instances = (_random_instances(rng, 25, 2, 9)
                 + _random_instances(rng, 25, 3, 8))
    for cloud in instances:
        sol = solve_exact(cloud, 2, 1)
        oracle = unpruned_optimum(cloud, 2, 1)
        scale = max(abs(sol.cost), abs(oracle), 1e-300)
        assert abs(sol.cost - oracle) <= 1e-12 * scale
        assert is_voronoi_consistent(cloud, sol, tol=1e-9)
    elapsed = time.time() - t0
    report(2, elapsed < 120.0, elapsed, "50 instances, pruned == unpruned")


# ---------------------------------------------------------------------------
# criterion 3: heuristic sandwich


def test_criterion_3_heuristic_sandwich():
    t0 = time.time()
    rng = np.random.default_rng(3)
    instances = (_random_instances(rng, 25, 2, 9)
                 + _random_instances(rng, 25, 3, 8))
    for seed, cloud in enumerate(instances):
        exact = solve_exact(cloud, 2, 1)
        heur = solve_heuristic(cloud, 2, 1,
                               HeuristicConfig(restarts=20, rng_seed=seed))
        assert heur.cost >= exact.cost - 1e-9 * max(1.0, abs(exact.cost))
    hits = 0
    planted_total = 20
    for seed in range(planted_total):
        cloud, _, _ = planted_lines_cloud(8, 2, 0.0, seed + 100, rotate=False)
        exact = solve_exact(cloud, 2, 1)
        heur = solve_heuristic(cloud, 2, 1,
                               HeuristicConfig(restarts=20, rng_seed=seed))
        if heur.cost <= exact.cost + 1e-9:
            hits += 1
    elapsed = time.time() - t0
    report(3, hits >= 0.8 * planted_total and elapsed < 60.0, elapsed,
           f"zero-noise recovery {hits}/{planted_total}")


# ---------------------------------------------------------------------------
# criterion 4: planted recovery with noise


def test_criterion_4_planted_recovery():
    t0 = time.time()
    recovered = 0
    for seed in range(20):
        cloud, labels, lines = planted_lines_cloud(12, 3, 0.1, seed)
        sol = solve_exact(cloud, 3, 1)
        planted_blocks = {}
        got_blocks = {}
        for i, (lab, got) in enumerate(zip(labels, sol.assignment)):
            planted_blocks.setdefault(lab, set()).add(i)
            got_blocks.setdefault(got, set()).add(i)
        same = (frozenset(map(frozenset, planted_blocks.values()))
                == frozenset(map(frozenset, got_blocks.values())))
        planted_flats = [canonicalize_flat([direction], point)
                         for point, direction in lines]
        assert sol.cost <= total_cost(cloud, planted_flats) + 1e-12
        if same:
            recovered += 1
    elapsed = time.time() - t0
    report(4, recovered == 20 and elapsed < 300.0, elapsed,
           f"planted partition recovered on {recovered}/20 instances")


# ---------------------------------------------------------------------------
# criterion 5: cover solver exactness


def test_criterion_5_cover_exactness():
    t0 = time.time()
    grid = WeightedPointCloud.create(
        [(x, y) for x in range(3) for y in range(3)], MODE_RATIONAL)
    assert solve_cover(grid, 3) is not None
    assert solve_cover(grid, 2) is None
    for trial in range(200):
        k = trial % 3 + 1
        cloud = random_exact_cloud(4 + trial % 7, 2, seed=trial, coord_range=4)
        got = solve_cover(cloud, k)
        assert (got is not None) == cover_oracle(cloud, k)
        if got is not None:
            assert len(got.hyperplanes) <= k
            assert verify_cover(cloud, got.hyperplanes)
        viakernel = solve_cover(cloud, k, kernel=True)
        assert (viakernel is None) == (got is None)
        if viakernel is not None:
            assert verify_cover(cloud, viakernel.hyperplanes)
    elapsed = time.time() - t0
    report(5, elapsed < 120.0, elapsed,
           "200 instances vs candidate-subset oracle, kernel agrees")


# ---------------------------------------------------------------------------
# criterion 6: Dominating Set reduction equivalence on micro graphs


def test_criterion_6_ds_reduction_equivalence():
    t0 = time.time()
    checked = 0
    for d in (4, 5):
        for g in all_graphs(d, connected=True, max_degree=d - 2):
            inst = ds_to_hyperplane_cover(g, 2)
            has_ds = min_dominating_size(g, 2) is not None
            sol = solve_cover(inst.cloud, 2)
            assert (sol is not None) == has_ds
            if sol is not None:
                extracted = cover_to_dominating_set(inst, sol.hyperplanes)
                assert g.is_dominating(extracted)
                assert len(extracted) <= 2
            checked += 1
    elapsed = time.time() - t0
    report(6, elapsed < 900.0, elapsed,
           f"{checked} labeled connected graphs on 4 and 5 vertices")


# ---------------------------------------------------------------------------
# criterion 7: Vandermonde minors


def test_criterion_7_vandermonde_minors():
    t0 = time.time()
    size = 50  # the d^2 k' table for d = 5, k' = 2
    rng = np.random.default_rng(7)
    for _ in range(500):
        order = int(rng.integers(2, 6))
        rows = rng.choice(size, size=order, replace=False) + 1
        cols = rng.choice(size, size=order, replace=False) + 1
        minor = [[vandermonde_value(int(i), int(j)) for j in sorted(cols)]
                 for i in sorted(rows)]
        assert full_rank(minor)
    elapsed = time.time() - t0
    report(7, elapsed < 30.0, elapsed, "500 exact minors, orders 2..5")


# ---------------------------------------------------------------------------
# criterion 8: construction integrity of the planar gadget


def test_criterion_8_rmis_integrity():
    t0 = time.time()
    # Relaxed instance, materialized: recount everything from raw records.
    inst = rmis_to_line_clustering(matching_color_graph(2, 4))
    par = inst.params
    n, k, p, W = par.n, inst.k, par.p, par.W
    sl = inst.meta["family_slices"]
    recs = inst.cloud.records

    def family_weight(name):
        a, b = sl[name]
        return sum(r.mult for r in recs[a:b])

    assert family_weight("F") == 8 * n ** 90 + k * k + 2 * k
    assert family_weight("Z_v") == n * W
    phi = inst.tables.phi
    assert family_weight("Z_h") == par.ell * sum(W + f for f in phi)
    per_line = {}
    a, b = sl["X"]
    for rec in recs[a:b]:
        per_line[rec.coords[1]] = per_line.get(rec.coords[1], 0) + rec.mult
    assert all(wt == n * p for wt in per_line.values())
    assert len(per_line) == n
    expected_B = (n ** 7 + (n - par.ell) * W
                  + par.ell * sum(W + f for f in phi) - par.ell * W
                  + par.ell * p * (n - par.nu + 1 - par.q - par.ell))
    assert inst.B == expected_B

    # Faithful instance (smallest parameters with nu > ell^3, ell > 10,
    # 4 | nu): checked structurally, never solved.
    gf = ring_color_graph(11, 1332)
    finst = rmis_to_line_clustering(gf, faithful=True)
    assert not finst.materialized
    fpar = finst.params
    theta_ref = [sum((3 * (i - a)) ** 2 for a in range(1, i + 1))
                 + sum((3 * (fpar.nu - b)) ** 2 for b in range(i, fpar.nu + 1))
                 for i in range(1, fpar.nu + 1)]
    assert list(finst.tables.theta) == theta_ref
    fB = (fpar.n ** 7 + (fpar.n - fpar.ell) * fpar.W
          + fpar.ell * sum(fpar.W + fpar.p * fpar.ell * (fpar.nu - 1) * t
                           for t in theta_ref)
          - fpar.ell * fpar.W
          + fpar.ell * fpar.p * (fpar.n - fpar.nu + 1 - fpar.q - fpar.ell))
    assert finst.B == fB
    assert finst.B <= fpar.n ** 32
    deg = gf.degree_map()
    assert all(p_ := fpar.p * (deg[v] + fpar.nu - 1) ==
               (fpar.q + fpar.nu - 1) * fpar.p for v in range(fpar.n))
    elapsed = time.time() - t0
    report(8, elapsed < 60.0, elapsed,
           "relaxed counts from records, faithful counts structurally")


# ---------------------------------------------------------------------------
# criterion 9: forward direction of the planar gadget


def test_criterion_9_rmis_forward():
    t0 = time.time()
    nu = 64
    inst = rmis_to_line_clustering(matching_color_graph(2, nu))
    B = inst.B
    # The matching graph pairs w_j^1 with w_j^2: selections with j1 != j2 are
    # independent, j1 == j2 are adjacent.  Worst-case and random independent
    # selections all meet the budget exactly.
    rng = np.random.default_rng(9)
    picks = {(1, 2), (2, 1), (1, nu), (nu, 1), (nu, nu - 1), (nu - 1, nu),
             (nu // 2, nu // 2 + 1)}
    while len(picks) < 40:
        j1, j2 = int(rng.integers(1, nu + 1)), int(rng.integers(1, nu + 1))
        if j1 != j2:
            picks.add((j1, j2))
    for sel in sorted(picks):
        cost = exact_solution_cost(inst, independent_set_to_lines(inst, sel))
        assert cost <= B, f"independent selection {sel} exceeds the budget"
    for j in range(1, nu + 1):
        cost = exact_solution_cost(inst, independent_set_to_lines(inst, (j, j)))
        assert cost > B, f"conflicting selection ({j},{j}) within budget"
    elapsed = time.time() - t0
    report(9, elapsed < 120.0, elapsed,
           f"40 independent selections <= B, all {nu} conflicting > B")


# ---------------------------------------------------------------------------
# criterion 10: desanitization contract


def test_criterion_10_desanitize():
    t0 = time.time()
    toy = {"p": 2, "W": 8, "d_s": 3200, "d_l": 1000}
    inst = rmis_to_line_clustering(matching_color_graph(2, 4), constants=toy)
    cloud, b_prime = desanitize_multiset(inst)
    assert b_prime == inst.B + 1
    N = inst.cloud.total_weight
    assert cloud.total_weight == N == len(cloud.records)
    # Coordinates are numerators over the cloud's one denominator.
    positions = [tuple(Fraction(c, cloud.den) for c in r.coords) for r in cloud.records]
    assert len(set(positions)) == len(positions)
    delta = Fraction(1, 3 * inst.B * N)
    den_cap = 3 * inst.B * N * N
    assert inst.cloud.den == 1
    originals = []
    for rec in inst.cloud.records:
        originals.extend([rec.coords] * rec.mult)
    for pos, orig in zip(positions, originals):
        dx = pos[0] - orig[0]
        dy = Fraction(pos[1]) - orig[1]
        assert dx * dx + dy * dy <= delta * delta
        assert Fraction(pos[0]).denominator <= den_cap
        assert Fraction(pos[1]).denominator <= den_cap
    lines = independent_set_to_lines(inst, (2, 3))
    before = exact_solution_cost(inst, lines)
    after = exact_cloud_cost(cloud, lines)
    assert abs(after - before) < 1
    elapsed = time.time() - t0
    report(10, elapsed < 60.0, elapsed,
           f"{N} expanded points, |cost shift| = {float(abs(after - before)):.3g}")


# ---------------------------------------------------------------------------
# criterion 11: scaling report for consistent partitions


def test_criterion_11_scaling_report():
    t0 = time.time()
    rng = np.random.default_rng(11)
    ns = list(range(6, 13))
    counts = []
    for n in ns:
        cloud = fcloud(rng.normal(size=(n, 2)) * 3.0)
        counts.append(count_consistent_partitions(cloud, 2, 1))
    xs = [math.log(n) for n in ns]
    ys = [math.log(max(c, 1)) for c in counts]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    totals = [partition_count(n, 2) for n in ns]
    for n, c, tot in zip(ns, counts, totals):
        print(f"  n={n}: consistent={c} total={tot}")
    elapsed = time.time() - t0
    report(11, slope <= 8.0 and elapsed < 600.0, elapsed,
           f"log-log slope {slope:.2f} <= 8 while totals grow as 2^n")
