import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcover.clustering import (
    HeuristicConfig,
    PartitionIterator,
    count_consistent_partitions,
    is_voronoi_consistent,
    partition_count,
    solve_exact,
    solve_heuristic,
    stirling2,
)
from flatcover.errors import GuardLimitError, ScalarModeError
from flatcover.fitting import best_fit_flat
from flatcover.geometry import (
    MODE_FLOAT,
    MODE_RATIONAL,
    ClusteringSolution,
    WeightedPointCloud,
    dist2_point_flat,
)
from flatcover.util import resolve_guard


def fcloud(points, mults=None):
    return WeightedPointCloud.create(points, MODE_FLOAT, mults)


def brute_force_cost(cloud, k, r):
    """Independent oracle: unpruned full enumeration via the public iterator."""
    best = np.inf
    for labels in PartitionIterator(len(cloud.records), k):
        blocks = {}
        for i, b in enumerate(labels):
            blocks.setdefault(b, []).append(i)
        cost = 0.0
        for blk in blocks.values():
            sub = WeightedPointCloud(cloud.dim, cloud.mode,
                                     tuple(cloud.records[i] for i in blk))
            cost += best_fit_flat(sub, r).cost
        best = min(best, cost)
    return best


def test_stirling_spot_values():
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    assert stirling2(6, 1) == 1
    assert stirling2(6, 6) == 1
    assert stirling2(3, 5) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8))
def test_partition_iterator_counts(n, k):
    emitted = list(PartitionIterator(n, k))
    assert len(emitted) == partition_count(n, k)
    assert len(set(emitted)) == len(emitted)
    by_blocks = {}
    for labels in emitted:
        by_blocks.setdefault(max(labels) + 1, 0)
        by_blocks[max(labels) + 1] += 1
    for j, cnt in by_blocks.items():
        assert cnt == stirling2(n, j)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 7), st.integers(1, 4))
def test_partition_iterator_canonical(n, k):
    prev = None
    for labels in PartitionIterator(n, k):
        assert labels[0] == 0
        seen = 0
        for v in labels:
            assert v <= seen
            seen = max(seen, v + 1)
        assert seen <= k
        if prev is not None:
            assert labels > prev  # lexicographic order
        prev = labels


def test_solve_exact_k1_matches_best_fit():
    rng = np.random.default_rng(0)
    cloud = fcloud(rng.normal(size=(7, 2)))
    sol = solve_exact(cloud, 1, 1)
    fit = best_fit_flat(cloud, 1)
    assert sol.cost == pytest.approx(fit.cost, rel=1e-12, abs=1e-15)
    assert sol.assignment == (0,) * 7


def test_solve_exact_planted_two_lines():
    pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 5.0), (1.0, 5.0), (2.0, 5.0)]
    sol = solve_exact(fcloud(pts), 2, 1)
    assert sol.cost <= 1e-18
    assert sol.assignment == (0, 0, 0, 1, 1, 1)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_solve_exact_matches_unpruned_oracle(seed):
    rng = np.random.default_rng(seed)
    pts = rng.integers(-6, 7, size=(8, 2)).astype(float)
    cloud = fcloud(pts)
    sol = solve_exact(cloud, 2, 1)
    assert sol.cost == pytest.approx(brute_force_cost(cloud, 2, 1), rel=1e-12, abs=1e-12)


def test_solve_exact_pruning_neutral():
    rng = np.random.default_rng(42)
    for _ in range(5):
        cloud = fcloud(rng.normal(size=(9, 2)) * 3)
        a = solve_exact(cloud, 2, 1, prune=True)
        b = solve_exact(cloud, 2, 1, prune=False)
        assert a.cost == pytest.approx(b.cost, rel=1e-12, abs=1e-14)
        assert a.assignment == b.assignment


def test_solve_exact_monotone_in_k_and_r():
    rng = np.random.default_rng(5)
    cloud = fcloud(rng.normal(size=(8, 3)) * 2)
    costs_k = [solve_exact(cloud, k, 1).cost for k in (1, 2, 3)]
    assert costs_k[0] >= costs_k[1] - 1e-12 >= costs_k[2] - 2e-12
    costs_r = [solve_exact(cloud, 2, r).cost for r in (0, 1, 2)]
    assert costs_r[0] >= costs_r[1] - 1e-12 >= costs_r[2] - 2e-12


def test_solve_exact_zero_cost_with_enough_flats():
    pts = [(0.0, 0.0), (3.0, 1.0), (7.0, -2.0)]
    sol = solve_exact(fcloud(pts), 3, 0)
    assert sol.cost <= 1e-18


def test_solve_exact_permutation_invariance():
    rng = np.random.default_rng(9)
    pts = [tuple(p) for p in rng.normal(size=(7, 2)) * 4]
    base = solve_exact(fcloud(pts), 2, 1)
    for perm in [rng.permutation(7) for _ in range(4)]:
        sol = solve_exact(fcloud([pts[i] for i in perm]), 2, 1)
        assert sol.cost == pytest.approx(base.cost, rel=1e-12, abs=1e-14)
        # Same set partition of the positions.
        def blocks(points, labels):
            out = {}
            for p, b in zip(points, labels):
                out.setdefault(b, set()).add(p)
            return frozenset(frozenset(s) for s in out.values())
        assert blocks([pts[i] for i in perm], sol.assignment) == \
            blocks(pts, base.assignment)


def test_solve_exact_respects_guard():
    cloud = fcloud(np.random.default_rng(0).normal(size=(12, 2)))
    with pytest.raises(GuardLimitError):
        solve_exact(cloud, 3, 1, guard=1000)


def test_guard_env_var_override(monkeypatch):
    cloud = fcloud(np.random.default_rng(0).normal(size=(12, 2)))
    monkeypatch.setenv("FLATCOVER_GUARD", "1000")
    with pytest.raises(GuardLimitError):
        solve_exact(cloud, 3, 1)
    monkeypatch.setenv("FLATCOVER_GUARD", str(10**9))
    solve_exact(cloud, 2, 1)  # passes under the raised cap


def test_guard_env_var_malformed(monkeypatch):
    monkeypatch.setenv("FLATCOVER_GUARD", "abc")
    with pytest.raises(ValueError, match="FLATCOVER_GUARD.*'abc'"):
        resolve_guard(10)


def test_solve_exact_budget_decision():
    pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 5.0), (1.0, 5.0), (2.0, 5.0)]
    cloud = fcloud(pts)
    yes = solve_exact(cloud, 2, 1, budget=0.5)
    assert yes.budget_decision is True
    no = solve_exact(cloud, 1, 0, budget=1e-9)
    assert no.budget_decision is False
    assert solve_exact(cloud, 2, 1).budget_decision is None


def test_solve_exact_rejects_rational_cloud():
    cloud = WeightedPointCloud.create([(0, 0), (1, 1)], MODE_RATIONAL)
    with pytest.raises(ScalarModeError):
        solve_exact(cloud, 1, 1)


def test_solve_exact_argument_validation():
    cloud = fcloud([(0.0, 0.0), (1.0, 1.0)])
    with pytest.raises(ValueError):
        solve_exact(cloud, 0, 1)
    with pytest.raises(ValueError):
        solve_exact(cloud, 1, 2)
    with pytest.raises(ValueError):
        solve_exact(WeightedPointCloud(2, MODE_FLOAT, ()), 1, 1)


def test_solve_exact_multiplicity_stacks_move_together():
    cloud = fcloud([(0.0, 0.0), (0.0, 1.0), (4.0, 0.0)], mults=[5, 1, 1])
    sol = solve_exact(cloud, 2, 0)
    assert len(sol.assignment) == 3
    heavy = sol.assignment[0]
    # The heavy stack sits alone or dominates its block's centroid.
    assert sol.cost == pytest.approx(brute_force_cost(cloud, 2, 0), rel=1e-12)


def test_voronoi_consistency_of_exact_solutions():
    rng = np.random.default_rng(17)
    for _ in range(5):
        cloud = fcloud(rng.normal(size=(8, 2)) * 3)
        sol = solve_exact(cloud, 2, 1)
        assert is_voronoi_consistent(cloud, sol, tol=1e-9)


def test_voronoi_inconsistency_detected():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 5.0), (1.0, 5.0)]
    cloud = fcloud(pts)
    good = solve_exact(cloud, 2, 1)
    bad = ClusteringSolution(good.flats, (1, 0, 0, 1), good.cost)
    assert not is_voronoi_consistent(cloud, bad, tol=1e-6)


def test_heuristic_planted_zero_cost():
    pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 5.0), (1.0, 5.0), (2.0, 5.0)]
    cfg = HeuristicConfig(restarts=20, rng_seed=123)
    sol = solve_heuristic(fcloud(pts), 2, 1, cfg)
    assert sol.cost <= 1e-18


def test_heuristic_k_equals_n_r0():
    pts = [(0.0, 0.0), (3.0, 1.0), (7.0, -2.0), (1.0, 9.0)]
    cfg = HeuristicConfig(restarts=10, rng_seed=7)
    sol = solve_heuristic(fcloud(pts), 4, 0, cfg)
    assert sol.cost <= 1e-18


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_heuristic_sandwich(seed):
    rng = np.random.default_rng(seed)
    cloud = fcloud(rng.normal(size=(8, 2)) * 3)
    exact = solve_exact(cloud, 2, 1)
    cfg = HeuristicConfig(restarts=20, rng_seed=seed)
    heur = solve_heuristic(cloud, 2, 1, cfg)
    assert heur.cost >= exact.cost - 1e-9 * max(1.0, exact.cost)


def test_heuristic_deterministic_and_thread_neutral():
    rng = np.random.default_rng(3)
    cloud = fcloud(rng.normal(size=(12, 2)) * 2)
    cfg = HeuristicConfig(restarts=8, rng_seed=99)
    a = solve_heuristic(cloud, 2, 1, cfg)
    b = solve_heuristic(cloud, 2, 1, cfg)
    c = solve_heuristic(cloud, 2, 1, cfg, threads=4)
    assert a.cost == b.cost == c.cost
    assert a.assignment == b.assignment == c.assignment


def test_heuristic_fixed_point_is_consistent():
    rng = np.random.default_rng(21)
    cloud = fcloud(rng.normal(size=(10, 2)) * 3)
    cfg = HeuristicConfig(restarts=5, max_iter=200, rng_seed=1)
    sol = solve_heuristic(cloud, 2, 1, cfg)
    assert is_voronoi_consistent(cloud, sol, tol=1e-9)


def test_count_consistent_collinear():
    cloud = fcloud([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    assert count_consistent_partitions(cloud, 1, 1) == 1


def test_count_consistent_matches_brute_check():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(4, 1)) * 3
    cloud = fcloud(pts)
    got = count_consistent_partitions(cloud, 2, 0)
    # Brute verification over all partitions into <= 2 blocks.
    expect = 0
    for labels in PartitionIterator(4, 2):
        blocks = {}
        for i, b in enumerate(labels):
            blocks.setdefault(b, []).append(i)
        flats = [best_fit_flat(fcloud([tuple(pts[i]) for i in blk]), 0).flat
                 for blk in blocks.values()]
        ok = all(
            int(np.argmin([dist2_point_flat(tuple(pts[i]), f) for f in flats])) == labels[i]
            for i in range(4))
        expect += ok
    assert got == expect
