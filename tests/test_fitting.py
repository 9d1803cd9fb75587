import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcover.errors import AffineDependenceError, ScalarModeError
from flatcover.fitting import (
    EIG_CLAMP,
    _sorted_eig,
    best_fit_flat,
    centred_scatter,
    fit_hyperplane_exact,
    fit_points,
    fit_scatter,
)
from flatcover.geometry import (
    MODE_FLOAT,
    MODE_RATIONAL,
    WeightedPointCloud,
    total_cost,
)
from oracles import canonicalize_flat, centroid, dist2_point_flat, on_plane


def fcloud(points, mults=None):
    return WeightedPointCloud.create(points, MODE_FLOAT, mults)


def angle_sweep_cost(cloud, steps=200_000):
    """Independent d=2, r=1 oracle: sweep the line angle over a grid and use
    the closed-form optimal offset per angle (weighted mean of normal
    projections).  Works from raw data moments only."""
    X = cloud.coords_array()
    w = cloud.weights_array()
    sw = w.sum()
    m1 = w @ X
    m2 = (X * w[:, None]).T @ X
    thetas = np.linspace(0.0, math.pi, steps, endpoint=False)
    nx, ny = -np.sin(thetas), np.cos(thetas)
    # cost(theta) = n^T M2 n - (n^T m1)^2 / sw  with n the unit normal
    quad = (nx * nx * m2[0, 0] + 2 * nx * ny * m2[0, 1] + ny * ny * m2[1, 1])
    lin = nx * m1[0] + ny * m1[1]
    return float(np.min(quad - lin * lin / sw))


def sorted_eig_loop(S):
    """Oracle for _sorted_eig on one matrix: the column loop as first written."""
    w, V = np.linalg.eigh(S)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    V = V[:, order]
    for j in range(V.shape[1]):
        col = V[:, j]
        idx = int(np.argmax(np.abs(col)))
        if col[idx] < 0:
            V[:, j] = -col
    w[(w < 0) & (w >= -EIG_CLAMP)] = 0.0
    return w, V


def fit_loop(X, w, r):
    """Oracle for fit_points on one block: (spectrum, basis, offset) as first written."""
    C = (w @ X) / w.sum()
    D = X - C
    evals, evecs = sorted_eig_loop((D * w[:, None]).T @ D)
    B = evecs[:, :r]
    return evals, B, C - B @ (B.T @ C) if r else C.copy()


def same_bits(a, b):
    """Equal shapes and equal float64 bit patterns (so -0.0 differs from 0.0)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.int64), np.ascontiguousarray(b).view(np.int64))


def tie_heavy_matrices(d):
    """I, diag(2, 2, 1, ...), the zero matrix and a rank-1 matrix."""
    v = np.arange(1.0, d + 1.0)
    return [np.eye(d), np.diag([2.0, 2.0] + [1.0] * (d - 2))[:d, :d], np.zeros((d, d)),
            np.outer(v, v)]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sorted_eig_stack_matches_each_matrix(d):
    rng = np.random.default_rng(d)
    A = rng.normal(size=(20, d, d))
    mats = [*(A + A.transpose(0, 2, 1)), *tie_heavy_matrices(d)]
    stack = np.stack(mats)
    ws, Vs = _sorted_eig(stack)
    w2, V2 = _sorted_eig(stack.reshape(2, -1, d, d))
    w2, V2 = w2.reshape(-1, d), V2.reshape(-1, d, d)
    for i, M in enumerate(mats):
        w0, V0 = sorted_eig_loop(M)
        for w, V in (_sorted_eig(M), (ws[i], Vs[i]), (w2[i], V2[i])):
            assert same_bits(w, w0) and same_bits(V, V0), (i, M)
            # The loop's V[:, order] is Fortran-ordered, and matmuls round
            # by layout.
            assert V.flags.f_contiguous


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_stacked_fits_match_one_block_fits(d):
    rng = np.random.default_rng(10 + d)
    for m in (1, 2, d + 1, 40):
        X = rng.normal(size=(5, m, d)) * 10.0 ** rng.uniform(-2, 3) + rng.normal(size=d)
        W = rng.integers(1, 4, size=(5, m)).astype(float)
        for r in range(d):
            evals, B, offset = fit_scatter(*centred_scatter(X, W), r)
            for t in range(5):
                e0, B0, o0 = fit_loop(X[t], W[t], r)
                assert same_bits(evals[t], e0) and same_bits(B[t], B0)
                assert same_bits(offset[t], o0)
                res = fit_points(X[t], W[t], r)
                assert same_bits(res.spectrum, e0) and same_bits(res.flat.offset, o0)
                assert same_bits(res.flat.basis_array(), B0)


def test_centroid_single_point():
    assert centroid(fcloud([(2.5, -1.0)])) == pytest.approx((2.5, -1.0))


def test_centroid_two_points():
    assert centroid(fcloud([(0.0, 0.0), (2.0, 4.0)])) == pytest.approx((1.0, 2.0))


def test_centroid_respects_multiplicity():
    # Expanding (0,0)x3, (4,0)x1 to four points and averaging gives (1, 0).
    assert centroid(fcloud([(0.0, 0.0), (4.0, 0.0)], mults=[3, 1])) == \
        pytest.approx((1.0, 0.0))


def test_centroid_refuses_rational_cloud():
    cloud = WeightedPointCloud.create([(0, 0), (4, 0)], MODE_RATIONAL, [3, 1])
    with pytest.raises(ScalarModeError):
        centroid(cloud)


def test_centroid_empty_cloud():
    with pytest.raises(ValueError):
        centroid(WeightedPointCloud(2, MODE_FLOAT, ()))


def test_best_fit_collinear_is_exact():
    cloud = fcloud([(float(i), 2.0 * i + 1.0) for i in range(5)])
    res = best_fit_flat(cloud, 1)
    assert res.cost <= 1e-18
    for rec in cloud.records:
        assert dist2_point_flat(rec.coords, res.flat) <= 1e-18


def test_best_fit_r0_is_centroid():
    cloud = fcloud([(0.0, 0.0), (2.0, 0.0), (1.0, 3.0)])
    res = best_fit_flat(cloud, 0)
    C = centroid(cloud)
    assert res.flat.offset == pytest.approx(C)
    # Cost is the total weighted variance.
    expect = sum(sum((a - b) ** 2 for a, b in zip(r.coords, C)) for r in cloud.records)
    assert res.cost == pytest.approx(expect, rel=1e-12)


def test_best_fit_frozen_example():
    # Points (0,0), (1,1), (2,0): the optimal line is y = 1/3 with cost 2/3.
    cloud = fcloud([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])
    res = best_fit_flat(cloud, 1)
    assert res.cost == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert res.flat.basis[0] == pytest.approx((1.0, 0.0), abs=1e-12)
    assert res.flat.offset == pytest.approx((0.0, 1.0 / 3.0), rel=1e-12)
    assert res.cost <= angle_sweep_cost(cloud) + 1e-9


def test_best_fit_cost_equals_total_cost():
    rng = np.random.default_rng(11)
    cloud = fcloud(rng.normal(size=(20, 3)) * 2.0, mults=rng.integers(1, 4, 20))
    for r in (0, 1, 2):
        res = best_fit_flat(cloud, r)
        assert res.cost == pytest.approx(total_cost(cloud, [res.flat]), rel=1e-9)
        assert list(res.spectrum) == sorted(res.spectrum, reverse=True)
        assert all(s >= -1e-12 for s in res.spectrum)
        assert res.cost == pytest.approx(sum(res.spectrum[r:]), rel=1e-9, abs=1e-12)


def test_best_fit_contains_centroid():
    rng = np.random.default_rng(3)
    cloud = fcloud(rng.normal(size=(15, 2)) * 5.0)
    res = best_fit_flat(cloud, 1)
    assert dist2_point_flat(centroid(cloud), res.flat) <= 1e-18


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_best_fit_beats_angle_sweep(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    cloud = fcloud(rng.normal(size=(n, 2)) * 3.0, mults=rng.integers(1, 5, n))
    res = best_fit_flat(cloud, 1)
    assert res.cost <= angle_sweep_cost(cloud, steps=100_000) + 1e-6


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_best_fit_local_optimality(seed):
    rng = np.random.default_rng(seed)
    cloud = fcloud(rng.normal(size=(12, 2)) * 2.0)
    res = best_fit_flat(cloud, 1)
    eps = 1e-3
    for _ in range(50):
        ang = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(eps), math.sin(eps)
        bx, by = res.flat.basis[0]
        basis = ((c * bx - s * by, s * bx + c * by),)
        shift = np.asarray(res.flat.offset) + eps * rng.normal(size=2)
        perturbed = canonicalize_flat(basis, tuple(shift))
        assert total_cost(cloud, [perturbed]) >= res.cost - 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_best_fit_translation_equivariance(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(10, 2)) * 3.0
    t = rng.normal(size=2) * 10.0
    res_a = best_fit_flat(fcloud(pts), 1)
    res_b = best_fit_flat(fcloud(pts + t), 1)
    assert res_b.cost == pytest.approx(res_a.cost, rel=1e-9, abs=1e-12)
    assert np.allclose(res_b.flat.basis, res_a.flat.basis, atol=1e-9)
    # The fitted flat itself is the translate: every original fitted point,
    # shifted by t, lies on the new flat.
    C = np.asarray(res_a.flat.offset) + t
    assert dist2_point_flat(tuple(C), res_b.flat) <= 1e-12


def test_best_fit_deterministic_under_spectrum_ties():
    # Square corners: the scatter matrix is a multiple of the identity, so
    # the spectrum is fully degenerate; the tie rule must still produce the
    # same flat for any input order.
    corners = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]
    base = best_fit_flat(fcloud(corners), 1)
    for perm in ([1, 0, 3, 2], [3, 2, 1, 0], [2, 3, 0, 1]):
        res = best_fit_flat(fcloud([corners[i] for i in perm]), 1)
        assert res.flat.basis == base.flat.basis
        assert res.flat.offset == base.flat.offset


def test_best_fit_rejects_rational_cloud():
    cloud = WeightedPointCloud.create([(0, 0), (1, 1)], MODE_RATIONAL)
    with pytest.raises(ScalarModeError):
        best_fit_flat(cloud, 1)


def test_best_fit_r_out_of_range():
    cloud = fcloud([(0.0, 0.0), (1.0, 1.0)])
    with pytest.raises(ValueError):
        best_fit_flat(cloud, 2)
    with pytest.raises(ValueError):
        best_fit_flat(cloud, -1)


def test_fit_hyperplane_line_through_two_points():
    h = fit_hyperplane_exact([(0, 0), (1, 1)])
    assert h.coeffs == (0, 1, -1)


def test_fit_hyperplane_simplex_plane():
    h = fit_hyperplane_exact([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert h.coeffs == (-1, 1, 1, 1)


def test_fit_hyperplane_deterministic_completion():
    # Single point in R^3: hull extended by e1, e2 gives the plane z = 5.
    h = fit_hyperplane_exact([(2, 3, 5)])
    assert h.coeffs == (-5, 0, 0, 1)


def test_fit_hyperplane_contains_inputs():
    pts = [(2, 3, 5), (1, 1, 1), (0, 4, -2)]
    h = fit_hyperplane_exact(pts)
    for p in pts:
        assert on_plane(h, p)


def test_fit_hyperplane_rational_frames_d4():
    # Non-integer coordinates, given as int numerators over their common
    # denominator, exercise the map back to real coefficients; the
    # coefficients are pinned, and one to three points exercise the e_i
    # completion.
    real = [(Fraction(1, 2), Fraction(-3, 4), 2, Fraction(5, 3)),
           (0, Fraction(7, 5), Fraction(-1, 6), 3),
           (Fraction(-2, 3), 1, Fraction(1, 4), Fraction(-5, 2)),
           (Fraction(3, 7), Fraction(-1, 2), 0, Fraction(1, 9))]
    expected = {
        1: (-5, 0, 0, 0, 3),
        2: (-113, 0, 0, 24, 39),
        3: (-10160, 0, 8180, 8130, 21),
        4: (-165330, 897603, 409930, 119928, -129528),
    }
    den = math.lcm(*(Fraction(c).denominator for p in real for c in p))
    pts = [tuple(int(c * den) for c in p) for p in real]
    for m, coeffs in expected.items():
        h = fit_hyperplane_exact(pts[:m], den)
        assert all(on_plane(h, p, den) for p in pts[:m])
        assert all(on_plane(h, p) for p in real[:m])
        assert h.coeffs == coeffs


def test_fit_hyperplane_rejects_dependent_points():
    with pytest.raises(AffineDependenceError):
        fit_hyperplane_exact([(0, 0, 0), (1, 1, 1), (2, 2, 2)])
    with pytest.raises(ValueError):
        fit_hyperplane_exact([(0, 0), (1, 1), (2, 0)])  # more than d points


def test_fit_hyperplane_rejects_floats():
    with pytest.raises(ScalarModeError):
        fit_hyperplane_exact([(0.5, 1.0)])
