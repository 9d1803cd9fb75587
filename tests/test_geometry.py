import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcover import io as fio
from flatcover.cover import verify_cover
from flatcover.errors import DimensionMismatchError, RankDeficiencyError, ScalarModeError
from flatcover.geometry import (
    MODE_FLOAT,
    MODE_RATIONAL,
    AffineFlat,
    Hyperplane,
    PointRecord,
    WeightedPointCloud,
    parse_scalar,
    total_cost,
)
from flatcover.generators import (
    matching_color_graph,
    planted_lines_cloud,
    random_cloud,
    random_exact_cloud,
)
from flatcover.reductions import (
    AxisLine,
    desanitize_multiset,
    ds_to_hyperplane_cover,
    exact_cloud_cost,
    rmis_to_line_clustering,
)
from oracles import (
    canonicalize_flat,
    dist2_point_flat,
    fraction_cloud_cost,
    fraction_covers,
    integer_plane,
    path_graph,
)


def dist2_point_complement_form(x, comp, p, tol=1e-9):
    """Independent oracle for dist2_point_flat: |C^T (x - p)|^2.

    ``comp`` holds d-r column-orthonormal columns spanning the complement of
    the flat's direction space, so this needs no basis of the flat itself.
    """
    C = np.array([list(col) for col in comp], dtype=float).T
    d = C.shape[0]
    if len(x) != d or len(p) != d:
        raise DimensionMismatchError("point, offset, and complement dimensions differ")
    if not np.allclose(C.T @ C, np.eye(C.shape[1]), atol=tol):
        raise RankDeficiencyError("complement matrix is not column-orthonormal")
    y = C.T @ (np.asarray(x, dtype=float) - np.asarray(p, dtype=float))
    return float(y @ y)


def x_axis():
    return AffineFlat(2, 1, ((1.0, 0.0),), (0.0, 0.0), MODE_FLOAT)


def test_point_on_flat_has_zero_distance():
    f = x_axis()
    for t in (-3.0, 0.0, 7.5):
        assert dist2_point_flat((t, 0.0), f) <= 1e-18


def test_axis_aligned_distance():
    assert dist2_point_flat((5.0, 3.0), x_axis()) == pytest.approx(9.0, abs=1e-12)


def test_plane_distance_matches_normal_projection_oracle():
    # Plane z = x + y through the origin; normal n = (1, 1, -1).
    # Oracle: dist^2 = (n . x)^2 / |n|^2 = (1 + 1 - 5)^2 / 3 = 3.
    f = canonicalize_flat([(1.0, 0.0, 1.0), (0.0, 1.0, 1.0)], (0.0, 0.0, 0.0))
    assert dist2_point_flat((1.0, 1.0, 5.0), f) == pytest.approx(3.0, rel=1e-12)


def test_complement_form_trivial_cases():
    assert dist2_point_complement_form((5.0, 3.0), ((0.0, 1.0),), (0.0, 0.0)) == \
        pytest.approx(9.0, abs=1e-12)
    # Full identity complement (r = 0): plain squared distance to p.
    d2 = dist2_point_complement_form((3.0, 4.0), ((1.0, 0.0), (0.0, 1.0)), (1.0, 1.0))
    assert d2 == pytest.approx(13.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4), st.integers(0, 3))
def test_complement_form_agrees_with_primal(seed, d, r):
    r = min(r, d - 1)
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(d, r))
    p = rng.normal(size=d)
    flat = canonicalize_flat(raw.T, p)
    B = flat.basis_array()
    # Complement via the eigenvectors of I - B B^T with unit eigenvalue.
    M = np.eye(d) - B @ B.T
    w, V = np.linalg.eigh(M)
    C = V[:, np.abs(w - 1.0) < 1e-9]
    assert C.shape == (d, d - r)
    x = rng.normal(size=d)
    lhs = dist2_point_flat(tuple(x), flat)
    rhs = dist2_point_complement_form(tuple(x), tuple(map(tuple, C.T)), flat.offset)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_canonicalize_simple():
    f = canonicalize_flat([(2.0, 0.0)], (7.0, 3.0))
    assert f.basis[0] == pytest.approx((1.0, 0.0))
    assert f.offset == pytest.approx((0.0, 3.0))


def test_canonicalize_idempotent():
    f = canonicalize_flat([(2.0, 0.0)], (7.0, 3.0))
    g = canonicalize_flat(f.basis, f.offset)
    assert np.allclose(g.basis, f.basis, atol=1e-15)
    assert np.allclose(g.offset, f.offset, atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_canonicalize_preserves_membership(seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(4, 2)) * 3.0
    off = rng.normal(size=4) * 5.0
    flat = canonicalize_flat(raw.T, off)
    for _ in range(100):
        t = rng.normal(size=2)
        x = off + raw @ t
        assert dist2_point_flat(tuple(x), flat) <= 1e-18 * max(1.0, float(x @ x)) + 1e-18


def test_mode_mixing_is_an_error():
    f = x_axis()
    with pytest.raises(ScalarModeError):
        dist2_point_flat((Fraction(1), Fraction(2)), f)
    # Flats are float-only: a rational flat cannot be built at all.
    with pytest.raises(ScalarModeError):
        AffineFlat(2, 1, ((Fraction(1), Fraction(0)),), (Fraction(0), Fraction(0)),
                   MODE_RATIONAL)
    with pytest.raises(ScalarModeError):
        total_cost(WeightedPointCloud.create([(1, 2)], MODE_RATIONAL), [f])


def test_dimension_mismatch_is_an_error():
    with pytest.raises(DimensionMismatchError):
        dist2_point_flat((1.0, 2.0, 3.0), x_axis())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_rebasis_invariance(seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(3, 2))
    off = rng.normal(size=3)
    flat = canonicalize_flat(raw.T, off)
    # Re-span the same flat with a rotated basis.
    Q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    B2 = flat.basis_array() @ Q
    flat2 = canonicalize_flat(B2.T, np.asarray(flat.offset))
    x = tuple(rng.normal(size=3))
    a = dist2_point_flat(x, flat)
    b = dist2_point_flat(x, flat2)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_complement_form_rejects_non_orthonormal():
    with pytest.raises(RankDeficiencyError):
        dist2_point_complement_form((1.0, 2.0), ((2.0, 0.0),), (0.0, 0.0))


def make_cloud(points, mults=None, mode=MODE_FLOAT):
    return WeightedPointCloud.create(points, mode, mults)


def test_total_cost_zero_when_covered():
    cloud = make_cloud([(0.0, 0.0), (1.0, 0.0), (5.0, 0.0)])
    assert total_cost(cloud, [x_axis()]) <= 1e-18


def test_total_cost_nearest_line_arithmetic():
    line0 = x_axis()
    line10 = AffineFlat(2, 1, ((1.0, 0.0),), (0.0, 10.0), MODE_FLOAT)
    cloud = make_cloud([(0.0, 1.0), (0.0, 9.0)], mults=[3, 2])
    assert total_cost(cloud, [line0, line10]) == pytest.approx(5.0, abs=1e-12)


def test_total_cost_matches_naive_loop_on_planted_instance():
    rng = np.random.default_rng(7)
    lines = [AffineFlat(2, 1, ((1.0, 0.0),), (0.0, float(y)), MODE_FLOAT)
             for y in (0.0, 4.0, 8.0)]
    pts = []
    for i in range(60):
        y = 4.0 * (i % 3) + rng.normal() * 0.3
        pts.append((rng.uniform(-5, 5), y))
    cloud = make_cloud(pts)
    naive = sum(min(dist2_point_flat(p, f) for f in lines) for p in pts)
    assert total_cost(cloud, lines) == pytest.approx(naive, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_total_cost_monotone_in_flats(seed):
    rng = np.random.default_rng(seed)
    cloud = make_cloud(rng.normal(size=(8, 2)) * 4)
    f1 = canonicalize_flat([tuple(rng.normal(size=2))], tuple(rng.normal(size=2)))
    f2 = canonicalize_flat([tuple(rng.normal(size=2))], tuple(rng.normal(size=2)))
    assert total_cost(cloud, [f1, f2]) <= total_cost(cloud, [f1]) + 1e-12


def test_total_cost_requires_flats():
    with pytest.raises(ValueError):
        total_cost(make_cloud([(0.0, 0.0)]), [])


def read_plane(coeffs):
    """The Hyperplane of one cover row whose coefficients are written as
    "num/den" text."""
    obj = {"hyperplanes": [[str(c) for c in coeffs]]}
    return fio.cover_solution_from_obj(obj).hyperplanes[0]


def test_hyperplane_normalization():
    assert Hyperplane((0, -2, 2)).coeffs == (0, 1, -1)
    assert read_plane(["0/1", "-2", "2/1"]).coeffs == (0, 1, -1)
    assert read_plane(["1/2", "1/3", "0"]).coeffs == (3, 2, 0)
    with pytest.raises(ValueError):
        read_plane(["1/1", "0", "0"])
    # Only ints build a plane; a float 0.5 is not read as 1/2.
    for coeffs in ((Fraction(1, 2), 1, 0), (0.5, 1, 0), (True, 1, 0)):
        with pytest.raises(ScalarModeError):
            Hyperplane(coeffs)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.fractions(min_value=-9, max_value=9), min_size=3, max_size=5),
       st.fractions(min_value=Fraction(1, 7), max_value=7))
def test_hyperplane_normalize_scale_invariant(coeffs, scale):
    if all(c == 0 for c in coeffs[1:]):
        coeffs = list(coeffs)
        coeffs[1] = Fraction(1)
    a = read_plane(coeffs)
    b = read_plane([c * scale for c in coeffs])
    assert a.coeffs == b.coeffs
    first = next(c for c in a.coeffs[1:] if c != 0)
    assert first > 0
    assert math.gcd(*[abs(int(c)) for c in a.coeffs]) == 1


def test_scalar_roundtrip():
    assert parse_scalar("3/2", MODE_RATIONAL) == Fraction(3, 2)
    assert parse_scalar("-7", MODE_RATIONAL) == -7
    assert type(parse_scalar("-7", MODE_RATIONAL)) is int
    assert type(parse_scalar(12, MODE_RATIONAL)) is int
    assert parse_scalar(1.5, MODE_FLOAT) == 1.5
    with pytest.raises(ScalarModeError):
        parse_scalar(1.5, MODE_RATIONAL)


def test_cloud_total_weight_and_validation():
    cloud = make_cloud([(0.0, 0.0), (1.0, 2.0)], mults=[3, 2])
    assert cloud.total_weight == 5
    # A record checks nothing itself; the cloud that holds it does.
    for mult in (0, -1):
        with pytest.raises(ValueError, match="multiplicity must be >= 1"):
            WeightedPointCloud(1, MODE_FLOAT, (PointRecord((1.0,), mult),))
    with pytest.raises(DimensionMismatchError):
        WeightedPointCloud(2, MODE_FLOAT, (PointRecord((1.0,), 1),))
    # Positions are hashed (distinct_positions), so a list is refused.
    with pytest.raises(TypeError, match="must be a tuple"):
        WeightedPointCloud(2, MODE_RATIONAL, (PointRecord([1, 2]),))


@pytest.mark.parametrize("source", [
    lambda: WeightedPointCloud.create([(0.5, 1.0), (2.0, 3.0)], MODE_FLOAT, [1, 4]),
    lambda: fio.cloud_from_obj({"dim": 2, "scalar": "rational",
                                "points": [{"coords": ["1/2", "3"], "mult": 2}]}),
    lambda: fio.cloud_from_csv("1.0,2.0,3\n4.5,-1.0,1\n", has_mult=True),
    lambda: planted_lines_cloud(9, 3, 0.1, 0)[0],
    lambda: random_cloud(6, 3, 0, max_mult=3),
    lambda: random_exact_cloud(6, 2, 0),
    lambda: ds_to_hyperplane_cover(path_graph(3), 2, allow_trivial=True).cloud,
    lambda: rmis_to_line_clustering(matching_color_graph(2, 4)).cloud,
    lambda: desanitize_multiset(rmis_to_line_clustering(
        matching_color_graph(2, 4), constants={"p": 2, "W": 8, "d_s": 3200, "d_l": 1000}))[0],
    lambda: WeightedPointCloud(2, MODE_RATIONAL,
                               (PointRecord((Fraction(1, 2), 3)), PointRecord((1, 0), 2))),
], ids=["create", "cloud_from_obj", "cloud_from_csv", "planted", "random", "random-exact",
        "ds_to_hyperplane_cover", "rmis_to_line_clustering", "desanitize_multiset",
        "lowest-terms"])
def test_every_cloud_source_yields_point_records(source):
    # PointRecord is the one record type, and its coords are a tuple.
    cloud = source()
    assert cloud.records
    assert all(type(rec) is PointRecord and type(rec.coords) is tuple
               for rec in cloud.records)


@pytest.mark.parametrize("text", ["2.5", "1e3", "1e10000000", " 1", "1 ", "1_000", "+-1",
                                  "1/-2", "1/+2", "1/2/3", "", "/2", "\u0661", "inf", "0x10"])
def test_rational_text_outside_the_documented_form_is_refused(text):
    with pytest.raises(ValueError):
        parse_scalar(text, MODE_RATIONAL)


def test_rational_scalar_types():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_scalar("1/0", MODE_RATIONAL)
    for bad in (True, None, 1.0):
        with pytest.raises(ScalarModeError):
            parse_scalar(bad, MODE_RATIONAL)


# ---------------------------------------------------------------------------
# rational clouds: int numerators over one denominator


def assert_canonical(cloud, values):
    """``cloud`` holds ``values`` (Fraction rows, one per record) in lowest terms."""
    assert all(type(c) is int for r in cloud.records for c in r.coords)
    assert [tuple(Fraction(c, cloud.den) for c in r.coords) for r in cloud.records] == values
    assert cloud.den == math.lcm(*(Fraction(c).denominator for row in values for c in row))
    assert math.gcd(cloud.den, *(c for r in cloud.records for c in r.coords)) == 1


def assert_round_trips(cloud):
    text = fio.dumps_canonical(fio.cloud_to_obj(cloud))
    back = fio.cloud_from_obj(json.loads(text))
    assert back == cloud
    assert fio.dumps_canonical(fio.cloud_to_obj(back)) == text


def test_rational_cloud_canonical_form():
    cloud = WeightedPointCloud.create([(Fraction(1, 2), 3), (Fraction(-5, 6), 0)],
                                      MODE_RATIONAL)
    assert cloud.den == 6 and [r.coords for r in cloud.records] == [(3, 18), (-5, 0)]
    # The same points as numerators over any other denominator: one form.
    scaled = WeightedPointCloud(2, MODE_RATIONAL,
                                tuple(PointRecord((c * 5, d * 5)) for c, d in
                                      (r.coords for r in cloud.records)), 30)
    assert scaled == cloud
    assert WeightedPointCloud.create([(2, 4)], MODE_RATIONAL).den == 1
    with pytest.raises(ValueError):
        WeightedPointCloud(1, MODE_RATIONAL, (PointRecord((1,)),), 0)
    with pytest.raises(ValueError):
        WeightedPointCloud(1, MODE_FLOAT, (PointRecord((1.0,)),), 2)
    with pytest.raises(ScalarModeError):
        WeightedPointCloud.create([(Fraction(1, 2), 0.5)], MODE_RATIONAL)


RATIONALS = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@st.composite
def fraction_clouds(draw):
    """(dim, Fraction rows, multiplicities) with repeated coordinates likely."""
    dim = draw(st.integers(1, 3))
    pool = draw(st.lists(RATIONALS, min_size=1, max_size=6))
    rows = draw(st.lists(st.tuples(*[st.sampled_from(pool) | RATIONALS] * dim),
                         min_size=1, max_size=8))
    mults = draw(st.lists(st.integers(1, 5), min_size=len(rows), max_size=len(rows)))
    return dim, rows, mults


@settings(max_examples=60, deadline=None)
@given(fraction_clouds(), st.data())
def test_fraction_clouds_are_canonical_and_exact(drawn, data):
    dim, rows, mults = drawn
    # Integer values may come in as ints, the rest as Fractions.
    given_rows = [tuple(int(c) if c.denominator == 1 and c % 2 else c for c in row)
                  for row in rows]
    cloud = WeightedPointCloud.create(given_rows, MODE_RATIONAL, mults)
    assert_canonical(cloud, rows)
    assert_round_trips(cloud)
    # Planes x1 = c for a subset of the first coordinates, which cover the
    # cloud when every first coordinate is among them, and two random planes.
    firsts = sorted({row[0] for row in rows})
    kept = data.draw(st.lists(st.sampled_from(firsts), unique=True, max_size=len(firsts)))
    planes = [integer_plane((-c, 1) + (0,) * (dim - 1)) for c in kept]
    planes += data.draw(st.lists(st.builds(
        lambda cs: integer_plane((cs[0], 1) + tuple(cs[1:])),
        st.lists(RATIONALS, min_size=dim, max_size=dim)), max_size=2))
    assert verify_cover(cloud, planes) == fraction_covers(cloud, planes)
    if dim == 2:
        lines = [AxisLine(axis, c) for axis, c in data.draw(st.lists(
            st.tuples(st.sampled_from("hv"), st.sampled_from(firsts) | RATIONALS),
            min_size=1, max_size=4))]
        assert exact_cloud_cost(cloud, lines) == fraction_cloud_cost(cloud, lines)
