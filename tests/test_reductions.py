import hashlib
import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from flatcover.cover import solve_cover, verify_cover
from flatcover.generators import matching_color_graph, min_dominating_size
from flatcover.geometry import Hyperplane
from flatcover.reductions import (
    AxisLine,
    ColoredGraph,
    RmisParameters,
    build_theta_tables,
    cover_to_dominating_set,
    desanitize_multiset,
    dominating_set_to_cover_witness,
    ds_to_hyperplane_cover,
    exact_solution_cost,
    gadget_tables,
    independent_set_to_lines,
    rmis_budget,
    rmis_to_line_clustering,
    vandermonde_value,
)
from flatcover import io as fio
from oracles import (
    fraction_cloud_cost,
    fraction_covers,
    full_rank,
    on_plane,
    path_graph,
    ring_color_graph,
    star_graph,
)

TOY_CONSTANTS = {"p": 2, "W": 8, "d_s": 3200, "d_l": 1000}


# ---------------------------------------------------------------------------
# Dominating Set -> Hyperplane Cover


def test_ds_instance_shape_path3():
    g = path_graph(3)
    inst = ds_to_hyperplane_cover(g, 2, allow_trivial=True)
    d = 3
    assert inst.cloud.dim == d
    assert len(inst.cloud.records) == d * d * 2
    # Vertex a (=0) has N[a] = {0, 1}: coordinates 1 and 2 are one, the third
    # coordinate of global row i is (i+1)^3.
    for i in range(1, d * 2 + 1):
        coords = inst.cloud.records[i - 1].coords
        assert coords[0] == 1 and coords[1] == 1
        assert coords[2] == Fraction((i + 1) ** 3)


def test_ds_points_lie_on_neighborhood_planes():
    g = path_graph(3)
    inst = ds_to_hyperplane_cover(g, 2, allow_trivial=True)
    from flatcover.reductions import axis_one_plane
    rows = 3 * 2  # vertex v owns rows v*d*k'+1 .. (v+1)*d*k'
    for v in range(3):
        for u in g.closed_neighborhood(v):
            plane = axis_one_plane(3, u)
            for rec in inst.cloud.records[v * rows:(v + 1) * rows]:
                assert on_plane(plane, rec.coords)


def test_ds_instance_rejects_universal_vertex():
    with pytest.raises(ValueError):
        ds_to_hyperplane_cover(star_graph(3), 2)
    with pytest.raises(ValueError):
        ds_to_hyperplane_cover(path_graph(3), 1)


def test_vandermonde_leading_minor_nonzero():
    M = [[vandermonde_value(i, j) for j in range(1, 5)] for i in range(1, 5)]
    assert full_rank(M)


def test_vandermonde_random_minors_nonzero():
    rng = np.random.default_rng(0)
    size = 30
    for _ in range(100):
        order = int(rng.integers(2, 6))
        rows = sorted(rng.choice(size, size=order, replace=False) + 1)
        cols = sorted(rng.choice(size, size=order, replace=False) + 1)
        M = [[vandermonde_value(int(i), int(j)) for j in cols] for i in rows]
        assert full_rank(M)


def test_forward_witness_path3():
    g = path_graph(3)
    inst = ds_to_hyperplane_cover(g, 2, allow_trivial=True)
    planes = dominating_set_to_cover_witness(inst, {1})
    assert len(planes) == 1
    assert planes[0].coeffs == (-1, 0, 1, 0)
    assert verify_cover(inst.cloud, planes)


def test_forward_witness_whole_vertex_set():
    g = path_graph(4)  # no universal vertex
    inst = ds_to_hyperplane_cover(g, 4)
    planes = dominating_set_to_cover_witness(inst, {0, 1, 2, 3})
    assert verify_cover(inst.cloud, planes)


def test_forward_witness_star_center():
    # Star with center 0: one plane through the center's coordinate covers
    # everything (the center is adjacent to all, hence allow_trivial).
    g = star_graph(3)
    inst = ds_to_hyperplane_cover(g, 2, allow_trivial=True)
    planes = dominating_set_to_cover_witness(inst, {0})
    assert len(planes) == 1
    assert verify_cover(inst.cloud, planes)


def test_forward_witness_refuses_malformed_sets():
    # A set with a vertex outside the graph or more than k vertices is
    # refused; a set that does not dominate maps to planes that miss a point.
    g = path_graph(4)
    inst = ds_to_hyperplane_cover(g, 2)
    for malformed in ({0, 4}, {-1}, {0, 1, 3}):
        with pytest.raises(ValueError):
            dominating_set_to_cover_witness(inst, malformed)
    assert not verify_cover(inst.cloud, dominating_set_to_cover_witness(inst, {0}))


def test_reverse_extraction_path3():
    g = path_graph(3)
    inst = ds_to_hyperplane_cover(g, 2, allow_trivial=True)
    planes = dominating_set_to_cover_witness(inst, {1})
    assert cover_to_dominating_set(inst, planes) == {1}


def test_reverse_extraction_round_trip():
    g = ColoredGraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
    inst = ds_to_hyperplane_cover(g, 2)
    planes = dominating_set_to_cover_witness(inst, {1, 2})
    extracted = cover_to_dominating_set(inst, planes)
    assert g.is_dominating(extracted)
    assert len(extracted) <= 2


def test_reverse_extraction_rejects_non_cover():
    g = path_graph(3)
    inst = ds_to_hyperplane_cover(g, 2, allow_trivial=True)
    stray = Hyperplane((-7, 1, 0, 0))
    with pytest.raises(ValueError):
        cover_to_dominating_set(inst, [stray])


def test_ds_equivalence_on_sample_graphs():
    # Wider sweep lives in the acceptance suite; spot-check both directions.
    # Connected graphs on <= 5 vertices always dominate with 2 vertices
    # (gamma <= n/2), so the NO side needs disconnected samples.
    cases = [
        path_graph(4),
        ColoredGraph(4, frozenset({(0, 1), (2, 3)})),  # disconnected matching
        ColoredGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})),
        ColoredGraph(5, frozenset({(0, 1), (2, 3)})),  # isolated vertex: gamma = 3
        ColoredGraph(6, frozenset({(0, 1), (2, 3), (4, 5)})),  # gamma = 3
    ]
    for g in cases:
        inst = ds_to_hyperplane_cover(g, 2)
        has_ds = min_dominating_size(g, 2) is not None
        sol = solve_cover(inst.cloud, 2)
        assert (sol is not None) == has_ds
        if sol is not None:
            extracted = cover_to_dominating_set(inst, sol.hyperplanes)
            assert g.is_dominating(extracted)
    assert min_dominating_size(cases[3], 2) is None
    assert min_dominating_size(cases[4], 2) is None


# ---------------------------------------------------------------------------
# RMIS -> Line Clustering


def toy_instance(ell=2, nu=4):
    g = matching_color_graph(ell, nu)
    return rmis_to_line_clustering(g, faithful=False, constants=TOY_CONSTANTS)


def test_theta_tables_match_definition():
    tab = build_theta_tables(4, 2, 2)
    # theta(i) = sum_{a<=i} (3(i-a))^2 + sum_{b>=i} (3(nu-b))^2
    assert tab.theta == (126, 54, 54, 126)
    assert tab.phi == tuple(2 * 2 * 3 * t for t in tab.theta)
    assert all(t > 16 for t in tab.theta)


def test_gadget_facts_hold_by_construction():
    # What the construction promises of every parameter set, from the
    # parameters alone: theta(i) > nu^2 (the least ratio is 2.25, at nu = 2),
    # k^2 + 2k frame-grid positions for k = 2*ell + 4, and B <= n^32 in
    # faithful mode, where p = n^10, W = n^30, d_s = n^40 and d_l = n^90.
    for nu in range(2, 401, 2):
        assert min(build_theta_tables(nu, 1, 1).theta) > nu * nu
    for ell in range(1, 51):
        par = RmisParameters(ell=ell, nu=2, n=2 * ell, q=1, p=1, W=1, d_s=10**6, d_l=4,
                             faithful=False)
        gad, k = gadget_tables(par), 2 * ell + 4
        assert (len(gad.gh_rows) * len(gad.gh_cols)
                + len(gad.gv_rows) * len(gad.gv_cols)) == k * k + 2 * k
    for ell, nu, q in ((11, 1332, 2), (12, 1732, 1), (13, 2200, 3)):
        n = ell * nu
        par = RmisParameters(ell=ell, nu=nu, n=n, q=q, p=n**10, W=n**30, d_s=n**40,
                             d_l=n**90, faithful=True)
        assert rmis_budget(par, build_theta_tables(nu, par.p, ell)) <= n ** 32


def test_relaxed_instance_counts_default_constants():
    g = matching_color_graph(2, 4)
    inst = rmis_to_line_clustering(g, faithful=False)
    n, k = inst.params.n, inst.k
    assert k == 2 * 2 + 4
    assert inst.params.p == n ** 10 and inst.params.W == n ** 30
    # Literal frame family size: 8 n^90 plus the grid positions.
    sl = inst.meta["family_slices"]
    f_weight = sum(r.mult for r in inst.cloud.records[sl["F"][0]:sl["F"][1]])
    assert f_weight == 8 * n ** 90 + k * k + 2 * k
    zv = sum(r.mult for r in inst.cloud.records[sl["Z_v"][0]:sl["Z_v"][1]])
    assert zv == n * inst.params.W


def test_toy_instance_audit_and_structure():
    inst = toy_instance()
    # Distinct positions: no accidental collisions between families.
    positions = [r.coords for r in inst.cloud.records]
    assert len(positions) == len(set(positions))


def test_faithful_mode_rejects_bad_parameters():
    with pytest.raises(ValueError):
        rmis_to_line_clustering(matching_color_graph(2, 4), faithful=True)
    g = ring_color_graph(3, 4)
    with pytest.raises(ValueError):
        rmis_to_line_clustering(g, faithful=True)  # ell <= 10


def test_faithful_instance_counts_only_audit():
    # Smallest parameter set satisfying nu > ell^3, ell > 10, 4 | nu.
    g = ring_color_graph(11, 1332)
    inst = rmis_to_line_clustering(g, faithful=True)
    assert not inst.materialized
    n = inst.params.n
    assert inst.B <= n ** 32
    assert inst.k == 2 * 11 + 4


def test_faithful_matching_graph_neighbours_are_quick():
    # Neighbours come from an adjacency built once, so a domination check and
    # the gadget's conflicts are linear in the edges.  Scanning every edge
    # per vertex took about 2*10^8 edge visits on this graph, the faithful
    # ell = 12, nu = 1732 one (20,784 vertices, 10,392 edges).
    t0 = time.perf_counter()
    g = matching_color_graph(12, 1732)
    even = [u for cls in g.colors[::2] for u in cls]
    assert g.is_dominating(even) and not g.is_dominating(even[1:])
    assert g.uniform_degree() == 1 and g.neighbors(0) == {1732}
    assert time.perf_counter() - t0 < 2.0


def test_relaxed_graph_validation():
    with pytest.raises(ValueError):
        rmis_to_line_clustering(matching_color_graph(2, 3))  # nu odd
    colorless = path_graph(4)
    with pytest.raises(ValueError):
        rmis_to_line_clustering(colorless)


@pytest.mark.parametrize("name,value", [("p", 0), ("W", 0), ("W", -5)])
def test_counts_only_gadget_refuses_stack_weights_below_one(name, value):
    # The budget counts X stacks of weight p and Z stacks of at least W, so
    # both are refused below 1 even when no record is built.
    with pytest.raises(ValueError, match=f"{name} is .* must be >= 1, got {value}"):
        rmis_to_line_clustering(matching_color_graph(2, 8000), constants={name: value})


def test_independent_selection_meets_budget():
    # Paper constants, ell=2, nu=8: near-center independent selections fit
    # under the budget; the wider sweep lives in the acceptance suite.
    g = matching_color_graph(2, 8)
    inst = rmis_to_line_clustering(g)
    lines = independent_set_to_lines(inst, (4, 5))
    assert len(lines) == inst.k
    cost = exact_solution_cost(inst, lines)
    assert cost <= inst.B


def test_selected_lines_hit_expected_weights():
    inst = toy_instance()
    lines = independent_set_to_lines(inst, (1, 2))
    hs = {l.c for l in lines if l.axis == "h"}
    vs = {l.c for l in lines if l.axis == "v"}
    # Fixed lines hit all eight corner stacks at distance zero.
    half = inst.gadget.half
    assert {half, -half} <= hs and {half, -half} <= vs
    corner_weight = 0
    for rec in inst.cloud.records:
        x, y = rec.coords
        if rec.mult > 1 and (y in (half, -half) or x in (half, -half)):
            corner_weight += rec.mult - 1
    assert corner_weight == 8 * inst.params.d_l
    # Each selected h line carries weight n*p of X stacks exactly.
    sl = inst.meta["family_slices"]
    n, p = inst.params.n, inst.params.p
    for i, j in ((1, 1), (2, 2)):
        y = inst.gadget.h_y[i - 1][j - 1]
        w = sum(r.mult for r in inst.cloud.records[sl["X"][0]:sl["X"][1]]
                if r.coords[1] == y)
        assert w == n * p


# sha256 of the nu = 8 matching-graph gadget's written cloud text: how the
# gadget is built and written may change, but not these bytes.
NU8_CLOUD_SHA256 = "ce3a39c2df47eb160aeab1fa7b12e8ecffecd88a55e346205cf2c9c246345976"


@pytest.mark.parametrize("nu,constants", [
    (4, None), (8, None), (8, {"p": 1000, "W": 10**7, "d_s": 10**5, "d_l": 10**6}),
    (8000, None)], ids=["nu4", "nu8", "nu8-override", "nu8000-counts-only"])
def test_gadget_rows_write_and_cost_as_its_cloud(nu, constants):
    # The file holds the gadget's cloud (null when counts-only), and its
    # exact cost by family matches the brute-force oracle for every
    # selection.  A counts-only gadget is priced the same way.
    inst = rmis_to_line_clustering(matching_color_graph(2, nu), constants=constants)
    written = fio.rmis_instance_to_obj(inst)["cloud"]
    if inst.cloud is None:
        assert written is None and not inst.materialized
        independent = exact_solution_cost(inst, independent_set_to_lines(inst, (1, 2)))
        conflicting = exact_solution_cost(inst, independent_set_to_lines(inst, (1, 1)))
        assert independent.denominator == 1 and independent <= inst.B < conflicting
        return
    if nu == 8 and constants is None:
        text = fio.dumps_canonical(written).encode()
        assert hashlib.sha256(text).hexdigest() == NU8_CLOUD_SHA256
    for selection in itertools.product(range(1, nu + 1), repeat=2):
        lines = independent_set_to_lines(inst, selection)
        assert exact_solution_cost(inst, lines) == fraction_cloud_cost(inst.cloud, lines)


def test_budget_separates_independent_from_conflicting():
    # Paper constants, ell=2, nu=4: the conflict penalty of p per ordered
    # conflicting pair dwarfs every frame-grid term.
    g = matching_color_graph(2, 4)
    inst = rmis_to_line_clustering(g)
    p, n = inst.params.p, inst.params.n
    independent = exact_solution_cost(inst, independent_set_to_lines(inst, (2, 3)))
    conflicting = exact_solution_cost(inst, independent_set_to_lines(inst, (2, 2)))
    frame_wobble = (inst.k + 2) * 2 * (9 * nu_sq(inst) + (10 * n * n * 2 + 1) ** 2)
    assert conflicting - independent >= 2 * p - frame_wobble
    assert conflicting > inst.B


def nu_sq(inst):
    return (inst.params.nu // 2) ** 2


def test_family_cost_matches_a_per_record_sum():
    # The oracle sums every record against every line.  Ring graphs have
    # q = 2 neighbours per vertex and three color classes; lines at
    # fractional heights, and lines of one axis only, leave no ties or
    # empty tables untried.
    for g, constants, selections in (
            (ring_color_graph(3, 4), dict(TOY_CONSTANTS, d_s=10**4),
             itertools.product(range(1, 5), repeat=3)),
            (ring_color_graph(3, 6), None, [(1, 1, 1), (1, 2, 3), (6, 5, 6), (3, 4, 4)]),
            (matching_color_graph(4, 2), {"p": 3, "W": 2, "d_s": 10**5, "d_l": 1000},
             itertools.product(range(1, 3), repeat=4))):
        inst = rmis_to_line_clustering(g, constants=constants)
        for selection in selections:
            lines = independent_set_to_lines(inst, selection)
            assert exact_solution_cost(inst, lines) == fraction_cloud_cost(inst.cloud, lines)
        half = inst.gadget.half
        for lines in ([AxisLine("h", half), AxisLine("h", Fraction(-half, 3))],
                      [AxisLine("v", Fraction(1, 2)), AxisLine("v", -half)],
                      [AxisLine("h", inst.gadget.h_y[0][0] + Fraction(3, 2)),
                       AxisLine("v", inst.gadget.s_x[1][0] - Fraction(1, 2))]):
            assert exact_solution_cost(inst, lines) == fraction_cloud_cost(inst.cloud, lines)
    with pytest.raises(ValueError, match="at least one line"):
        exact_solution_cost(inst, [])


def test_desanitized_cloud_is_canonical_and_exact():
    inst = toy_instance()
    cloud, _ = desanitize_multiset(inst)
    # Numerators x*den + t over den = 3*B*N^2, in lowest terms.
    assert cloud.den == 3 * inst.B * inst.cloud.total_weight ** 2
    assert all(type(c) is int for r in cloud.records for c in r.coords)
    assert math.gcd(cloud.den, *(c for r in cloud.records for c in r.coords)) == 1
    text = fio.dumps_canonical(fio.cloud_to_obj(cloud))
    back = fio.cloud_from_obj(json.loads(text))
    assert back == cloud and fio.dumps_canonical(fio.cloud_to_obj(back)) == text
    # The horizontal lines through every original row cover the spread points.
    rows = sorted({r.coords[1] for r in inst.cloud.records})
    planes = [Hyperplane((-y, 0, 1)) for y in rows]
    assert verify_cover(cloud, planes) and fraction_covers(cloud, planes)
    assert not verify_cover(cloud, planes[1:]) and not fraction_covers(cloud, planes[1:])


def test_desanitize_contract():
    inst = toy_instance()
    cloud, b_prime = desanitize_multiset(inst)
    assert b_prime == inst.B + 1
    N = inst.cloud.total_weight
    assert cloud.total_weight == N
    assert all(r.mult == 1 for r in cloud.records)
    positions = [tuple(Fraction(c, cloud.den) for c in r.coords) for r in cloud.records]
    assert len(set(positions)) == len(positions)
    delta = Fraction(1, 3 * inst.B * N)
    den_cap = 3 * inst.B * N * N
    assert inst.cloud.den == 1
    # Spot-check a sample against the originals.
    originals = []
    for rec in inst.cloud.records:
        originals.extend([rec.coords] * rec.mult)
    idx = np.random.default_rng(1).choice(len(positions), size=500, replace=False)
    for i in idx:
        (x, y), (ox, oy) = positions[i], originals[i]
        assert (x - ox) ** 2 + (y - oy) ** 2 <= delta ** 2
        assert x.denominator <= den_cap and Fraction(y).denominator <= den_cap


def test_desanitize_cost_shift_below_one():
    inst = toy_instance()
    lines = independent_set_to_lines(inst, (2, 3))
    before = exact_solution_cost(inst, lines)
    after_cloud, _ = desanitize_multiset(inst)
    after = fraction_cloud_cost(after_cloud, lines)
    assert abs(after - before) < 1


def test_desanitize_multiplicity_one_unchanged():
    inst = toy_instance()
    cloud, _ = desanitize_multiset(inst)
    # Records of multiplicity one keep their exact coordinates (offset t=0).
    src = [r.coords for r in inst.cloud.records if r.mult == 1]
    got = {tuple(Fraction(c, cloud.den) for c in r.coords) for r in cloud.records}
    for pos in src[:50]:
        assert (Fraction(pos[0]), Fraction(pos[1])) in got
