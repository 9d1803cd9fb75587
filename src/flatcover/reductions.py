"""Executable hardness-reduction generators with exact big-rational auditing.

Two constructions are materialized:

* Dominating Set -> Hyperplane Cover.  Each vertex v of a d-vertex graph
  becomes d*k' points in R^d whose coordinates are 1 on the closed
  neighborhood of v and Vandermonde values elsewhere; k hyperplanes cover the
  points exactly when the graph has a dominating set of size k.  Witnesses
  convert in both directions.

* Regular Multicolored Independent Set -> Line Clustering.  A planar gadget:
  a frame of two far-apart grids pins four fixed lines and forces every
  useful solution line to hug one horizontal bundle line h_i^j or one
  vertical line s_i^j; stacks of points encode vertex choices and conflicts
  (edges and same-color pairs), and an exact integer budget B separates
  independent from non-independent selections.

Instances carry exact integer coordinates (multiplicity-compressed, since
corner stacks are astronomically heavy) plus the coordinate tables needed to
re-derive every count and the budget independently.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .cover import verify_cover
from .errors import GuardLimitError, IntegrityError, ScalarModeError
from .geometry import (
    MODE_RATIONAL,
    Hyperplane,
    PointRecord,
    WeightedPointCloud,
)
from .util import DEFAULT_COORD_GUARD, DEFAULT_NODE_GUARD, resolve_guard

# Instances whose record count exceeds this are kept in counts-only form.
MATERIALIZE_RECORD_LIMIT = 500_000


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class ColoredGraph:
    """Simple loop-free graph, optionally with an equal-size color partition.

    Vertices are 0-based integers.  When colors are present, every class has
    the same size and no edge joins two vertices of the same class.
    """

    n_vertices: int
    edges: frozenset  # of sorted 2-tuples
    colors: tuple | None = None

    def __post_init__(self):
        edges = frozenset(tuple(sorted((int(u), int(v)))) for u, v in self.edges)
        for u, v in edges:
            if u == v:
                raise ValueError("loops are not allowed")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError("edge endpoint out of range")
        object.__setattr__(self, "edges", edges)
        if self.colors is not None:
            classes = tuple(tuple(int(v) for v in cls) for cls in self.colors)
            seen = [v for cls in classes for v in cls]
            if (len(seen) != self.n_vertices
                    or sorted(seen) != list(range(self.n_vertices))):
                raise ValueError("colors must partition the vertex set")
            sizes = {len(cls) for cls in classes}
            if len(sizes) != 1:
                raise ValueError("color classes must have equal size")
            color_of = {}
            for i, cls in enumerate(classes):
                for v in cls:
                    color_of[v] = i
            for u, v in edges:
                if color_of[u] == color_of[v]:
                    raise ValueError("edge inside a color class")
            object.__setattr__(self, "colors", classes)

    def degree_map(self) -> dict:
        deg = {v: 0 for v in range(self.n_vertices)}
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def neighbors(self, v: int) -> set:
        return {u if w == v else w for u, w in self.edges if v in (u, w)}

    def closed_neighborhood(self, v: int) -> set:
        return self.neighbors(v) | {v}

    def is_dominating(self, subset: Iterable[int]) -> bool:
        s = set(subset)
        return all(self.closed_neighborhood(v) & s for v in range(self.n_vertices))

    def uniform_degree(self) -> int:
        degs = set(self.degree_map().values())
        if len(degs) != 1:
            raise ValueError("graph is not regular")
        return degs.pop()

    def sha256(self) -> str:
        payload = {
            "n": self.n_vertices,
            "edges": sorted(self.edges),
            "colors": [list(c) for c in self.colors] if self.colors else None,
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Dominating Set -> Hyperplane Cover


@dataclass(frozen=True)
class VandermondeInstance:
    cloud: WeightedPointCloud
    k: int
    graph: ColoredGraph
    meta: dict = field(compare=False)

    @property
    def dim(self) -> int:
        return self.cloud.dim


def vandermonde_value(row: int, col: int) -> int:
    """Entry of the power table used for unset coordinates: base row+1 raised
    to col, with row and col 1-based.  Every square submatrix over distinct
    positive bases has nonzero determinant, which is what the reduction's
    reverse direction leans on."""
    return (row + 1) ** col


def ds_to_hyperplane_cover(g: ColoredGraph, k_prime: int, *,
                           allow_trivial: bool = False,
                           guard: int | None = None) -> VandermondeInstance:
    """Build the d^2*k' point instance in R^d from a Dominating Set question.

    Point rows are grouped by vertex: vertex v (0-based) owns rows
    v*d*k'+1 .. (v+1)*d*k', coordinate v+1 is its own axis, and the points
    carry 1 on every coordinate in v's closed neighborhood.

    A vertex adjacent to all others makes the question trivially YES and its
    point group degenerates to one repeated position; such graphs are
    rejected unless ``allow_trivial`` is set (the construction itself stays
    sound, only the hardness content evaporates).

    ``guard`` caps the d^3*k' coordinates (default DEFAULT_COORD_GUARD); a
    larger instance raises GuardLimitError before any record is built.
    """
    d = g.n_vertices
    if d <= 1:
        raise ValueError("the source graph needs at least two vertices")
    if k_prime <= 1:
        raise ValueError("k' must be greater than 1")
    if not allow_trivial:
        for v, deg in g.degree_map().items():
            if deg == d - 1:
                raise ValueError(
                    f"vertex {v} is adjacent to all others; the instance "
                    "would be trivial (pass allow_trivial to build it anyway)")
    cap = resolve_guard(DEFAULT_COORD_GUARD, guard)
    if d ** 3 * k_prime > cap:
        raise GuardLimitError(
            f"instance too large: d^3*k' = {d ** 3 * k_prime} coordinates exceed {cap}")
    rows_per_vertex = d * k_prime
    records = []
    groups = {}
    row = 1
    for v in range(d):
        closed = {u + 1 for u in g.closed_neighborhood(v)}
        start = row
        for _ in range(rows_per_vertex):
            coords = tuple(
                Fraction(1) if j in closed else Fraction(vandermonde_value(row, j))
                for j in range(1, d + 1))
            records.append(PointRecord(coords, 1))
            row += 1
        groups[v] = (start, row - 1)
    cloud = WeightedPointCloud(d, MODE_RATIONAL, tuple(records))
    meta = {
        "rows_per_vertex": rows_per_vertex,
        "groups": groups,
        "base_numbers": (2, d * d * k_prime + 1),
        "graph_sha256": g.sha256(),
    }
    return VandermondeInstance(cloud=cloud, k=k_prime, graph=g, meta=meta)


def axis_one_plane(d: int, vertex: int) -> Hyperplane:
    """The hyperplane x[vertex+1] = 1 in R^d."""
    coeffs = [Fraction(-1)] + [Fraction(0)] * d
    coeffs[vertex + 1] = Fraction(1)
    return Hyperplane(tuple(coeffs))


def dominating_set_to_cover_witness(inst: VandermondeInstance,
                                    subset: Iterable[int]) -> list[Hyperplane]:
    """Forward witness: the planes x[i] = 1 for i in the dominating set."""
    subset = sorted(set(int(v) for v in subset))
    if any(not 0 <= v < inst.graph.n_vertices for v in subset):
        raise ValueError(f"witness vertices must lie in 0..{inst.graph.n_vertices - 1}")
    if len(subset) > inst.k:
        raise ValueError(f"witness has {len(subset)} vertices but k = {inst.k}")
    if not inst.graph.is_dominating(subset):
        raise ValueError("the supplied vertex set is not dominating")
    planes = [axis_one_plane(inst.dim, v) for v in subset]
    if not verify_cover(inst.cloud, planes):
        raise IntegrityError("forward witness fails to cover the instance")
    return planes


def cover_to_dominating_set(inst: VandermondeInstance,
                            planes: Sequence[Hyperplane]) -> set:
    """Reverse witness extraction via nonzero-coefficient analysis.

    For each plane, the vertex groups it contains in full all share the
    plane's nonzero coordinate support inside their closed neighborhoods, so
    the intersection of those neighborhoods is nonempty; its smallest member
    dominates all of them.  An empty intersection or a non-dominating result
    signals a violated construction invariant and raises, never repairs.
    """
    if not verify_cover(inst.cloud, planes):
        raise ValueError("the supplied planes do not cover the instance")
    d = inst.dim
    records = inst.cloud.records
    result: set[int] = set()
    for plane in planes:
        full_groups = []
        for v, (start, end) in inst.meta["groups"].items():
            if all(plane.contains(records[i - 1].coords) for i in range(start, end + 1)):
                full_groups.append(v)
        if not full_groups:
            continue
        common = inst.graph.closed_neighborhood(full_groups[0])
        for v in full_groups[1:]:
            common &= inst.graph.closed_neighborhood(v)
        if not common:
            raise IntegrityError(
                "fully covered groups have disjoint closed neighborhoods")
        result.add(min(common))
    if not inst.graph.is_dominating(result):
        raise IntegrityError("extracted vertex set does not dominate the graph")
    if len(result) > len(planes):
        raise IntegrityError("extracted set larger than the number of planes")
    return result


# ---------------------------------------------------------------------------
# Regular Multicolored Independent Set -> Line Clustering


@dataclass(frozen=True)
class RmisParameters:
    ell: int
    nu: int
    n: int
    q: int
    p: int
    W: int
    d_s: int
    d_l: int
    B: int
    faithful: bool


@dataclass(frozen=True)
class ThetaTables:
    theta: tuple
    phi: tuple
    phi_prime: tuple


@dataclass(frozen=True)
class AxisLine:
    """Axis-aligned line: y = c for axis "h", x = c for axis "v"."""

    axis: str
    c: object

    def __post_init__(self):
        if self.axis not in ("h", "v"):
            raise ValueError("axis must be 'h' or 'v'")


@dataclass(frozen=True)
class RmisInstance:
    cloud: Optional[WeightedPointCloud]
    k: int
    B: int
    params: RmisParameters
    tables: ThetaTables
    meta: dict = field(compare=False)

    @property
    def materialized(self) -> bool:
        return self.cloud is not None


def build_theta_tables(nu: int, p: int, ell: int) -> ThetaTables:
    theta = []
    for i in range(1, nu + 1):
        t = sum((3 * (i - a)) ** 2 for a in range(1, i + 1)) \
            + sum((3 * (nu - b)) ** 2 for b in range(i, nu + 1))
        theta.append(t)
    phi = tuple(p * ell * (nu - 1) * t for t in theta)
    phi_prime = tuple(p * ell * nu * t for t in theta)
    return ThetaTables(tuple(theta), phi, phi_prime)


def rmis_budget(params: RmisParameters, tables: ThetaTables) -> int:
    n, ell, nu, q = params.n, params.ell, params.nu, params.q
    W, p = params.W, params.p
    return (n ** 7 + (n - ell) * W
            + ell * sum(W + phi for phi in tables.phi)
            - ell * W
            + ell * p * (n - nu + 1 - q - ell))


def _paper_constants(n: int) -> dict:
    return {"p": n ** 10, "W": n ** 30, "d_s": n ** 40, "d_l": n ** 90}


def _vertex_conflicts(g: ColoredGraph, color_of: dict, u: int, v: int) -> bool:
    """Conflict: adjacent, or two distinct vertices of the same color."""
    if u == v:
        return False
    if color_of[u] == color_of[v]:
        return True
    return tuple(sorted((u, v))) in g.edges


def rmis_to_line_clustering(g: ColoredGraph, faithful: bool = False, *,
                            constants: dict | None = None,
                            materialize: bool | None = None) -> RmisInstance:
    """Build the planar clustering instance from a color-regular graph.

    Faithful mode enforces the parameter regime the hardness argument
    assumes (nu divisible by 4, nu > ell^3, ell > 10) and pins the constants
    to their defining powers of n.  Relaxed mode only requires nu even,
    permits explicit constant overrides for desk-scale experiments, and
    records every waived assumption in the instance metadata; such instances
    carry no hardness guarantee and are labeled accordingly.
    """
    if g.colors is None:
        raise ValueError("the source graph needs a color partition")
    ell = len(g.colors)
    nu = len(g.colors[0])
    n = g.n_vertices
    q = g.uniform_degree()
    warnings = []
    if faithful:
        if constants is not None:
            raise ValueError("constant overrides are only allowed in relaxed mode")
        if nu % 4 != 0:
            raise ValueError("faithful mode requires nu divisible by 4")
        if not (nu > ell ** 3):
            raise ValueError("faithful mode requires nu > ell^3")
        if not (ell > 10):
            raise ValueError("faithful mode requires ell > 10")
    else:
        if nu % 2 != 0:
            raise ValueError("nu must be even (the construction indexes line nu/2)")
        if nu % 4 != 0:
            warnings.append("nu not divisible by 4")
        if not (nu > ell ** 3):
            warnings.append("nu <= ell^3")
        if not (ell > 10):
            warnings.append("ell <= 10")
    consts = _paper_constants(n)
    if constants:
        unknown = set(constants) - set(consts)
        if unknown:
            raise ValueError(f"unknown constant overrides: {sorted(unknown)}")
        consts.update({key: int(val) for key, val in constants.items()})
        warnings.append("constant overrides in effect")
    p, W, d_s, d_l = consts["p"], consts["W"], consts["d_s"], consts["d_l"]
    if d_l % 2 or d_l < 4:
        raise ValueError("d_l must be even and at least 4")
    if ((ell + 1) * d_s) % 2:
        raise ValueError("(ell+1)*d_s must be even to center the frame on integers")
    if d_s <= 10 * n * n * nu + 3 * nu + 4:
        raise ValueError("d_s too small: line bundles would overlap the frame")

    tables = build_theta_tables(nu, p, ell)
    k = 2 * ell + 4
    params = RmisParameters(ell=ell, nu=nu, n=n, q=q, p=p, W=W, d_s=d_s, d_l=d_l,
                            B=0, faithful=faithful)
    B = rmis_budget(params, tables)
    params = RmisParameters(ell=ell, nu=nu, n=n, q=q, p=p, W=W, d_s=d_s, d_l=d_l,
                            B=B, faithful=faithful)

    half = (ell + 1) * d_s // 2
    # Line coordinate tables, indexed [i-1][j-1].
    nu_half = nu // 2
    h_y = [[half - i * d_s + 3 * (nu_half - j) for j in range(1, nu + 1)]
           for i in range(1, ell + 1)]
    v_x = [[-half + i * d_s + 10 * n * n * (j - nu_half) for j in range(1, nu + 1)]
           for i in range(1, ell + 1)]
    s_x = [[x - 1 for x in row] for row in v_x]

    gh_rows = [half - (t - 1) * d_s for t in range(1, ell + 3)]
    outer = half + d_l // 2 + (ell + 2) * d_l
    gh_cols = sorted({sgn * (half + d_l // 2 + (c - 1) * d_l)
                      for c in range(1, ell + 4) for sgn in (1, -1)})
    gv_cols = [-half + (c - 1) * d_s for c in range(1, ell + 3)]
    gv_rows = gh_cols  # the construction is symmetric under x <-> y

    color_of = {}
    for i, cls in enumerate(g.colors):
        for v in cls:
            color_of[v] = i

    n_records_estimate = (k * k + 2 * k) + n * n + 4 * n + 4 * n
    if materialize is None:
        materialize = n_records_estimate <= MATERIALIZE_RECORD_LIMIT

    meta = {
        "h_y": h_y,
        "v_x": v_x,
        "s_x": s_x,
        "fixed_horizontal": (half, -half),
        "fixed_vertical": (half, -half),
        "half": half,
        "gh_rows": gh_rows,
        "gh_cols": gh_cols,
        "gv_rows": gv_rows,
        "gv_cols": gv_cols,
        "corner_mult": d_l + 1,
        "graph": g,
        "graph_sha256": g.sha256(),
        "warnings": warnings,
        "record_estimate": n_records_estimate,
    }

    if not materialize:
        meta["family_slices"] = None
        return RmisInstance(cloud=None, k=k, B=B, params=params, tables=tables,
                            meta=meta)

    records: list[PointRecord] = []
    corners_h = {(x, y) for x in (-outer, outer) for y in (half, -half)}
    corners_v = {(x, y) for x in (half, -half) for y in (-outer, outer)}
    f_start = len(records)
    for y in gh_rows:
        for x in gh_cols:
            mult = d_l + 1 if (x, y) in corners_h else 1
            records.append(PointRecord((x, y), mult))
    for y in gv_rows:
        for x in gv_cols:
            mult = d_l + 1 if (x, y) in corners_v else 1
            records.append(PointRecord((x, y), mult))
    f_end = len(records)

    x_start = len(records)
    for i in range(1, ell + 1):
        for j in range(1, nu + 1):
            u = g.colors[i - 1][j - 1]
            y = h_y[i - 1][j - 1]
            for i2 in range(1, ell + 1):
                for j2 in range(1, nu + 1):
                    u2 = g.colors[i2 - 1][j2 - 1]
                    if _vertex_conflicts(g, color_of, u, u2):
                        x = s_x[i2 - 1][j2 - 1]
                    else:
                        x = v_x[i2 - 1][j2 - 1]
                    records.append(PointRecord((x, y), p))
    x_end = len(records)

    zh_start = len(records)
    for i in range(1, ell + 1):
        for j in range(1, nu + 1):
            y = h_y[i - 1][j - 1]
            spots = [-half - 1, -half + 1, half - 1, half + 1]
            records.extend(PointRecord((x, y), w)
                           for x, w in _split_spots(W + tables.phi[j - 1], spots))
    zh_end = len(records)

    zv_start = len(records)
    for i in range(1, ell + 1):
        for j in range(1, nu + 1):
            x = s_x[i - 1][j - 1]
            spots = [half + 1, half - 1, -half + 1, -half - 1]
            records.extend(PointRecord((x, y), w)
                           for y, w in _split_spots(W, spots))
    zv_end = len(records)

    cloud = WeightedPointCloud(2, MODE_RATIONAL, tuple(records))
    meta["family_slices"] = {
        "F": (f_start, f_end),
        "X": (x_start, x_end),
        "Z_h": (zh_start, zh_end),
        "Z_v": (zv_start, zv_end),
    }
    return RmisInstance(cloud=cloud, k=k, B=B, params=params, tables=tables,
                        meta=meta)


def _split_spots(total: int, spots: list):
    """Divide a stack across four spots, remainder to the earliest spots."""
    base, rem = divmod(total, 4)
    out = []
    for t, spot in enumerate(spots):
        w = base + (1 if t < rem else 0)
        if w > 0:
            out.append((spot, w))
    return out


def independent_set_to_lines(inst: RmisInstance,
                             selection: Sequence[int]) -> list[AxisLine]:
    """Canonical 2*ell+4 line set for a selection of one index per color class.

    The selection need not be independent; non-independent selections produce
    the same recipe's lines, which is exactly what the budget separation is
    measured against.
    """
    ell, nu = inst.params.ell, inst.params.nu
    if len(selection) != ell:
        raise ValueError(f"selection must pick one index per class ({ell} entries)")
    for j in selection:
        if not (1 <= j <= nu):
            raise ValueError(f"selection index {j} out of range 1..{nu}")
    fixed_h = inst.meta["fixed_horizontal"]
    fixed_v = inst.meta["fixed_vertical"]
    lines = [AxisLine("h", fixed_h[0]), AxisLine("h", fixed_h[1]),
             AxisLine("v", fixed_v[0]), AxisLine("v", fixed_v[1])]
    for i, j in enumerate(selection, start=1):
        lines.append(AxisLine("h", inst.meta["h_y"][i - 1][j - 1]))
        lines.append(AxisLine("v", inst.meta["s_x"][i - 1][j - 1]))
    return lines


def exact_cloud_cost(cloud: WeightedPointCloud, lines: Sequence[AxisLine]):
    """Exact sum of multiplicity * squared distance to the nearest line.

    Lines must be axis-aligned so squared distances stay rational.
    """
    if cloud.mode != MODE_RATIONAL:
        raise ScalarModeError("exact cost requires a rational-mode cloud")
    if cloud.dim != 2:
        raise ValueError("axis-aligned line cost is defined in the plane")
    if not lines:
        raise ValueError("need at least one line")
    hs = [l.c for l in lines if l.axis == "h"]
    vs = [l.c for l in lines if l.axis == "v"]
    total = 0
    for rec in cloud.records:
        x, y = rec.coords
        best = min([abs(y - c) for c in hs] + [abs(x - c) for c in vs])
        total += rec.mult * best * best
    return total


def exact_solution_cost(inst: RmisInstance, lines: Sequence[AxisLine]):
    if not inst.materialized:
        raise ValueError("instance was built counts-only; re-generate materialized")
    return exact_cloud_cost(inst.cloud, lines)


def desanitize_multiset(inst: RmisInstance):
    """Replace every multiplicity-m record by m distinct rational points.

    Points spread along +x with offsets t/(3*B*N^2) for t = 0..m-1, all
    within delta = 1/(3*B*N) of the original position and with denominators
    at most 3*B*N^2; distinctness across records holds because original
    coordinates are integers and offsets stay below 1.  Returns the new
    cloud together with the adjusted budget B' = B + 1.
    """
    if not inst.materialized:
        raise ValueError("instance was built counts-only; re-generate materialized")
    B = inst.B
    if B <= 0:
        raise ValueError("delta = 1/(3*B*N) is undefined for B = 0")
    N = inst.cloud.total_weight
    den = 3 * B * N * N
    records = []
    for rec in inst.cloud.records:
        x, y = rec.coords
        for t in range(rec.mult):
            records.append(PointRecord((Fraction(x) + Fraction(t, den), Fraction(y)), 1))
    return (WeightedPointCloud(2, MODE_RATIONAL, tuple(records)), B + 1)


# ---------------------------------------------------------------------------
# audits


def audit_rmis_instance(inst: RmisInstance, *, guard: int | None = None) -> dict:
    """Recompute every count identity and the budget from first principles.

    Materialized instances are audited against their actual records; in
    counts-only form the per-line weights are recomputed from the graph and
    the placement rule, one vertex at a time, so ``guard`` caps the vertex
    count n read from the parameters (GuardLimitError above it).  Returns a
    report dict of check name -> bool.
    """
    par, tab = inst.params, inst.tables
    ell, nu, n, q, p, W, d_l = par.ell, par.nu, par.n, par.q, par.p, par.W, par.d_l
    k = inst.k
    report = {}

    theta_ref = [sum((3 * (i - a)) ** 2 for a in range(1, i + 1))
                 + sum((3 * (nu - b)) ** 2 for b in range(i, nu + 1))
                 for i in range(1, nu + 1)]
    report["theta_table"] = list(tab.theta) == theta_ref
    report["phi_table"] = list(tab.phi) == [p * ell * (nu - 1) * t for t in theta_ref]
    report["phi_prime_table"] = list(tab.phi_prime) == [p * ell * nu * t
                                                        for t in theta_ref]
    report["theta_exceeds_nu_squared"] = all(t > nu * nu for t in tab.theta)

    expected_B = (n ** 7 + (n - ell) * W + ell * sum(W + f for f in tab.phi)
                  - ell * W + ell * p * (n - nu + 1 - q - ell))
    report["budget_formula"] = inst.B == expected_B
    if par.faithful:
        report["budget_bound"] = inst.B <= n ** 32

    expected_h = n * p
    expected_s = (q + nu - 1) * p
    expected_v = (n - q - nu + 1) * p
    expected_F = 8 * d_l + k * k + 2 * k
    expected_Zv = n * W
    expected_Zh = ell * sum(W + f for f in tab.phi)

    if inst.materialized:
        sl = inst.meta["family_slices"]
        recs = inst.cloud.records

        def fam_weight(name):
            a, b = sl[name]
            return sum(r.mult for r in recs[a:b])

        report["F_weight"] = fam_weight("F") == expected_F
        report["Zv_weight"] = fam_weight("Z_v") == expected_Zv
        report["Zh_weight"] = fam_weight("Z_h") == expected_Zh

        h_of_y = {y: (i, j) for i, row in enumerate(inst.meta["h_y"], 1)
                  for j, y in enumerate(row, 1)}
        s_of_x = {x: (i, j) for i, row in enumerate(inst.meta["s_x"], 1)
                  for j, x in enumerate(row, 1)}
        v_of_x = {x: (i, j) for i, row in enumerate(inst.meta["v_x"], 1)
                  for j, x in enumerate(row, 1)}
        per_h = {key: 0 for key in h_of_y.values()}
        per_s = {key: 0 for key in s_of_x.values()}
        per_v = {key: 0 for key in v_of_x.values()}
        a, b = sl["X"]
        for rec in recs[a:b]:
            x, y = rec.coords
            per_h[h_of_y[y]] += rec.mult
            if x in s_of_x:
                per_s[s_of_x[x]] += rec.mult
            else:
                per_v[v_of_x[x]] += rec.mult
        report["per_h_line_X"] = all(w == expected_h for w in per_h.values())
        report["per_s_line_X"] = all(w == expected_s for w in per_s.values())
        report["per_v_line_X"] = all(w == expected_v for w in per_v.values())
    else:
        cap = resolve_guard(DEFAULT_NODE_GUARD, guard)
        if n > cap:
            raise GuardLimitError(
                f"instance too large: counts-only audit over n = {n} vertices exceeds {cap}")
        g: ColoredGraph = inst.meta["graph"]
        deg = g.degree_map()
        # Per-line weights from the placement rule: conflicts (edges plus
        # same-color pairs) land on s, everything else including self on v.
        # Every h line receives one stack per vertex by the rule.
        report["per_h_line_X"] = True
        report["per_s_line_X"] = all(
            p * (deg[v] + (nu - 1)) == expected_s for v in range(n))
        report["per_v_line_X"] = all(
            p * ((n - 1 - deg[v]) - (nu - 1) + 1) == expected_v for v in range(n))
        gh = len(inst.meta["gh_rows"]) * len(inst.meta["gh_cols"])
        gv = len(inst.meta["gv_rows"]) * len(inst.meta["gv_cols"])
        report["F_weight"] = \
            gh + gv + 8 * (inst.meta["corner_mult"] - 1) == expected_F
        report["Zv_weight"] = sum(
            sum(w for _, w in _split_spots(W, [0, 1, 2, 3]))
            for _ in range(n)) == expected_Zv
        report["Zh_weight"] = ell * sum(
            sum(w for _, w in _split_spots(W + f, [0, 1, 2, 3]))
            for f in tab.phi) == expected_Zh

    # Frame geometry: grids have k/2 x (k+2) points each, eight corner stacks.
    gh = len(inst.meta["gh_rows"]) * len(inst.meta["gh_cols"])
    gv = len(inst.meta["gv_rows"]) * len(inst.meta["gv_cols"])
    report["frame_positions"] = gh + gv == k * k + 2 * k
    report["k_value"] = k == 2 * ell + 4
    return report
