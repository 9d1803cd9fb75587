"""Executable hardness-reduction generators with exact integer instances.

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
corner stacks are astronomically heavy), the source graph and the parameters.
Everything else is derived from those: a Dominating Set instance's vertex
groups from d and k', and the gadget's k, budget, theta tables and line and
frame coordinates from its parameters.  The two builders are the only source
of an instance: a file is read back by rebuilding it from its graph and
parameters, so the rebuild is the one check of its records.  Both builders
hold their records in one point cloud, which is written, compared with a
file and costed as it is.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .cover import scaled_planes, verify_cover
from .errors import GuardLimitError, IntegrityError, ScalarModeError
from .geometry import (
    MODE_RATIONAL,
    Hyperplane,
    PointRecord,
    WeightedPointCloud,
)
from .util import DEFAULT_COORD_GUARD, resolve_guard

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


# ---------------------------------------------------------------------------
# Dominating Set -> Hyperplane Cover


@dataclass(frozen=True)
class VandermondeInstance:
    cloud: WeightedPointCloud
    k: int
    graph: ColoredGraph

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
    cap = resolve_guard(DEFAULT_COORD_GUARD, guard)
    if d ** 3 * k_prime > cap:
        raise GuardLimitError(
            f"instance too large: d^3*k' = {d ** 3 * k_prime} coordinates exceed {cap}")
    if not allow_trivial:
        for v, deg in g.degree_map().items():
            if deg == d - 1:
                raise ValueError(
                    f"vertex {v} is adjacent to all others; the instance "
                    "would be trivial (pass allow_trivial to build it anyway)")
    records = []
    row = 1
    for v in range(d):
        closed = {u + 1 for u in g.closed_neighborhood(v)}
        for _ in range(d * k_prime):
            coords = tuple(1 if j in closed else vandermonde_value(row, j)
                           for j in range(1, d + 1))
            records.append(PointRecord(coords, 1))
            row += 1
    cloud = WeightedPointCloud(d, MODE_RATIONAL, tuple(records))
    return VandermondeInstance(cloud=cloud, k=k_prime, graph=g)


def axis_one_plane(d: int, vertex: int) -> Hyperplane:
    """The hyperplane x[vertex+1] = 1 in R^d."""
    return Hyperplane((-1, *(int(j == vertex) for j in range(d))))


def dominating_set_to_cover_witness(inst: VandermondeInstance,
                                    subset: Iterable[int]) -> list[Hyperplane]:
    """Forward witness: the planes x[i] = 1 for i in a set of at most k vertices.

    They cover the instance exactly when the set dominates the graph; a set
    with a vertex outside the graph or more than k vertices is refused.
    """
    subset = sorted(set(int(v) for v in subset))
    if any(not 0 <= v < inst.graph.n_vertices for v in subset):
        raise ValueError(f"witness vertices must lie in 0..{inst.graph.n_vertices - 1}")
    if len(subset) > inst.k:
        raise ValueError(f"witness has {len(subset)} vertices but k = {inst.k}")
    return [axis_one_plane(inst.dim, v) for v in subset]


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
    records = inst.cloud.records
    rows = inst.dim * inst.k  # vertex v owns rows v*d*k'+1 .. (v+1)*d*k'
    result: set[int] = set()
    for c, normal in scaled_planes(planes, inst.cloud.den):
        full_groups = [v for v in range(inst.dim)
                       if all(c + sum(map(operator.mul, normal, rec.coords)) == 0
                              for rec in records[v * rows:(v + 1) * rows])]
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
    faithful: bool


@dataclass(frozen=True)
class ThetaTables:
    theta: tuple
    phi: tuple


@dataclass(frozen=True)
class AxisLine:
    """Axis-aligned line: y = c for axis "h", x = c for axis "v"."""

    axis: str
    c: object

    def __post_init__(self):
        if self.axis not in ("h", "v"):
            raise ValueError("axis must be 'h' or 'v'")


@dataclass(frozen=True)
class GadgetTables:
    """The gadget's line and frame coordinates, fixed by its parameters.

    Line tables hold ell rows of nu coordinates, indexed [i-1][j-1]: bundle
    i's horizontal line j is y = h_y, its vertical line x = v_x, and the
    conflict line beside it x = s_x.  The frame is two grids, gh (rows by
    columns) and gv (columns by rows), with a stack of corner_mult at each
    of their eight corners on the fixed lines x, y = +-half.
    """

    half: int
    h_y: tuple
    v_x: tuple
    s_x: tuple
    gh_rows: tuple
    gh_cols: tuple
    gv_rows: tuple
    gv_cols: tuple
    corner_mult: int

    @property
    def fixed_lines(self) -> tuple:
        return tuple(AxisLine(axis, c) for axis in "hv" for c in (self.half, -self.half))


def gadget_tables(par: RmisParameters) -> GadgetTables:
    """The one derivation of the gadget's geometry from (ell, nu, n, d_s, d_l)."""
    ell, nu, n, d_s, d_l = par.ell, par.nu, par.n, par.d_s, par.d_l
    half = (ell + 1) * d_s // 2
    nu_half = nu // 2
    h_y = tuple(tuple(half - i * d_s + 3 * (nu_half - j) for j in range(1, nu + 1))
                for i in range(1, ell + 1))
    v_x = tuple(tuple(-half + i * d_s + 10 * n * n * (j - nu_half) for j in range(1, nu + 1))
                for i in range(1, ell + 1))
    s_x = tuple(tuple(x - 1 for x in row) for row in v_x)
    gh_cols = tuple(sorted({sgn * (half + d_l // 2 + (c - 1) * d_l)
                            for c in range(1, ell + 4) for sgn in (1, -1)}))
    return GadgetTables(
        half=half, h_y=h_y, v_x=v_x, s_x=s_x,
        gh_rows=tuple(half - (t - 1) * d_s for t in range(1, ell + 3)),
        gh_cols=gh_cols,
        gv_rows=gh_cols,  # the construction is symmetric under x <-> y
        gv_cols=tuple(-half + (c - 1) * d_s for c in range(1, ell + 3)),
        corner_mult=d_l + 1)


@dataclass(frozen=True)
class RmisInstance:
    """The gadget's records, its parameters and its source.

    ``cloud`` holds the records, planar with integer coordinates, and is
    None when the gadget is kept counts-only.  ``meta`` holds the colored
    ``graph``, the relaxed-mode ``warnings``, the builder's
    ``record_estimate`` and, for a materialized gadget, the
    ``family_slices`` (record ranges of F, X, Z_h, Z_v).  Everything else is
    a function of ``params``: k = 2*ell+4, the theta tables, the budget B and
    the gadget's coordinates.
    """

    cloud: Optional[WeightedPointCloud]
    params: RmisParameters
    meta: dict = field(compare=False)

    @property
    def materialized(self) -> bool:
        return self.cloud is not None

    @property
    def k(self) -> int:
        return 2 * self.params.ell + 4

    @cached_property
    def tables(self) -> ThetaTables:
        return build_theta_tables(self.params.nu, self.params.p, self.params.ell)

    @cached_property
    def B(self) -> int:
        return rmis_budget(self.params, self.tables)

    @cached_property
    def gadget(self) -> GadgetTables:
        return gadget_tables(self.params)


def build_theta_tables(nu: int, p: int, ell: int) -> ThetaTables:
    """theta(i) = sum_{a<=i} (3(i-a))^2 + sum_{b>=i} (3(nu-b))^2, in closed
    form 9*(S(i-1) + S(nu-i)) with S(m) = 1^2 + ... + m^2."""
    def squares(m):
        return m * (m + 1) * (2 * m + 1) // 6

    theta = tuple(9 * (squares(i - 1) + squares(nu - i)) for i in range(1, nu + 1))
    return ThetaTables(theta, tuple(p * ell * (nu - 1) * t for t in theta))


def rmis_budget(params: RmisParameters, tables: ThetaTables) -> int:
    n, ell, nu, q = params.n, params.ell, params.nu, params.q
    W, p = params.W, params.p
    return (n ** 7 + (n - ell) * W
            + ell * sum(W + phi for phi in tables.phi)
            - ell * W
            + ell * p * (n - nu + 1 - q - ell))


def _paper_constants(n: int) -> dict:
    return {"p": n ** 10, "W": n ** 30, "d_s": n ** 40, "d_l": n ** 90}


def rmis_to_line_clustering(g: ColoredGraph, faithful: bool = False, *,
                            constants: dict | None = None) -> RmisInstance:
    """Build the planar clustering instance from a color-regular graph.

    Faithful mode enforces the parameter regime the hardness argument
    assumes (nu divisible by 4, nu > ell^3, ell > 10) and pins the constants
    to their defining powers of n.  Relaxed mode only requires nu even,
    permits explicit constant overrides for desk-scale experiments, and
    records every waived assumption in the instance metadata; such instances
    carry no hardness guarantee and are labeled accordingly.  The records are
    built exactly when their estimated count is at most
    MATERIALIZE_RECORD_LIMIT; above it the instance is counts-only.
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
        overrides = {key: int(val) for key, val in constants.items()}
        if any(consts[key] != val for key, val in overrides.items()):
            warnings.append("constant overrides in effect")
        consts.update(overrides)
    p, W, d_s, d_l = consts["p"], consts["W"], consts["d_s"], consts["d_l"]
    if d_l % 2 or d_l < 4:
        raise ValueError("d_l must be even and at least 4")
    if ((ell + 1) * d_s) % 2:
        raise ValueError("(ell+1)*d_s must be even to center the frame on integers")
    if d_s <= 10 * n * n * nu + 3 * nu + 4:
        raise ValueError("d_s too small: line bundles would overlap the frame")
    if p < 1:
        raise ValueError(f"p is the multiplicity of the X records and must be >= 1, got {p}")
    if W < 1:
        raise ValueError(f"W is the least weight of a Z stack and must be >= 1, got {W}")

    params = RmisParameters(ell=ell, nu=nu, n=n, q=q, p=p, W=W, d_s=d_s, d_l=d_l,
                            faithful=faithful)
    k = 2 * ell + 4
    n_records_estimate = (k * k + 2 * k) + n * n + 4 * n + 4 * n
    meta = {"graph": g, "warnings": warnings, "record_estimate": n_records_estimate}
    if n_records_estimate > MATERIALIZE_RECORD_LIMIT:
        return RmisInstance(cloud=None, params=params, meta=meta)

    gad = gadget_tables(params)
    phi = build_theta_tables(nu, p, ell).phi
    half, h_y, v_x, s_x = gad.half, gad.h_y, gad.v_x, gad.s_x

    records: list[PointRecord] = []
    outer = gad.gh_cols[-1]
    corners_h = {(x, y) for x in (-outer, outer) for y in (half, -half)}
    corners_v = {(x, y) for x in (half, -half) for y in (-outer, outer)}
    f_start = len(records)
    for y in gad.gh_rows:
        for x in gad.gh_cols:
            mult = gad.corner_mult if (x, y) in corners_h else 1
            records.append(PointRecord((x, y), mult))
    for y in gad.gv_rows:
        for x in gad.gv_cols:
            mult = gad.corner_mult if (x, y) in corners_v else 1
            records.append(PointRecord((x, y), mult))
    f_end = len(records)

    # Vertices conflict when adjacent or distinct of one color.  The stack
    # for (u, u2) sits on u2's conflict line s_x when they conflict and on
    # its line v_x otherwise.
    conflicts = {u: (set(cls) | g.neighbors(u)) - {u} for cls in g.colors for u in cls}
    columns = [(u2, s_x[i2][j2], v_x[i2][j2])
               for i2, cls in enumerate(g.colors) for j2, u2 in enumerate(cls)]
    x_start = len(records)
    for i, cls in enumerate(g.colors):
        for j, u in enumerate(cls):
            y, conflicting = h_y[i][j], conflicts[u]
            records.extend(PointRecord((s if u2 in conflicting else v, y), p)
                           for u2, s, v in columns)
    x_end = len(records)

    zh_start = len(records)
    for i in range(1, ell + 1):
        for j in range(1, nu + 1):
            y = h_y[i - 1][j - 1]
            spots = [-half - 1, -half + 1, half - 1, half + 1]
            records.extend(PointRecord((x, y), w)
                           for x, w in _split_spots(W + phi[j - 1], spots))
    zh_end = len(records)

    zv_start = len(records)
    for i in range(1, ell + 1):
        for j in range(1, nu + 1):
            x = s_x[i - 1][j - 1]
            spots = [half + 1, half - 1, -half + 1, -half - 1]
            records.extend(PointRecord((x, y), w) for y, w in _split_spots(W, spots))
    zv_end = len(records)

    meta["family_slices"] = {
        "F": (f_start, f_end),
        "X": (x_start, x_end),
        "Z_h": (zh_start, zh_end),
        "Z_v": (zv_start, zv_end),
    }
    cloud = WeightedPointCloud(2, MODE_RATIONAL, tuple(records))
    return RmisInstance(cloud=cloud, params=params, meta=meta)


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
    gad = inst.gadget
    lines = list(gad.fixed_lines)
    for i, j in enumerate(selection, start=1):
        lines.append(AxisLine("h", gad.h_y[i - 1][j - 1]))
        lines.append(AxisLine("v", gad.s_x[i - 1][j - 1]))
    return lines


def exact_cloud_cost(cloud: WeightedPointCloud, lines: Sequence[AxisLine]) -> Fraction:
    """Exact sum of multiplicity * squared distance to the nearest line.

    Lines must be axis-aligned so squared distances stay rational.  Gaps are
    measured on the cloud's numerators (integers for integer lines), against
    line coordinates scaled by den and sorted for bisection.
    """
    if cloud.mode != MODE_RATIONAL:
        raise ScalarModeError("exact cost requires a rational-mode cloud")
    if cloud.dim != 2:
        raise ValueError("axis-aligned line cost is defined in the plane")
    if not lines:
        raise ValueError("need at least one line")
    den, records = cloud.den, cloud.records
    hs, vs = (sorted(line.c * den for line in lines if line.axis == axis) for axis in "hv")
    # A gadget's records share few distinct coordinates: bisect once for each.
    h_gap = {y: _nearest_gap(hs, y) for y in {c[1] for c, _ in records}}
    v_gap = {x: _nearest_gap(vs, x) for x in {c[0] for c, _ in records}}
    total = 0
    for (x, y), mult in records:
        h, v = h_gap[y], v_gap[x]
        total += mult * h * h if h < v else mult * v * v
    return Fraction(total, den * den)


def _nearest_gap(values: list, x: int):
    """Distance from x to the nearest entry of a sorted list (inf when it is empty)."""
    i = bisect.bisect_left(values, x)
    if i == len(values):
        return x - values[-1] if values else math.inf
    return min(values[i] - x, x - values[i - 1]) if i else values[i] - x


def exact_solution_cost(inst: RmisInstance, lines: Sequence[AxisLine]) -> Fraction:
    """exact_cloud_cost of the gadget's records."""
    if not inst.materialized:
        raise ValueError("instance was built counts-only; re-generate materialized")
    return exact_cloud_cost(inst.cloud, lines)


def desanitize_multiset(inst: RmisInstance):
    """Replace every multiplicity-m record by m distinct rational points.

    Points spread along +x with offsets t/(3*B*N^2) for t = 0..m-1, all
    within delta = 1/(3*B*N) of the original position and with denominators
    at most 3*B*N^2; distinctness across records holds because original
    coordinates are integers and offsets stay below 1.  The cloud is built
    as numerators x*den + t over den = 3*B*N^2 (times the source cloud's
    den).  Returns it together with the adjusted budget B' = B + 1.
    """
    if not inst.materialized:
        raise ValueError("instance was built counts-only; re-generate materialized")
    B = inst.B
    if B <= 0:
        raise ValueError("delta = 1/(3*B*N) is undefined for B = 0")
    N = inst.cloud.total_weight
    den = 3 * B * N * N
    unit = inst.cloud.den
    records = []
    for rec in inst.cloud.records:
        x, y = rec.coords
        for t in range(rec.mult):
            records.append(PointRecord((x * den + t * unit, y * den), 1))
    return (WeightedPointCloud(2, MODE_RATIONAL, tuple(records), den * unit), B + 1)

