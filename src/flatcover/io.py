"""File formats: point clouds, solutions, graphs, reduction instances, manifests.

All writers go through :func:`dumps_canonical`, which writes each float as the
shortest text that reads back to the same double, so repeated runs produce
byte-identical result files.  Exact quantities are serialized as "num/den"
strings (denominator omitted when 1) and parse back losslessly; integer text
is read with ``int``, and only "num/den" text builds a ``Fraction``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Sequence

from . import __version__
from .geometry import (
    MODE_FLOAT,
    MODE_RATIONAL,
    AffineFlat,
    ClusteringSolution,
    CoverSolution,
    Hyperplane,
    PointRecord,
    WeightedPointCloud,
    parse_scalar,
)
from .reductions import (
    ColoredGraph,
    RmisInstance,
    RmisParameters,
    ThetaTables,
    VandermondeInstance,
)


def dumps_canonical(obj) -> str:
    """Compact JSON text; floats are written as their shortest round-trip repr."""
    try:
        return json.dumps(obj, separators=(",", ":"), allow_nan=False)
    except ValueError:
        raise ValueError("cannot write a non-finite number as JSON") from None


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def build_manifest(command: str, argv: Sequence[str], inputs: Sequence[str],
                   seed: int | None) -> dict:
    return {
        "tool": "flatcover",
        "version": __version__,
        "command": command,
        "argv": list(argv),
        "rng_seed": seed,
        "inputs": {path: sha256_file(path) for path in inputs},
    }


# ---------------------------------------------------------------------------
# typed reads: a loader checks each JSON value's type where it converts it, so
# a wrongly typed field is a ValueError (exit 2), never a TypeError or a
# silently truncated number.


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r:.40}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r:.40}")
    return value


def _int(value, what: str) -> int:
    """A JSON integer or a decimal string; floats and booleans are refused."""
    if type(value) is not int and type(value) is not str:
        raise ValueError(f"{what} must be an integer, got {value!r:.40}")
    try:
        return int(value)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _ints(values, what: str) -> list:
    return [_int(v, what) for v in _list(values, what)]


def _floats(values, what: str) -> tuple:
    return tuple(parse_scalar(v, MODE_FLOAT) for v in _list(values, what))


def _pair(values, what: str) -> tuple:
    pair = tuple(_ints(values, what))
    if len(pair) != 2:
        raise ValueError(f"{what} must be a pair of integers, got {values!r:.40}")
    return pair


# ---------------------------------------------------------------------------
# point clouds


def cloud_to_obj(cloud: WeightedPointCloud) -> dict:
    # Rational numerators are written over the cloud's den as "num/den" text.
    den = cloud.den
    text = (float if cloud.mode == MODE_FLOAT else str if den == 1
            else lambda c: str(Fraction(c, den)))
    pts = [{"coords": [text(c) for c in r.coords], "mult": r.mult} for r in cloud.records]
    return {"dim": cloud.dim, "scalar": cloud.mode, "points": pts}


def _parse_mult(value) -> int:
    """A multiplicity as read: 1.7 and true are rejected rather than read as 1."""
    if isinstance(value, bool) or not (
            isinstance(value, (int, str))
            or (isinstance(value, float) and value.is_integer())):
        raise ValueError(f"multiplicities must be integers, got {value!r}")
    return int(value)


def cloud_from_obj(data: dict) -> WeightedPointCloud:
    data = _object(data, "a point cloud")
    mode = data["scalar"]
    if mode not in (MODE_RATIONAL, MODE_FLOAT):
        raise ValueError(f"unknown scalar mode {mode!r}")
    dim, points = data["dim"], data["points"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ValueError(f"dim must be an integer, got {dim!r:.40}")
    records = []
    for p in _list(points, "points"):
        p = _object(p, "a point")
        coords = _list(p["coords"], "coords")
        records.append(PointRecord(tuple(parse_scalar(c, mode) for c in coords),
                                   _parse_mult(p.get("mult", 1))))
    return WeightedPointCloud(dim, mode, tuple(records))


def cloud_to_csv(cloud: WeightedPointCloud, include_mult: bool = False) -> str:
    """Float-mode alternative: one point per row, optional final mult column."""
    if cloud.mode != MODE_FLOAT:
        raise ValueError("CSV format is float-mode only")
    lines = []
    for r in cloud.records:
        cells = [repr(float(c)) for c in r.coords]
        if include_mult:
            cells.append(str(r.mult))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cloud_from_csv(text: str, has_mult: bool = False) -> WeightedPointCloud:
    records = []
    dim = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if has_mult:
            coords, mult = cells[:-1], int(cells[-1])
        else:
            coords, mult = cells, 1
        if dim is None:
            dim = len(coords)
        records.append(PointRecord(tuple(parse_scalar(c, MODE_FLOAT) for c in coords),
                                   mult))
    if dim is None:
        raise ValueError("empty CSV input")
    return WeightedPointCloud(dim, MODE_FLOAT, tuple(records))


# ---------------------------------------------------------------------------
# solutions


def clustering_solution_to_obj(sol: ClusteringSolution, r: int) -> dict:
    return {
        "k": len(sol.flats),
        "r": r,
        "cost": float(sol.cost),
        "flats": [{"basis": [[float(c) for c in col] for col in f.basis],
                   "offset": [float(c) for c in f.offset]} for f in sol.flats],
        "assignment": list(sol.assignment),
    }


def clustering_flats_from_obj(data: dict, dim: int) -> list:
    """The flats of a ``cluster`` result as float flats in ``dim`` dimensions."""
    data = _object(data, "a clustering solution")
    flats = []
    for f in _list(data["flats"], "flats"):
        f = _object(f, "a flat")
        basis = tuple(_floats(col, "a basis vector") for col in _list(f["basis"], "basis"))
        flats.append(AffineFlat(dim, len(basis), basis, _floats(f["offset"], "offset"),
                                MODE_FLOAT))
    return flats


def cover_solution_to_obj(sol: CoverSolution) -> dict:
    return {
        "k": len(sol.hyperplanes),
        "hyperplanes": [[str(c) for c in h.coeffs] for h in sol.hyperplanes],
    }


def cover_solution_from_obj(data: dict) -> CoverSolution:
    data = _object(data, "a cover")
    planes = tuple(Hyperplane(tuple(parse_scalar(c, MODE_RATIONAL)
                                    for c in _list(row, "a hyperplane")))
                   for row in _list(data["hyperplanes"], "hyperplanes"))
    return CoverSolution(planes)


def witness_from_obj(data: dict) -> tuple:
    """A ``verify`` witness as (kind, value).

    The value is a vertex list for ``dominating_set``, a CoverSolution for
    ``cover`` and an index tuple for ``selection``.  Any other kind is an
    error rather than a witness that checks nothing.
    """
    data = _object(data, "a witness")
    kind = data.get("kind")
    if kind == "dominating_set":
        return kind, _ints(data["vertices"], "vertices")
    if kind == "cover":
        return kind, cover_solution_from_obj(data)
    if kind == "selection":
        return kind, tuple(_ints(data["indices"], "indices"))
    raise ValueError(f"unknown witness kind {kind!r:.40}")


# ---------------------------------------------------------------------------
# graphs


def graph_to_obj(g: ColoredGraph) -> dict:
    obj = {"n": g.n_vertices, "edges": [list(e) for e in sorted(g.edges)]}
    if g.colors is not None:
        obj["colors"] = [list(c) for c in g.colors]
    return obj


def graph_from_obj(data: dict) -> ColoredGraph:
    data = _object(data, "a graph")
    colors = data.get("colors")
    if colors is not None:
        colors = tuple(tuple(_ints(c, "a color class"))
                       for c in _list(colors, "colors")) or None
    return ColoredGraph(_int(data["n"], "n"),
                        frozenset(_pair(e, "an edge")
                                  for e in _list(data["edges"], "edges")),
                        colors)


# ---------------------------------------------------------------------------
# reduction instances


def ds_instance_to_obj(inst: VandermondeInstance) -> dict:
    return {
        "kind": "ds_cover",
        "k": inst.k,
        "dim": inst.dim,
        "graph": graph_to_obj(inst.graph),
        "cloud": cloud_to_obj(inst.cloud),
        "meta": {
            "rows_per_vertex": inst.meta["rows_per_vertex"],
            "groups": {str(v): list(se) for v, se in inst.meta["groups"].items()},
            "base_numbers": list(inst.meta["base_numbers"]),
            "graph_sha256": inst.meta["graph_sha256"],
        },
    }


def _decimal(value):
    """Integers as decimal strings, inside nested lists and tuples too."""
    return [_decimal(v) for v in value] if isinstance(value, (list, tuple)) else str(value)


def rmis_instance_to_obj(inst: RmisInstance) -> dict:
    par = inst.params
    meta = inst.meta
    return {
        "kind": "rmis",
        "k": inst.k,
        "B": str(inst.B),
        "params": {
            "ell": par.ell, "nu": par.nu, "n": par.n, "q": par.q,
            "p": str(par.p), "W": str(par.W),
            "d_s": str(par.d_s), "d_l": str(par.d_l),
            "faithful": par.faithful,
        },
        **{name: _decimal(getattr(inst.tables, name))
           for name in ("theta", "phi", "phi_prime")},
        "cloud": cloud_to_obj(inst.cloud) if inst.materialized else None,
        "meta": {
            **{name: _decimal(meta[name]) for name in (
                "h_y", "v_x", "s_x", "fixed_horizontal", "fixed_vertical", "half",
                "gh_rows", "gh_cols", "gv_rows", "gv_cols", "corner_mult")},
            "graph": graph_to_obj(meta["graph"]),
            "graph_sha256": meta["graph_sha256"],
            "warnings": list(meta["warnings"]),
            "record_estimate": meta["record_estimate"],
            "family_slices": ({name: list(se) for name, se in
                               meta["family_slices"].items()}
                              if meta["family_slices"] else None),
        },
    }


def _instance_cloud(data) -> WeightedPointCloud:
    cloud = cloud_from_obj(data)
    if cloud.mode != MODE_RATIONAL:
        raise ValueError("a reduction instance needs a rational cloud")
    return cloud


def instance_from_obj(data: dict):
    data = _object(data, "an instance")
    kind = data.get("kind")
    if kind == "ds_cover":
        m = _object(data["meta"], "meta")
        cloud = _instance_cloud(data["cloud"])
        graph = graph_from_obj(data["graph"])
        if graph.n_vertices != cloud.dim:
            raise ValueError(f"a graph on {graph.n_vertices} vertices needs a "
                             f"{graph.n_vertices}-dimensional cloud, got dim {cloud.dim}")
        groups = {}
        for v, se in _object(m["groups"], "groups").items():
            start, end = _pair(se, "a vertex group")
            if not 1 <= start <= end <= len(cloud.records):
                raise ValueError(f"vertex group {v} spans rows {start}..{end} "
                                 f"of {len(cloud.records)}")
            groups[_int(v, "a group vertex")] = (start, end)
        meta = {
            "rows_per_vertex": _int(m["rows_per_vertex"], "rows_per_vertex"),
            "groups": groups,
            "base_numbers": tuple(_ints(m["base_numbers"], "base_numbers")),
            "graph_sha256": m["graph_sha256"],
        }
        return VandermondeInstance(cloud=cloud, k=_int(data["k"], "k"),
                                   graph=graph, meta=meta)
    if kind == "rmis":
        par = _object(data["params"], "params")
        faithful = par["faithful"]
        if not isinstance(faithful, bool):
            raise ValueError(f"faithful must be true or false, got {faithful!r:.40}")
        params = RmisParameters(
            **{name: _int(par[name], name)
               for name in ("ell", "nu", "n", "q", "p", "W", "d_s", "d_l")},
            B=_int(data["B"], "B"), faithful=faithful)
        tables = ThetaTables(tuple(_ints(data["theta"], "theta")),
                             tuple(_ints(data["phi"], "phi")),
                             tuple(_ints(data["phi_prime"], "phi_prime")))
        m = _object(data["meta"], "meta")
        slices = m["family_slices"]
        meta = {
            "fixed_horizontal": _pair(m["fixed_horizontal"], "fixed_horizontal"),
            "fixed_vertical": _pair(m["fixed_vertical"], "fixed_vertical"),
            "half": _int(m["half"], "half"),
            "gh_rows": _ints(m["gh_rows"], "gh_rows"),
            "gh_cols": _ints(m["gh_cols"], "gh_cols"),
            "gv_rows": _ints(m["gv_rows"], "gv_rows"),
            "gv_cols": _ints(m["gv_cols"], "gv_cols"),
            "corner_mult": _int(m["corner_mult"], "corner_mult"),
            "graph": graph_from_obj(m["graph"]),
            "graph_sha256": m["graph_sha256"],
            "warnings": list(_list(m["warnings"], "warnings")),
            "record_estimate": _int(m["record_estimate"], "record_estimate"),
            "family_slices": None if slices is None else {
                name: _pair(se, "a family slice")
                for name, se in _object(slices, "family_slices").items()},
        }
        if meta["graph"].n_vertices != params.n:
            raise ValueError(f"params.n is {params.n} but the instance graph has "
                             f"{meta['graph'].n_vertices} vertices")
        # Line tables are ell rows of nu coordinates, indexed [i-1][j-1].
        for name in ("h_y", "v_x", "s_x"):
            rows = [_ints(row, name) for row in _list(m[name], name)]
            if len(rows) != params.ell or any(len(row) != params.nu for row in rows):
                raise ValueError(f"{name} must hold {params.ell} rows of {params.nu}")
            meta[name] = rows
        cloud = None
        if data["cloud"] is not None:
            if slices is None:
                raise ValueError("a materialized instance needs family_slices")
            cloud = _instance_cloud(data["cloud"])
            if cloud.dim != 2:
                raise ValueError(f"an rmis cloud is planar, got dim {cloud.dim}")
            if cloud.den != 1:
                raise ValueError(f"rmis coordinates must be integers, got a "
                                 f"denominator of {cloud.den}")
        return RmisInstance(cloud=cloud, k=_int(data["k"], "k"), B=params.B,
                            params=params, tables=tables, meta=meta)
    raise ValueError(f"unknown instance kind {kind!r}")
