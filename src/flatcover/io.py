"""File formats: point clouds, solutions, graphs, reduction instances, manifests.

All writers go through :func:`dumps_canonical`, which emits floats with 17
significant digits so that repeated runs produce byte-identical numeric
output.  Exact quantities are serialized as "num/den" strings (denominator
omitted when 1) and parse back losslessly.
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
    format_scalar,
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
    """Deterministic JSON text; floats carry 17 significant digits."""
    pieces: list[str] = []
    _emit(obj, pieces)
    return "".join(pieces)


def _emit(obj, out: list):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format(obj, ".17g"))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _emit(val, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, val in enumerate(obj):
            if i:
                out.append(",")
            _emit(val, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def build_manifest(command: str, argv: Sequence[str], inputs: Sequence[str],
                   seed: int | None, wall_time_s: float) -> dict:
    return {
        "tool": "flatcover",
        "version": __version__,
        "command": command,
        "argv": list(argv),
        "rng_seed": seed,
        "inputs": {path: sha256_file(path) for path in inputs},
        "wall_time_s": wall_time_s,
    }


# ---------------------------------------------------------------------------
# point clouds


def cloud_to_obj(cloud: WeightedPointCloud) -> dict:
    if cloud.mode == MODE_RATIONAL:
        pts = [{"coords": [format_scalar(Fraction(c)) for c in r.coords],
                "mult": r.mult} for r in cloud.records]
    else:
        pts = [{"coords": [float(c) for c in r.coords], "mult": r.mult}
               for r in cloud.records]
    return {"dim": cloud.dim, "scalar": cloud.mode, "points": pts}


def cloud_from_obj(data: dict) -> WeightedPointCloud:
    mode = data["scalar"]
    if mode not in (MODE_RATIONAL, MODE_FLOAT):
        raise ValueError(f"unknown scalar mode {mode!r}")
    records = tuple(
        PointRecord(tuple(parse_scalar(c, mode) for c in p["coords"]),
                    int(p.get("mult", 1)))
        for p in data["points"])
    return WeightedPointCloud(int(data["dim"]), mode, records)


def cloud_to_csv(cloud: WeightedPointCloud, include_mult: bool = False) -> str:
    """Float-mode alternative: one point per row, optional final mult column."""
    if cloud.mode != MODE_FLOAT:
        raise ValueError("CSV format is float-mode only")
    lines = []
    for r in cloud.records:
        cells = [format(float(c), ".17g") for c in r.coords]
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
        records.append(PointRecord(tuple(float(c) for c in coords), mult))
    if dim is None:
        raise ValueError("empty CSV input")
    return WeightedPointCloud(dim, MODE_FLOAT, tuple(records))


# ---------------------------------------------------------------------------
# solutions


def clustering_solution_to_obj(sol: ClusteringSolution, r: int) -> dict:
    return {
        "k": len(sol.flats),
        "r": r,
        "cost": format_scalar(sol.cost) if isinstance(sol.cost, (Fraction, int))
        else float(sol.cost),
        "flats": [{"basis": [[float(c) for c in col] for col in f.basis],
                   "offset": [float(c) for c in f.offset]} for f in sol.flats],
        "assignment": list(sol.assignment),
    }


def cover_solution_to_obj(sol: CoverSolution) -> dict:
    return {
        "k": len(sol.hyperplanes),
        "hyperplanes": [[str(c) for c in h.coeffs] for h in sol.hyperplanes],
    }


def cover_solution_from_obj(data: dict) -> CoverSolution:
    planes = tuple(Hyperplane(tuple(Fraction(c) for c in row))
                   for row in data["hyperplanes"])
    return CoverSolution(planes)


# ---------------------------------------------------------------------------
# graphs


def graph_to_obj(g: ColoredGraph) -> dict:
    obj = {"n": g.n_vertices, "edges": [list(e) for e in sorted(g.edges)]}
    if g.colors is not None:
        obj["colors"] = [list(c) for c in g.colors]
    return obj


def graph_from_obj(data: dict) -> ColoredGraph:
    colors = tuple(tuple(c) for c in data["colors"]) if data.get("colors") else None
    return ColoredGraph(int(data["n"]),
                        frozenset(tuple(e) for e in data["edges"]),
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
        "theta": [str(t) for t in inst.tables.theta],
        "phi": [str(t) for t in inst.tables.phi],
        "phi_prime": [str(t) for t in inst.tables.phi_prime],
        "cloud": cloud_to_obj(inst.cloud) if inst.materialized else None,
        "meta": {
            "h_y": [[str(c) for c in row] for row in meta["h_y"]],
            "v_x": [[str(c) for c in row] for row in meta["v_x"]],
            "s_x": [[str(c) for c in row] for row in meta["s_x"]],
            "fixed_horizontal": [str(c) for c in meta["fixed_horizontal"]],
            "fixed_vertical": [str(c) for c in meta["fixed_vertical"]],
            "half": str(meta["half"]),
            "gh_rows": [str(c) for c in meta["gh_rows"]],
            "gh_cols": [str(c) for c in meta["gh_cols"]],
            "gv_rows": [str(c) for c in meta["gv_rows"]],
            "gv_cols": [str(c) for c in meta["gv_cols"]],
            "corner_mult": str(meta["corner_mult"]),
            "graph": graph_to_obj(meta["graph"]),
            "graph_sha256": meta["graph_sha256"],
            "warnings": list(meta["warnings"]),
            "record_estimate": meta["record_estimate"],
            "family_slices": ({name: list(se) for name, se in
                               meta["family_slices"].items()}
                              if meta["family_slices"] else None),
        },
    }


def instance_from_obj(data: dict):
    kind = data.get("kind")
    if kind == "ds_cover":
        meta = {
            "rows_per_vertex": int(data["meta"]["rows_per_vertex"]),
            "groups": {int(v): tuple(se)
                       for v, se in data["meta"]["groups"].items()},
            "base_numbers": tuple(data["meta"]["base_numbers"]),
            "graph_sha256": data["meta"]["graph_sha256"],
        }
        return VandermondeInstance(cloud=cloud_from_obj(data["cloud"]),
                                   k=int(data["k"]),
                                   graph=graph_from_obj(data["graph"]),
                                   meta=meta)
    if kind == "rmis":
        par = data["params"]
        params = RmisParameters(
            ell=int(par["ell"]), nu=int(par["nu"]), n=int(par["n"]),
            q=int(par["q"]), p=int(par["p"]), W=int(par["W"]),
            d_s=int(par["d_s"]), d_l=int(par["d_l"]),
            B=int(data["B"]), faithful=bool(par["faithful"]))
        tables = ThetaTables(tuple(int(t) for t in data["theta"]),
                             tuple(int(t) for t in data["phi"]),
                             tuple(int(t) for t in data["phi_prime"]))
        m = data["meta"]
        meta = {
            "h_y": [[int(c) for c in row] for row in m["h_y"]],
            "v_x": [[int(c) for c in row] for row in m["v_x"]],
            "s_x": [[int(c) for c in row] for row in m["s_x"]],
            "fixed_horizontal": tuple(int(c) for c in m["fixed_horizontal"]),
            "fixed_vertical": tuple(int(c) for c in m["fixed_vertical"]),
            "half": int(m["half"]),
            "gh_rows": [int(c) for c in m["gh_rows"]],
            "gh_cols": [int(c) for c in m["gh_cols"]],
            "gv_rows": [int(c) for c in m["gv_rows"]],
            "gv_cols": [int(c) for c in m["gv_cols"]],
            "corner_mult": int(m["corner_mult"]),
            "graph": graph_from_obj(m["graph"]),
            "graph_sha256": m["graph_sha256"],
            "warnings": list(m["warnings"]),
            "record_estimate": int(m["record_estimate"]),
            "family_slices": ({name: tuple(se) for name, se in
                               m["family_slices"].items()}
                              if m["family_slices"] else None),
        }
        cloud = cloud_from_obj(data["cloud"]) if data["cloud"] else None
        # Rational clouds round-trip through Fractions; reduction instances
        # are integral, so restore plain ints for the audits.
        if cloud is not None:
            records = tuple(
                PointRecord(tuple(int(c) for c in r.coords), r.mult)
                for r in cloud.records)
            cloud = WeightedPointCloud(2, MODE_RATIONAL, records)
        return RmisInstance(cloud=cloud, k=int(data["k"]), B=int(data["B"]),
                            params=params, tables=tables, meta=meta)
    raise ValueError(f"unknown instance kind {kind!r}")
