"""File formats: point clouds, solutions, graphs, reduction instances, manifests.

All writers go through :func:`dumps_canonical`, which writes each float as the
shortest text that reads back to the same double, so repeated runs produce
byte-identical result files.  Exact quantities are serialized as "num/den"
strings (denominator omitted when 1) and parse back losslessly; integer text
is read with ``int``, and only "num/den" text builds a ``Fraction``.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

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
    parse_int,
    parse_scalar,
)
from .reductions import (
    MATERIALIZE_RECORD_LIMIT,
    ColoredGraph,
    RmisInstance,
    VandermondeInstance,
    ds_to_hyperplane_cover,
    rmis_to_line_clustering,
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


def _ints(values, what: str) -> list:
    return [parse_int(v, what) for v in _list(values, what)]


def _floats(values, what: str) -> tuple:
    return tuple(parse_scalar(v, MODE_FLOAT) for v in _list(values, what))


def _pair(values, what: str) -> tuple:
    pair = tuple(_ints(values, what))
    if len(pair) != 2:
        raise ValueError(f"{what} must be a pair of integers, got {values!r:.40}")
    return pair


# ---------------------------------------------------------------------------
# point clouds


def _coord_text(mode: str, den: int):
    """How the writer spells a coordinate.

    A float is written as itself.  A rational numerator is written over den
    as "num/den" text, each distinct value converted once: a gadget's
    records share few coordinates, and its numbers run to hundreds of
    digits.  Floats are not memoised, since 0.0 and -0.0 would share a key.
    """
    if mode == MODE_FLOAT:
        return float
    return functools.cache(str if den == 1 else lambda c: str(Fraction(c, den)))


def rows_to_obj(dim: int, mode: str, rows: Iterable, den: int = 1) -> dict:
    """The written form of (coords, mult) rows, such as a cloud's records."""
    text = _coord_text(mode, den)
    return {"dim": dim, "scalar": mode,
            "points": [{"coords": list(map(text, coords)), "mult": mult}
                       for coords, mult in rows]}


def cloud_to_obj(cloud: WeightedPointCloud) -> dict:
    return rows_to_obj(cloud.dim, cloud.mode, cloud.records, cloud.den)


def _is_written_form(obj, dim: int, rows: Iterable | None, den: int = 1) -> bool:
    """Whether obj is the JSON value :func:`rows_to_obj` writes for rational
    rows (null for None).

    The points are compared column by column: every point an object with
    just "coords" and "mult", every coords a list of dim texts, and the
    texts and the multiplicities, in order, those of the rows.  Python's ==
    also takes true for 1 and 2.0 for 2; the only numbers in the written form
    are dim and the multiplicities (the coordinates are text), so those must
    be JSON integers as well."""
    if rows is None:
        return obj is None
    if not (isinstance(obj, dict) and obj.keys() == {"dim", "scalar", "points"}):
        return False
    points = obj["points"]
    if not (type(obj["dim"]) is int and obj["dim"] == dim
            and obj["scalar"] == MODE_RATIONAL and type(points) is list):
        return False
    rows = list(rows)
    if len(points) != len(rows):
        return False
    if not rows:
        return True
    if set(map(type, points)) != {dict} or set(map(len, points)) != {2}:
        return False
    try:
        got_coords = list(map(operator.itemgetter("coords"), points))
        got_mults = list(map(operator.itemgetter("mult"), points))
    except KeyError:
        return False
    text = _coord_text(MODE_RATIONAL, den)
    return (set(map(type, got_coords)) == {list} and set(map(len, got_coords)) == {dim}
            and set(map(type, got_mults)) == {int}
            and got_mults == list(map(operator.itemgetter(1), rows))
            and (list(itertools.chain.from_iterable(got_coords))
                 == list(map(text, itertools.chain.from_iterable(
                     map(operator.itemgetter(0), rows))))))


def _parse_mult(value) -> int:
    """A multiplicity as read: a whole float such as 2.0 is taken, but 1.7
    and true are rejected rather than read as 1."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return parse_int(value, "a multiplicity")


def _plain_float_records(points: list):
    """The records of points that need no parsing, or None.

    Each point must be an object whose coords are a list of Python floats
    and whose mult, if given, is an int, and all the floats must sum to a
    finite number, which they do only when each is finite.  Such values
    pass as read; any other cloud is parsed point by point, which refuses
    a bad value with its own message.
    """
    rows, mults = [], []
    for p in points:
        if type(p) is not dict:
            return None
        coords, mult = p.get("coords"), p.get("mult", 1)
        if type(coords) is not list or type(mult) is not int:
            return None
        rows.append(tuple(coords))
        mults.append(mult)
    if not (set(map(type, itertools.chain.from_iterable(rows))) <= {float}
            and math.isfinite(sum(itertools.chain.from_iterable(rows)))):
        return None
    return list(map(tuple.__new__, itertools.repeat(PointRecord), zip(rows, mults)))


def cloud_from_obj(data: dict) -> WeightedPointCloud:
    data = _object(data, "a point cloud")
    mode = data["scalar"]
    if mode not in (MODE_RATIONAL, MODE_FLOAT):
        raise ValueError(f"unknown scalar mode {mode!r}")
    dim, points = data["dim"], data["points"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ValueError(f"dim must be an integer, got {dim!r:.40}")
    points = _list(points, "points")
    records = _plain_float_records(points) if mode == MODE_FLOAT else None
    if records is None:
        records = []
        for p in points:
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
        cells = [cell.strip() for cell in line.split(",")]
        if has_mult:
            coords, mult = cells[:-1], parse_int(cells[-1], "a multiplicity")
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
    planes = []
    for row in _list(data["hyperplanes"], "hyperplanes"):
        row = [parse_scalar(c, MODE_RATIONAL) for c in _list(row, "a hyperplane")]
        lcm = math.lcm(*(c.denominator for c in row))
        planes.append(Hyperplane(tuple(c.numerator * (lcm // c.denominator) for c in row)))
    return CoverSolution(tuple(planes))


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
    return ColoredGraph(parse_int(data["n"], "n"),
                        frozenset(_pair(e, "an edge")
                                  for e in _list(data["edges"], "edges")),
                        colors)


# ---------------------------------------------------------------------------
# reduction instances


def ds_instance_to_obj(inst: VandermondeInstance) -> dict:
    return {
        "kind": "ds_cover",
        "k": inst.k,
        "graph": graph_to_obj(inst.graph),
        "cloud": cloud_to_obj(inst.cloud),
    }


def rmis_instance_to_obj(inst: RmisInstance) -> dict:
    """What the builder needs to rebuild the instance (the graph and the
    relaxed constants), the budget, and the records."""
    par = inst.params
    return {
        "kind": "rmis",
        "B": str(inst.B),
        "params": {"p": str(par.p), "W": str(par.W), "d_s": str(par.d_s),
                   "d_l": str(par.d_l), "faithful": par.faithful},
        "cloud": rows_to_obj(2, MODE_RATIONAL, inst.rows()) if inst.materialized else None,
        "meta": {"graph": graph_to_obj(inst.graph),
                 "warnings": list(inst.meta["warnings"])},
    }


def instance_from_obj(data: dict):
    """A reduction instance, rebuilt from the file's graph and parameters.

    A ``ds_cover`` instance is rebuilt by :func:`ds_to_hyperplane_cover` from
    the file's graph and ``k`` (a vertex adjacent to all others is allowed: that
    policy is for building an instance, not for reading one), under the
    default coordinate guard.  An ``rmis`` instance is rebuilt by
    :func:`rmis_to_line_clustering` from the file's graph, ``faithful`` flag
    and, for relaxed files, its constants p, W, d_s and d_l.  Either way the
    file's cloud must be the JSON value the writer writes for the rebuilt
    instance, ``null`` where the gadget is counts-only.  Fields that older
    writers added and that the graph and parameters fix (``k``, the theta
    tables, line tables, family slices, n, ell, nu, q) are ignored.
    """
    data = _object(data, "an instance")
    kind = data.get("kind")
    if kind == "ds_cover":
        inst = ds_to_hyperplane_cover(graph_from_obj(data["graph"]),
                                      parse_int(data["k"], "k"), allow_trivial=True)
        source, note = "graph and k", ""
        written = _is_written_form(data["cloud"], inst.dim, inst.cloud.records, inst.cloud.den)
    elif kind == "rmis":
        par = _object(data["params"], "params")
        faithful = par["faithful"]
        if not isinstance(faithful, bool):
            raise ValueError(f"faithful must be true or false, got {faithful!r:.40}")
        constants = None if faithful else {
            name: parse_int(par[name], name) for name in ("p", "W", "d_s", "d_l")}
        graph = graph_from_obj(_object(data["meta"], "meta")["graph"])
        inst = rmis_to_line_clustering(graph, faithful, constants=constants)
        source, note = "graph and params", ("" if inst.materialized else (
            f" (null: more than {MATERIALIZE_RECORD_LIMIT} records are only kept "
            "counts-only)"))
        written = _is_written_form(data["cloud"], 2,
                                   inst.rows() if inst.materialized else None)
    else:
        raise ValueError(f"unknown instance kind {kind!r}")
    if not written:
        raise ValueError(f"the instance's cloud differs from the one its {source} "
                         f"build{note}")
    return inst
