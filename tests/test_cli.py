import argparse
import copy
import functools
import inspect
import json
import operator
import os
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcover.cli import build_parser, main
from flatcover import io as fio
from flatcover.generators import matching_color_graph
from flatcover.geometry import PointRecord, WeightedPointCloud
from flatcover.reductions import ds_to_hyperplane_cover, rmis_to_line_clustering
from oracles import path_graph


def run(argv):
    return main(argv)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture
def planted_file(tmp_path):
    path = tmp_path / "planted.json"
    assert run(["gen", "planted", "-n", "6", "-k", "2", "--noise", "0.0",
                "--no-rotate", "--seed", "5", "-o", str(path)]) == 0
    return str(path)


def test_gen_and_fit_roundtrip(tmp_path, planted_file):
    out = tmp_path / "fit.json"
    assert run(["fit", planted_file, "-r", "1", "-o", str(out)]) == 0
    data = read_json(out)
    assert data["kind"] == "fit"
    assert "manifest" in data and data["manifest"]["tool"] == "flatcover"


def test_fit_collinear_zero_cost(tmp_path):
    src = tmp_path / "line.json"
    cloud = {"dim": 2, "scalar": "float",
             "points": [{"coords": [float(i), 2.0 * i], "mult": 1} for i in range(5)]}
    src.write_text(json.dumps(cloud))
    out = tmp_path / "fit.json"
    assert run(["fit", str(src), "-r", "1", "-o", str(out)]) == 0
    assert read_json(out)["cost"] <= 1e-18


def test_fit_r0_echoes_centroid(tmp_path):
    src = tmp_path / "two.json"
    src.write_text(json.dumps({"dim": 2, "scalar": "float", "points": [
        {"coords": [0.0, 0.0], "mult": 1}, {"coords": [2.0, 4.0], "mult": 1}]}))
    out = tmp_path / "fit.json"
    assert run(["fit", str(src), "-r", "0", "-o", str(out)]) == 0
    assert read_json(out)["flat"]["offset"] == [1.0, 2.0]


def test_cli_matches_library_fit(tmp_path, planted_file):
    out = tmp_path / "fit.json"
    run(["fit", planted_file, "-r", "1", "-o", str(out)])
    from flatcover.fitting import best_fit_flat
    cloud = fio.cloud_from_obj(read_json(planted_file))
    res = best_fit_flat(cloud, 1)
    data = read_json(out)
    assert data["cost"] == pytest.approx(res.cost, rel=1e-15, abs=1e-300)
    assert data["flat"]["offset"] == pytest.approx(list(res.flat.offset))


def test_cluster_exact_planted(tmp_path, planted_file):
    out = tmp_path / "sol.json"
    assert run(["cluster", planted_file, "-k", "2", "-r", "1",
                "-o", str(out)]) == 0
    data = read_json(out)
    assert data["mode"] == "exact"
    assert float(data["cost"]) <= 1e-18


def test_cluster_decision_mode(tmp_path, planted_file, capsys):
    assert run(["cluster", planted_file, "-k", "2", "-r", "1", "--budget", "1.0",
                "-o", str(tmp_path / "s.json")]) == 0
    assert "YES" in capsys.readouterr().out
    assert run(["cluster", planted_file, "-k", "1", "-r", "0", "--budget", "1e-9",
                "-o", str(tmp_path / "s2.json")]) == 1


def test_cluster_guard_exit_code(tmp_path):
    src = tmp_path / "big.json"
    pts = [{"coords": [float(i), float(i * i % 7)], "mult": 1} for i in range(30)]
    src.write_text(json.dumps({"dim": 2, "scalar": "float", "points": pts}))
    assert run(["cluster", str(src), "-k", "3", "-r", "1", "--guard", "100",
                "-o", str(tmp_path / "x.json")]) == 3


def test_typed_error_exits_2_without_traceback(tmp_path, capsys):
    # A float coordinate in a rational cloud raises ScalarModeError, a TypeError.
    src = tmp_path / "mixed.json"
    src.write_text(json.dumps({"dim": 2, "scalar": "rational",
                               "points": [{"coords": ["1", 1.5], "mult": 1}]}))
    assert run(["cover", str(src), "-k", "1", "-o", str(tmp_path / "c.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def assert_usage_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


def test_csv_nan_coordinate_exits_2(tmp_path, capsys):
    src = tmp_path / "nan.csv"
    src.write_text("0,nan\n1,1\n2,0\n")
    assert run(["cluster", str(src), "-k", "1", "-r", "1",
                "-o", str(tmp_path / "s.json")]) == 2
    assert "finite" in assert_usage_error(capsys)


def test_json_fractional_mult_exits_2(tmp_path, capsys):
    src = tmp_path / "mult.json"
    src.write_text(json.dumps({"dim": 2, "scalar": "float", "points": [
        {"coords": [0.0, 0.0], "mult": 1.7}, {"coords": [1.0, 1.0], "mult": 1}]}))
    assert run(["fit", str(src), "-r", "1", "-o", str(tmp_path / "f.json")]) == 2
    assert "1.7" in assert_usage_error(capsys)


def test_json_nan_coordinate_exits_2(tmp_path, capsys):
    src = tmp_path / "nan.json"
    src.write_text(json.dumps({"dim": 2, "scalar": "float", "points": [
        {"coords": [float("nan"), 0.0], "mult": 1}, {"coords": [1.0, 1.0], "mult": 1}]}))
    assert run(["fit", str(src), "-r", "1", "-o", str(tmp_path / "f.json")]) == 2
    err = assert_usage_error(capsys)
    assert "finite" in err and "orthonormal" not in err


HUGE_CSV = "1e200,0\n-1e200,1\n0,3\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_output_exits_2(tmp_path, capsys):
    # Finite input whose scatter overflows: the cost is nan, which JSON cannot
    # hold.  The one error line is all that reaches stderr: no numpy warning.
    src = tmp_path / "huge.csv"
    src.write_text(HUGE_CSV)
    out = tmp_path / "f.json"
    assert run(["fit", str(src), "-r", "1", "-o", str(out)]) == 2
    assert "non-finite" in assert_usage_error(capsys)
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_heuristic_run_warns_nothing(tmp_path, capsys):
    # The heuristic's refits of the same input overflow too, yet it succeeds.
    src = tmp_path / "huge.csv"
    src.write_text(HUGE_CSV)
    assert run(["cluster", str(src), "-k", "2", "-r", "1", "--heuristic",
                "-o", str(tmp_path / "s.json")]) == 0
    assert capsys.readouterr().err == ""


def test_cover_grid_yes_no(tmp_path, capsys):
    src = tmp_path / "grid.json"
    pts = [{"coords": [str(x), str(y)], "mult": 1}
           for x in range(3) for y in range(3)]
    src.write_text(json.dumps({"dim": 2, "scalar": "rational", "points": pts}))
    assert run(["cover", str(src), "-k", "3", "-o", str(tmp_path / "y.json")]) == 0
    assert "YES" in capsys.readouterr().out
    assert run(["cover", str(src), "-k", "2", "-o", str(tmp_path / "n.json")]) == 1
    assert "NO" in capsys.readouterr().out
    assert run(["cover", str(src), "-k", "3", "--kernel",
                "-o", str(tmp_path / "yk.json")]) == 0
    assert run(["cover", str(src), "-k", "2", "--kernel",
                "-o", str(tmp_path / "nk.json")]) == 1


def test_reduce_ds_and_verify(tmp_path, capsys):
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps(fio.graph_to_obj(path_graph(4))))
    ipath = tmp_path / "inst.json"
    assert run(["reduce-ds", str(gpath), "-k", "2", "-o", str(ipath)]) == 0
    wpath = tmp_path / "witness.json"
    wpath.write_text(json.dumps({"kind": "dominating_set", "vertices": [0, 2]}))
    assert run(["verify", str(ipath), str(wpath)]) == 0
    assert "PASS" in capsys.readouterr().out
    # A set that does not dominate is a verdict; a vertex outside the graph
    # is malformed, even where the set would not dominate either.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "dominating_set", "vertices": [0]}))
    assert run(["verify", str(ipath), str(bad)]) == 1
    assert capsys.readouterr() == ("FAIL  witness dominates and covers\nFAIL\n", "")
    bad.write_text(json.dumps({"kind": "dominating_set", "vertices": [7]}))
    assert run(["verify", str(ipath), str(bad)]) == 2
    assert "0..3" in assert_usage_error(capsys)


def test_verify_cover_witness_on_ds_instance(tmp_path, capsys):
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps(fio.graph_to_obj(path_graph(4))))
    ipath = tmp_path / "inst.json"
    run(["reduce-ds", str(gpath), "-k", "2", "-o", str(ipath)])
    # A raw cover witness: the planes x[1] = 1 and x[3] = 1 for {0, 2},
    # with integer and with "num/den" coefficients.
    wpath = tmp_path / "cover.json"
    for hyperplanes in ([["-1", "1", "0", "0", "0"], ["-1", "0", "0", "1", "0"]],
                        [["-2/2", "1/1", "0", "0", "0"], ["-1/3", "0", "0", "1/3", "0/5"]]):
        wpath.write_text(json.dumps({"kind": "cover", "hyperplanes": hyperplanes}))
        assert run(["verify", str(ipath), str(wpath)]) == 0
        assert "PASS" in capsys.readouterr().out


def test_manifest_records_the_argv_given_to_main(tmp_path, monkeypatch):
    # An in-process caller's own command line is not the one main() ran.
    monkeypatch.setattr(sys, "argv", ["host-program", "--host-option"])
    out = tmp_path / "exact.json"
    argv = ["gen", "random-exact", "-n", "3", "--seed", "1", "-o", str(out)]
    assert run(argv) == 0
    assert read_json(out)["manifest"]["argv"] == argv


EXPONENT = "1e10000000"  # Fraction(EXPONENT) takes seconds to build


def test_exponent_text_in_a_cloud_exits_2_quickly(tmp_path, capsys):
    src = tmp_path / "exp.json"
    src.write_text(json.dumps({"dim": 2, "scalar": "rational",
                               "points": [{"coords": [EXPONENT, "0"], "mult": 1}]}))
    t0 = time.perf_counter()
    assert run(["cover", str(src), "-k", "1", "-o", str(tmp_path / "c.json")]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "num/den" in assert_usage_error(capsys)


def test_exponent_text_in_a_witness_exits_2_quickly(tmp_path, capsys):
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps(fio.graph_to_obj(path_graph(4))))
    ipath = tmp_path / "inst.json"
    assert run(["reduce-ds", str(gpath), "-k", "2", "-o", str(ipath)]) == 0
    wpath = tmp_path / "cover.json"
    wpath.write_text(json.dumps({"kind": "cover",
                                 "hyperplanes": [[EXPONENT, "1", "0", "0", "0"]]}))
    t0 = time.perf_counter()
    assert run(["verify", str(ipath), str(wpath)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "num/den" in assert_usage_error(capsys)


def test_reduce_rmis_and_verify(tmp_path, capsys):
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps(fio.graph_to_obj(matching_color_graph(2, 8))))
    ipath = tmp_path / "inst.json"
    assert run(["reduce-rmis", str(gpath), "-o", str(ipath)]) == 0
    wpath = tmp_path / "witness.json"
    wpath.write_text(json.dumps({"kind": "selection", "indices": [4, 5]}))
    assert run(["verify", str(ipath), str(wpath)]) == 0
    out = capsys.readouterr().out
    assert "cost <= B" in out and "FAIL" not in out


def test_plot_svg(tmp_path, planted_file):
    sol = tmp_path / "sol.json"
    run(["cluster", planted_file, "-k", "2", "-r", "1", "-o", str(sol)])
    svg = tmp_path / "plot.svg"
    assert run(["plot", planted_file, "--solution", str(sol), "-o", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "<circle" in text and "<line" in text


def test_bench_partitions(tmp_path):
    out = tmp_path / "bench.tsv"
    assert run(["bench", "--n-min", "5", "--n-max", "7", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("n\t")
    counts = [int(l.split("\t")[1]) for l in lines[1:4]]
    assert all(c >= 1 for c in counts)
    assert lines[-1].startswith("# log-log slope")


@pytest.mark.parametrize("argv", [
    ["fit", "{cloud}", "-r", "1"],
    ["cluster", "{cloud}", "-k", "2", "-r", "1"],
    ["cluster", "{cloud}", "-k", "2", "-r", "1", "--heuristic", "--restarts", "8",
     "--seed", "11"],
    ["cover", "{grid}", "-k", "3"],
    ["reduce-ds", "{graph}", "-k", "2"],
    ["reduce-rmis", "{colored_graph}"],
    ["gen", "random", "-n", "9", "--seed", "3"],
], ids=["fit", "cluster-exact", "cluster-heuristic", "cover", "reduce-ds", "reduce-rmis",
        "gen"])
def test_outputs_byte_identical(tmp_path, planted_file, argv):
    # Whole files, manifest included: no clock reading reaches a result.
    docs = {"grid": {"dim": 2, "scalar": "rational", "points": [
                {"coords": [str(x), str(y)], "mult": 1} for x in range(3) for y in range(3)]},
            "graph": fio.graph_to_obj(path_graph(4)),
            "colored_graph": fio.graph_to_obj(matching_color_graph(2, 4))}
    paths = {"cloud": planted_file, "out": str(tmp_path / "out.json")}
    for role, doc in docs.items():
        paths[role] = str(tmp_path / f"{role}.json")
        with open(paths[role], "w") as fh:
            json.dump(doc, fh)
    argv = [a.format(**paths) for a in argv] + ["-o", paths["out"]]
    written = []
    for _ in range(2):
        assert run(argv) == 0
        with open(paths["out"], "rb") as fh:
            written.append(fh.read())
    assert written[0] == written[1]


def test_csv_roundtrip(tmp_path):
    csv = tmp_path / "pts.csv"
    assert run(["gen", "random", "-n", "5", "--seed", "1", "--format", "csv",
                "-o", str(csv)]) == 0
    out = tmp_path / "fit.json"
    assert run(["fit", str(csv), "-r", "1", "-o", str(out)]) == 0
    assert read_json(out)["kind"] == "fit"


GOOD_POINT = {"coords": [0.0, 1.0], "mult": 1}


@pytest.mark.parametrize("doc", [
    {"dim": 2, "scalar": "float", "points": 5},
    {"dim": 2, "scalar": "float", "points": [GOOD_POINT, None]},
    {"dim": 2, "scalar": "float", "points": [GOOD_POINT, {"coords": 5}]},
    {"dim": 2, "scalar": "float", "points": [GOOD_POINT, [1, 2]]},
    {"dim": 2, "scalar": "float", "points": [GOOD_POINT, {"coords": [None, 1.0]}]},
    {"dim": 2, "scalar": "float", "points": [GOOD_POINT, {"coords": [1, 2], "mult": True}]},
    {"dim": "2", "scalar": "float", "points": [GOOD_POINT]},
    "x",
    [1, 2],
], ids=["points-int", "point-null", "coords-int", "point-list", "coord-null",
        "mult-bool", "dim-string", "top-string", "top-list"])
@pytest.mark.parametrize("command", [["fit", "-r", "1"], ["cluster", "-k", "1", "-r", "1"]],
                         ids=["fit", "cluster"])
def test_wrongly_typed_json_exits_2(tmp_path, capsys, doc, command):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(doc))
    argv = [command[0], str(src), *command[1:], "-o", str(tmp_path / "out.json")]
    assert run(argv) == 2
    assert_usage_error(capsys)


NOT_INTEGER_TEXT = [" 1", "1_000", "\u0665", "+", "", "0x10"]
INTEGER_SITES = ["graph-n", "witness-vertex", "json-mult", "csv-mult", "guard-env"]


@pytest.mark.parametrize("site,text", [
    (site, text) for site in INTEGER_SITES for text in NOT_INTEGER_TEXT
    # The CSV reader strips its cells, so " 1" is a multiplicity of 1 there.
    if (site, text) != ("csv-mult", " 1")])
def test_integer_fields_take_only_digit_text(tmp_path, capsys, monkeypatch, site, text):
    # int() would also take spaces, underscores and non-ASCII digits.
    path, out = tmp_path / "in.json", ["-o", str(tmp_path / "out.json")]
    if site == "graph-n":
        path.write_text(json.dumps({"n": text, "edges": []}))
        argv = ["reduce-ds", str(path), "-k", "2", *out]
    elif site == "witness-vertex":
        path.write_text(json.dumps({"kind": "dominating_set", "vertices": [0, text]}))
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(reduction_cases()["verify-ds"][1]["inst"]))
        argv = ["verify", str(inst), str(path)]
    elif site == "json-mult":
        path.write_text(json.dumps({"dim": 2, "scalar": "float", "points": [
            {"coords": [0.0, 1.0], "mult": text}]}))
        argv = ["fit", str(path), "-r", "1", *out]
    elif site == "csv-mult":
        path = tmp_path / "in.csv"
        path.write_text(f"0,0,1\n1,1,{text}\n")
        argv = ["fit", str(path), "-r", "1", "--csv-mult", *out]
    else:
        monkeypatch.setenv("FLATCOVER_GUARD", text)
        path.write_text(json.dumps(fio.graph_to_obj(path_graph(4))))
        argv = ["reduce-ds", str(path), "-k", "2", *out]
    assert run(argv) == 2
    assert_usage_error(capsys)


@pytest.mark.parametrize("command,scalar,point", [
    (["fit", "-r", "1"], "float", {"coords": [10**400, 0.0]}),
    (["fit", "-r", "1"], "float", {"coords": [0.0, 1.0], "mult": 10**400}),
    (["cover", "-k", "1"], "rational", {"coords": ["1/0", "1"]}),
], ids=["coord-beyond-float", "mult-beyond-float", "zero-denominator"])
def test_out_of_range_numbers_exit_2(tmp_path, capsys, command, scalar, point):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"dim": 2, "scalar": scalar, "points": [
        {"coords": [0, 0] if scalar == "float" else ["0", "0"]}, point]}))
    argv = [command[0], str(src), *command[1:], "-o", str(tmp_path / "out.json")]
    assert run(argv) == 2
    assert_usage_error(capsys)


@pytest.mark.parametrize("point,message", [
    ({"coords": [True, 1.0]}, "float scalars must be numbers, got True"),
    ({"coords": ["nan", 1.0]}, "float scalars must be finite, got 'nan'"),
    ({"coords": [10**400, 1.0]}, f"float scalars must be finite, got {10**400}"),
    ({"coords": [1.0, 2.0, 3.0]}, "record of length 3 in a dim-2 cloud"),
    ({"coords": {"x": 1.0}}, "coords must be a list, got {'x': 1.0}"),
], ids=["coord-bool", "coord-nan-text", "coord-int-beyond-float", "coords-wrong-length",
        "coords-object"])
def test_float_reader_refusals_keep_their_messages(tmp_path, capsys, point, message):
    # Each bad point follows a point of plain floats, which pass as read.
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"dim": 2, "scalar": "float", "points": [GOOD_POINT, point]}))
    assert run(["cluster", str(src), "-k", "1", "-r", "1", "--heuristic",
                "-o", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.fixture(scope="module")
def rmis_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("rmis")
    gpath = tmp / "graph.json"
    gpath.write_text(json.dumps(fio.graph_to_obj(matching_color_graph(2, 8))))
    ipath = tmp / "inst.json"
    assert run(["reduce-rmis", str(gpath), "-o", str(ipath)]) == 0
    return read_json(ipath)


def test_verify_names_missing_field(tmp_path, capsys, rmis_files):
    witness = {"kind": "selection", "indices": [4, 5]}
    no_params = dict(rmis_files)
    del no_params["params"]
    no_p = dict(rmis_files, params=dict(rmis_files["params"]))
    del no_p["params"]["p"]
    cases = [(no_params, witness, "params"), (no_p, witness, "p"),
             (rmis_files, {"kind": "selection"}, "indices")]
    for inst, wit, field in cases:
        ipath, wpath = tmp_path / "inst.json", tmp_path / "witness.json"
        ipath.write_text(json.dumps(inst))
        wpath.write_text(json.dumps(wit))
        assert run(["verify", str(ipath), str(wpath)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: missing field '{field}'\n"


@pytest.mark.parametrize("argv,message", [
    (["cover", "{float_cloud}", "-k", "1", "-o", "{out}"], "rational-mode cloud"),
    (["gen", "random-exact", "--format", "csv", "-o", "{out}"], "CSV output"),
    (["gen", "matching-graph", "--format", "csv", "-o", "{out}"], "CSV output"),
    (["verify", "{ds_inst}", "{selection}"], "got selection"),
    (["verify", "{rmis_inst}", "{cover}"], "got cover"),
    (["verify", "{rmis_inst}", "{dominating_set}"], "got dominating_set"),
    (["verify", "{ds_inst}", "{four_planes}"], "witness has 4 hyperplanes but k = 2"),
    (["plot", "{float_cloud}", "--solution", "{selection}", "-o", "{out}"],
     "missing field 'flats'"),
    (["plot", "{float_cloud}", "--solution", "{fit_result}", "-o", "{out}"],
     "missing field 'flats'"),
    (["plot", "{float_cloud}", "--solution", "{solution_list}", "-o", "{out}"],
     "must be a JSON object"),
    (["plot", "{float_cloud}", "--solution", "{nested_basis}", "-o", "{out}"],
     "must be numbers"),
    (["gen", "planted", "-k", "0", "-o", "{out}"], "at least one planted line"),
    (["gen", "planted", "-k", "-1", "-o", "{out}"], "at least one planted line"),
    (["cluster", "{float_cloud}", "-k", "1000000000", "-r", "1", "-o", "{out}"],
     "number of records (1)"),
    (["cluster", "{float_cloud}", "-k", "1000000000", "-r", "1", "--heuristic",
      "-o", "{out}"], "number of records (1)"),
    (["gen", "random", "--dim", "0", "-n", "3", "-o", "{out}"],
     "dimension must be at least 1, got 0"),
    (["gen", "random-exact", "--dim", "0", "-n", "1", "-o", "{out}"],
     "dimension must be at least 1, got 0"),
    (["gen", "random", "--max-mult", "0", "-o", "{out}"], "max_mult must be at least 1"),
    (["fit", "{negative_dim}", "-r", "0", "-o", "{out}"],
     "dimension must be at least 1, got -1"),
    (["cover", "{zero_dim}", "-k", "1", "-o", "{out}"],
     "dimension must be at least 1, got 0"),
    (["gen", "random", "--dim", "-1", "-n", "3", "-o", "{out}"],
     "dimension must be at least 1, got -1"),
    (["gen", "random-exact", "--dim", "-1", "-n", "1", "-o", "{out}"],
     "dimension must be at least 1, got -1"),
    (["gen", "random", "-n", "0", "-o", "{out}"], "need at least one point, got n = 0"),
    (["gen", "random-exact", "-n", "0", "-o", "{out}"], "need at least one point, got n = 0"),
    (["gen", "planted", "-n", "0", "-o", "{out}"], "need at least one point, got n = 0"),
    (["cover", "{space_cloud}", "-k", "1", "--kernel", "-o", "{out}"],
     "kernel requires d = 2"),
    (["reduce-rmis", "{rmis_graph}", "--override", "p=0", "-o", "{out}"],
     "must be >= 1, got 0"),
    (["reduce-rmis", "{rmis_graph}", "--override", "W=-5", "-o", "{out}"],
     "W is the least weight of a Z stack and must be >= 1, got -5"),
    (["reduce-rmis", "{rmis_graph}", "--override", "W=0", "-o", "{out}"],
     "W is the least weight of a Z stack and must be >= 1, got 0"),
    *[(["cluster", "{float_cloud}", "-k", "1", "-r", "1", "--heuristic", option, value,
        "-o", "{out}"], "restarts >= 1, max_iter >= 1, rel_tol > 0 required")
      for option, value in [("--restarts", "0"), ("--max-iter", "0"), ("--tol", "0"),
                            ("--tol", "nan")]],
    (["cover", "{space_cloud}", "-k", "-1", "-o", "{out}"], "k must be >= 0"),
    (["verify", "{ds_inst}", "{cover}"], "hyperplane dimension differs from cloud"),
    *[(["cluster", "{float_cloud}", "-k", "1", "-r", "1", f"--budget={value}", "-o", "{out}"],
       f"--budget must be a finite number, got {float(value)}")
      for value in ("nan", "inf", "-inf", "1e309")],
    (["gen", "planted", "--noise", "nan", "-o", "{out}"],
     "--noise must be a finite number, got nan"),
    (["gen", "matching-graph", "--ell", "2", "--nu", "0", "-o", "{out}"],
     "matching graph needs nu >= 1 vertices per class, got 0"),
    (["gen", "matching-graph", "--ell", "0", "-o", "{out}"],
     "matching graph needs ell >= 2 color classes, got 0"),
    (["gen", "matching-graph", "--ell", "-2", "-o", "{out}"],
     "matching graph needs ell >= 2 color classes, got -2"),
    (["reduce-rmis", "{empty_classes}", "-o", "{out}"], "nu must be at least 2"),
], ids=["cover-float-cloud", "csv-random-exact", "csv-matching-graph", "ds-selection",
        "rmis-cover", "rmis-dominating-set", "ds-cover-above-k", "plot-witness",
        "plot-fit-result", "plot-solution-list", "plot-nested-basis", "planted-k-zero",
        "planted-k-negative", "cluster-k-above-records", "heuristic-k-above-records",
        "random-dim-zero", "random-exact-dim-zero", "random-max-mult-zero",
        "cloud-dim-negative", "cover-dim-zero", "random-dim-negative",
        "random-exact-dim-negative", "random-n-zero", "random-exact-n-zero",
        "planted-n-zero", "cover-kernel-3d", "rmis-p-zero", "rmis-W-negative",
        "rmis-W-zero", "heuristic-restarts-zero", "heuristic-max-iter-zero",
        "heuristic-tol-zero", "heuristic-tol-nan", "cover-k-negative",
        "ds-cover-wrong-dimension", "budget-nan", "budget-inf", "budget-minus-inf",
        "budget-beyond-float", "planted-noise-nan", "matching-nu-zero",
        "matching-ell-zero", "matching-ell-negative", "rmis-nu-zero"])
def test_refused_combinations_exit_2(tmp_path, capsys, argv, message):
    cases = reduction_cases()
    docs = {"float_cloud": {"dim": 2, "scalar": "float", "points": [{"coords": [0.0, 0.0]}]},
            "ds_inst": cases["verify-ds"][1]["inst"],
            "rmis_inst": cases["verify-rmis"][1]["inst"],
            "rmis_graph": cases["reduce-rmis"][1]["graph"],
            # Two empty color classes: a 0-vertex graph is regular of no degree.
            "empty_classes": {"n": 0, "edges": [], "colors": [[], []]},
            "selection": {"kind": "selection", "indices": [1, 2]},
            "cover": {"kind": "cover", "hyperplanes": [["0", "1", "0"]]},
            "dominating_set": {"kind": "dominating_set", "vertices": [0]},
            # The planes x[i] = 1 for every vertex of the 4-vertex path cover
            # its instance, but k = 2.
            "four_planes": {"kind": "cover", "hyperplanes": [
                ["-1", *("1" if j == i else "0" for j in range(4))] for i in range(4)]},
            "fit_result": {"kind": "fit", "r": 1,
                           "flat": {"basis": [[1.0, 0.0]], "offset": [0.0, 0.0]}},
            "solution_list": [1],
            "negative_dim": {"dim": -1, "scalar": "float", "points": []},
            "zero_dim": {"dim": 0, "scalar": "rational", "points": [{"coords": []}]},
            "space_cloud": {"dim": 3, "scalar": "rational",
                            "points": [{"coords": ["0", "0", "0"]}]},
            "nested_basis": {"flats": [{"basis": [[[1]]], "offset": [0.0, 0.0]}]}}
    paths = {"out": str(tmp_path / "out")}
    for role, doc in docs.items():
        paths[role] = str(tmp_path / f"{role}.json")
        with open(paths[role], "w") as fh:
            json.dump(doc, fh)
    assert run([a.format(**paths) for a in argv]) == 2
    assert message in assert_usage_error(capsys)
    assert not os.path.exists(paths["out"])


def test_every_option_is_read_by_its_handler():
    # An option or positional its handler never reads is accepted and
    # silently ignored.  _write_output reads args.output for the handlers
    # that call it.
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    unread = []
    for name, parser in sub.choices.items():
        source = inspect.getsource(parser.get_default("func"))
        for action in parser._actions:
            read = (re.search(rf"\bargs\.{action.dest}\b", source)
                    or action.dest == "output" and "_write_output(args" in source)
            if action.dest != "help" and not read:
                unread.append(f"{name} {action.dest}")
    assert not unread, f"options never read by their handler: {unread}"
    with pytest.raises(SystemExit) as exc:
        main(["fit", "pts.json", "-r", "1", "--guard", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("extra,env,message", [
    (["--guard", "-5"], None, "--guard must be at least 0, got -5"),
    ([], "-3", "FLATCOVER_GUARD must be at least 0, got -3"),
    # The heuristic has no node guard, but a negative cap is still refused.
    (["--heuristic", "--guard", "-5"], None, "--guard must be at least 0, got -5"),
    (["--heuristic"], "-5", "FLATCOVER_GUARD must be at least 0, got -5")],
    ids=["option", "env", "heuristic-option", "heuristic-env"])
def test_negative_guard_exits_2(tmp_path, planted_file, capsys, monkeypatch, extra, env,
                                message):
    if env is not None:
        monkeypatch.setenv("FLATCOVER_GUARD", env)
    out = tmp_path / "s.json"
    assert run(["cluster", planted_file, "-k", "2", "-r", "1", *extra, "-o", str(out)]) == 2
    assert message in assert_usage_error(capsys)
    assert not out.exists()


def test_main_builds_its_parser_once(tmp_path, planted_file, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    for _ in range(3):
        assert run(["fit", planted_file, "-r", "1", "-o", str(tmp_path / "fit.json")]) == 0
    assert built.count("flatcover") == 1
    assert len(built) == len(set(built))  # no subcommand parser rebuilt either


def test_importing_the_cli_builds_no_parser():
    src = os.path.dirname(os.path.dirname(fio.__file__))
    code = "import flatcover.cli as cli; print(cli.build_parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr


def test_reused_parser_keeps_no_state_between_calls(tmp_path, planted_file, capsys):
    # A usage error, then a valid call of the same command.
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"dim": 2, "scalar": "rational", "points": [
        {"coords": [str(x), str(y)]} for x in range(2) for y in range(2)]}))
    with pytest.raises(SystemExit) as exc:
        main(["cover", str(grid)])
    assert exc.value.code == 2
    assert "usage: flatcover cover" in capsys.readouterr().err
    assert run(["cover", str(grid), "-k", "2", "-o", str(tmp_path / "c.json")]) == 0
    assert capsys.readouterr() == ("YES\n", "")
    # An appended option does not carry over into the next call.
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps(fio.graph_to_obj(matching_color_graph(2, 4))))
    for name, extra in (("o.json", ["--override", "p=1000"]), ("p.json", [])):
        assert run(["reduce-rmis", str(gpath), *extra, "-o", str(tmp_path / name)]) == 0
    assert "constant overrides in effect" in read_json(tmp_path / "o.json")["meta"]["warnings"]
    assert "constant overrides in effect" not in read_json(tmp_path / "p.json")["meta"]["warnings"]
    # A budget given once is not remembered.
    assert run(["cluster", planted_file, "-k", "2", "-r", "1", "--budget", "1e9",
                "-o", str(tmp_path / "b.json")]) == 0
    assert read_json(tmp_path / "b.json")["decision"] == "YES"
    assert run(["cluster", planted_file, "-k", "2", "-r", "1",
                "-o", str(tmp_path / "n.json")]) == 0
    assert capsys.readouterr().out == "YES\n"
    assert "decision" not in read_json(tmp_path / "n.json")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12)


@st.composite
def cloud_docs(draw):
    """A valid JSON cloud with at most one part replaced by an arbitrary JSON value."""
    dim = draw(st.integers(1, 3))
    points = draw(st.lists(st.fixed_dictionaries({
        "coords": st.lists(st.integers(-9, 9) | st.floats(-1e3, 1e3),
                           min_size=dim, max_size=dim),
        "mult": st.integers(1, 3)}), min_size=1, max_size=5))
    doc = {"dim": dim, "scalar": draw(st.sampled_from(["float", "float", "rational"])),
           "points": points}
    junk = draw(JSON_VALUES)
    where = draw(st.sampled_from(
        [None, "doc", "dim", "scalar", "points", "point", "coords", "coord", "mult"]))
    if where == "doc":
        return junk
    if where in ("dim", "scalar", "points"):
        doc[where] = junk
    elif where == "point":
        points[-1] = junk
    elif where in ("coords", "mult"):
        points[-1][where] = junk
    elif where == "coord":
        points[-1]["coords"][-1] = junk
    return doc


@st.composite
def csv_texts(draw):
    """Rows of numeric cells with at most one cell or extra row of arbitrary text."""
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.sampled_from(["0", "1", "-2", "1.5", "3e2", " 4 "]),
                                  min_size=width, max_size=width),
                         min_size=1, max_size=5))
    junk = draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
                | st.sampled_from(["nan", "-inf", "1e999", "", "-1", "2.5", "9" * 400]))
    where = draw(st.sampled_from([None, "cell", "row"]))
    if where == "cell":
        rows[-1][-1] = junk
    elif where == "row":
        rows.append([junk])
    return "\n".join(",".join(row) for row in rows)


@settings(max_examples=100, deadline=None)
@given(doc=cloud_docs(), csv=csv_texts(), r=st.integers(0, 2),
       csv_mult=st.booleans())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_loader_fuzz_exits_0_or_2(doc, csv, r, csv_mult):
    with tempfile.TemporaryDirectory() as tmp:
        jpath, cpath = os.path.join(tmp, "in.json"), os.path.join(tmp, "in.csv")
        with open(jpath, "w") as fh:
            json.dump(doc, fh)
        with open(cpath, "w", encoding="utf-8") as fh:
            fh.write(csv)
        out = os.path.join(tmp, "out.json")
        assert run(["fit", jpath, "-r", str(r), "-o", out]) in (0, 2)
        argv = ["fit", cpath, "-r", str(r), "-o", out]
        assert run(argv + ["--csv-mult"] if csv_mult else argv) in (0, 2)


@functools.cache
def reduction_cases():
    """Valid inputs of the reduction commands: name -> (argv, {role: JSON doc}).

    argv holds ``{role}`` placeholders for the files written from the docs.
    """
    def doc(obj):
        return json.loads(fio.dumps_canonical(obj))

    ds_inst = doc(fio.ds_instance_to_obj(ds_to_hyperplane_cover(path_graph(4), 2)))
    rmis_graph = matching_color_graph(2, 4)
    verify = ["verify", "{inst}", "{witness}"]
    return {
        "reduce-ds": (["reduce-ds", "{graph}", "-k", "2", "-o", "{out}"],
                      {"graph": doc(fio.graph_to_obj(path_graph(4)))}),
        "reduce-rmis": (["reduce-rmis", "{graph}", "-o", "{out}"],
                        {"graph": doc(fio.graph_to_obj(rmis_graph))}),
        "verify-ds": (verify, {"inst": ds_inst, "witness": {
            "kind": "dominating_set", "vertices": [0, 2]}}),
        "verify-ds-cover": (verify, {"inst": ds_inst, "witness": {
            "kind": "cover",
            "hyperplanes": [["-1", "1", "0", "0", "0"], ["-1", "0", "0", "1", "0"]]}}),
        "verify-rmis": (verify, {
            "inst": doc(fio.rmis_instance_to_obj(rmis_to_line_clustering(rmis_graph))),
            "witness": {"kind": "selection", "indices": [1, 2]}}),
    }


def replaced(doc, path, value):
    """A copy of doc with the node at path (keys and indices) set to value."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def run_reduction_case(tmp, argv, docs):
    paths = {"out": os.path.join(tmp, "out.json")}
    for role, doc in docs.items():
        paths[role] = os.path.join(tmp, f"{role}.json")
        with open(paths[role], "w") as fh:
            json.dump(doc, fh)
    return run([arg.format(**paths) for arg in argv])


def test_reduction_cases_are_valid(tmp_path):
    for name, (argv, docs) in reduction_cases().items():
        # The rmis selection (1, 2) picks adjacent vertices, so verify FAILs.
        assert run_reduction_case(str(tmp_path), argv, docs) == (
            1 if name == "verify-rmis" else 0), name


@pytest.mark.parametrize("case,role,path,value", [
    ("reduce-ds", "graph", (), [4, []]),
    ("reduce-ds", "graph", ("n",), [4]),
    ("reduce-ds", "graph", ("edges",), 5),
    ("reduce-ds", "graph", ("edges", 0), [[0], [1]]),
    ("reduce-ds", "graph", ("edges", 0, 1), 1.5),
    ("reduce-rmis", "graph", ("n",), None),
    ("reduce-rmis", "graph", ("colors",), [[0, 1, 2, 3], 7]),
    ("reduce-rmis", "graph", ("n",), 10**12),
    ("verify-ds", "inst", ("k",), [2]),
    ("verify-ds", "inst", ("graph",), None),
    ("verify-ds", "inst", ("k",), 3),
    ("verify-ds", "inst", ("k",), 0),
    ("verify-ds", "witness", (), [0, 2]),
    ("verify-ds", "witness", ("vertices",), "02"),
    ("verify-ds", "witness", ("vertices",), [0.5, 2]),
    ("verify-ds-cover", "witness", ("hyperplanes", 0, 0), None),
    ("verify-ds-cover", "witness", ("hyperplanes", 0, 0), "1/0"),
    ("verify-rmis", "inst", (), {"kind": "rmis", "params": [1], "B": "1"}),
    ("verify-rmis", "inst", (), [1]),
    ("verify-rmis", "inst", ("params", "p"), 2.5),
    ("verify-rmis", "inst", ("params", "d_l"), ["4"]),
    ("verify-rmis", "inst", ("params", "faithful"), "no"),
    ("verify-rmis", "inst", ("meta", "graph", "colors"), None),
    ("verify-rmis", "inst", ("cloud", "points", 0, "coords", 0), "1/2"),
    ("verify-rmis", "witness", ("indices",), ["1", [2]]),
    ("verify-rmis", "witness", ("kind",), "selectoin"),
], ids=["graph-list", "n-list", "edges-int", "edge-of-lists", "edge-float",
        "rmis-n-null", "colors-int", "rmis-n-huge", "ds-k-list", "ds-graph-null",
        "ds-k-unlike-rows", "ds-k-zero",
        "witness-list", "vertices-string", "vertices-float", "plane-null",
        "plane-zero-denominator", "rmis-params-list", "instance-list", "p-float",
        "d_l-list", "faithful-string", "graph-uncolored",
        "coord-fraction", "indices-mixed", "witness-kind-misspelled"])
def test_wrongly_typed_reduction_json_exits_2(tmp_path, capsys, case, role, path, value):
    argv, docs = reduction_cases()[case]
    docs = dict(docs, **{role: replaced(docs[role], path, value)})
    assert run_reduction_case(str(tmp_path), argv, docs) == 2
    assert_usage_error(capsys)


@pytest.mark.parametrize("n,vertex,message", [
    (4, 7, "0..3"), (4, -2, "0..3"), (5, 4, "cloud differs")],
    ids=["beyond-graph", "negative", "graph-beyond-cloud"])
def test_verify_witness_vertex_out_of_range_exits_2(tmp_path, capsys, n, vertex, message):
    # k = 3 lets {0, 2} dominate with one vertex to spare: a vertex beyond the
    # graph or the cloud's coordinates must not index past them or wrap to
    # the last one.
    _, docs = reduction_cases()["reduce-ds"]
    reduce_k3 = ["reduce-ds", "{graph}", "-k", "3", "-o", "{out}"]
    assert run_reduction_case(str(tmp_path), reduce_k3, docs) == 0
    inst = replaced(read_json(tmp_path / "out.json"), ("graph", "n"), n)
    argv, _ = reduction_cases()["verify-ds"]
    docs = {"inst": inst, "witness": {"kind": "dominating_set", "vertices": [0, 2, vertex]}}
    assert run_reduction_case(str(tmp_path), argv, docs) == 2
    assert message in assert_usage_error(capsys)


def assert_guard_exit(capsys):
    err = capsys.readouterr().err
    assert err.startswith("guard: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def cloud_1500(tmp_path_factory):
    path = tmp_path_factory.mktemp("deep") / "cloud.json"
    assert run(["gen", "random", "-n", "1500", "--seed", "0", "-o", str(path)]) == 0
    return str(path)


def test_cluster_search_deeper_than_the_recursion_limit(tmp_path, cloud_1500):
    # The partition search places one record per level; with k = 1 it is
    # a single path 1500 levels deep.
    out = tmp_path / "k1.json"
    assert run(["cluster", cloud_1500, "-k", "1", "-r", "1", "-o", str(out)]) == 0
    assert read_json(out)["assignment"] == [0] * 1500


def test_cluster_deep_search_trips_the_guard(tmp_path, capsys, cloud_1500):
    assert run(["cluster", cloud_1500, "-k", "3", "-r", "1", "--guard", "100000",
                "-o", str(tmp_path / "k3.json")]) == 3
    assert_guard_exit(capsys)
    assert not (tmp_path / "k3.json").exists()


def test_cover_three_long_lines(tmp_path, capsys):
    # 1501 positions on y = 0, x = 0 and y = x: each absorbed position used
    # to cost one level of recursion.
    pts = [(0, 0)] + [p for t in range(1, 501) for p in ((t, 0), (0, t), (t, t))]
    src = tmp_path / "lines.json"
    src.write_text(json.dumps({"dim": 2, "scalar": "rational", "points": [
        {"coords": [str(x), str(y)], "mult": 1} for x, y in pts]}))
    out = tmp_path / "cover.json"
    assert run(["cover", str(src), "-k", "3", "-o", str(out)]) == 0
    assert capsys.readouterr().out == "YES\n"
    assert len(read_json(out)["hyperplanes"]) == 3


def test_gen_random_exact_refuses_more_points_than_positions(tmp_path, capsys):
    # 17 x 17 = 289 integer positions exist in [-8, 8]^2.
    out = tmp_path / "exact.json"
    assert run(["gen", "random-exact", "-n", "290", "--dim", "2", "-o", str(out)]) == 2
    assert "289 distinct positions" in assert_usage_error(capsys)
    assert not out.exists()
    assert run(["gen", "random-exact", "-n", "289", "--dim", "2", "-o", str(out)]) == 0
    assert len(read_json(out)["points"]) == 289


def test_reduce_ds_guard_caps_coordinates_before_building(tmp_path, capsys):
    # A 60-vertex path graph with k' = 2 needs 60^3 * 2 = 432,000 coordinates,
    # seconds of work and hundreds of MB.
    argv, docs = reduction_cases()["reduce-ds"]
    big = {"graph": fio.graph_to_obj(path_graph(60))}
    assert run_reduction_case(str(tmp_path), argv + ["--guard", "1000"], big) == 3
    assert_guard_exit(capsys)
    assert not os.path.exists(tmp_path / "out.json")
    # The default cap refuses 64^3 * 2 = 524,288 coordinates.
    big = {"graph": fio.graph_to_obj(path_graph(64))}
    assert run_reduction_case(str(tmp_path), argv, big) == 3
    assert_guard_exit(capsys)
    assert not os.path.exists(tmp_path / "out.json")
    # The 4-vertex path builds 4^3 * 2 = 128 coordinates.
    assert run_reduction_case(str(tmp_path), argv + ["--guard", "127"], docs) == 3
    assert_guard_exit(capsys)
    assert run_reduction_case(str(tmp_path), argv + ["--guard", "128"], docs) == 0


def test_verify_refuses_an_uncolored_rmis_graph(tmp_path, capsys):
    # A file's graph must be colored to be rebuilt, so an uncolored
    # 10^12-vertex claim is refused before any work.
    argv, docs = reduction_cases()["verify-rmis"]
    inst = replaced(docs["inst"], ("cloud",), None)
    inst = replaced(inst, ("meta", "graph"), {"n": 10**12, "edges": []})
    assert run_reduction_case(str(tmp_path), argv, dict(docs, inst=inst)) == 2
    assert "needs a color partition" in assert_usage_error(capsys)


def test_reduce_ds_guard_precedes_work_on_a_huge_graph(tmp_path, capsys):
    argv, _ = reduction_cases()["reduce-ds"]
    t0 = time.perf_counter()
    assert run_reduction_case(str(tmp_path), argv, {"graph": {"n": 10**12, "edges": []}}) == 3
    assert time.perf_counter() - t0 < 1.0
    assert_guard_exit(capsys)


def test_verify_refuses_records_moved_off_derived_lines(tmp_path, capsys):
    # verify rebuilds the instance, so records moved off the lines the
    # parameters fix are refused, while the builder's records reach a verdict.
    inst = rmis_to_line_clustering(matching_color_graph(2, 4))
    argv, docs = reduction_cases()["verify-rmis"]
    written = docs["inst"]
    bundle_1 = {str(y) for y in inst.gadget.h_y[0]}
    shifted = copy.deepcopy(written)
    for point in shifted["cloud"]["points"]:
        x, y = point["coords"]
        if y in bundle_1:
            point["coords"] = [x, str(int(y) + 1)]
    assert shifted != written
    x_start = inst.meta["family_slices"]["X"][0]
    assert written["cloud"]["points"][x_start]["coords"][0] != "1"
    stray = replaced(written, ("cloud", "points", x_start, "coords", 0), "1")
    for doc, moved_off in ((written, False), (shifted, True), (stray, True)):
        code = run_reduction_case(str(tmp_path), argv, dict(docs, inst=doc))
        if moved_off:
            assert code == 2
            assert "cloud differs" in assert_usage_error(capsys)
        else:  # the selection (1, 2) fails cost <= B
            assert code == 1


def verify_rmis(tmp_path, inst, indices):
    """The exit code of verify of a selection against an rmis instance document."""
    argv, _ = reduction_cases()["verify-rmis"]
    witness = {"kind": "selection", "indices": list(indices)}
    return run_reduction_case(str(tmp_path), argv, {"inst": inst, "witness": witness})


# verify's cost lines for the nu = 8 matching-graph gadget (rmis_files).
B_NU_8 = "37218383881977644441492806579351715840"
COST_4_5 = f"PASS  cost <= B (37218383881977644441492806579148765294 vs {B_NU_8})"
COST_4_4 = f"FAIL  cost <= B (37218383881977644441492808778106535956 vs {B_NU_8})"


def test_verify_rebuilds_rmis_files(tmp_path, capsys, rmis_files):
    # Older writers also stored k, the theta tables, the family slices and
    # ell, nu, n, q; they are ignored, even where they disagree.
    inst = rmis_to_line_clustering(matching_color_graph(2, 8))
    tables = {name: [str(v) for v in getattr(inst.tables, name)]
              for name in ("theta", "phi")}
    tables["phi_prime"] = [
        "22166154415964160", "14566330044776448", "9499780463984640", "6966505673588736",
        "6966505673588736", "9499780463984640", "14566330044776448", "22166154415964160"]
    params = dict(rmis_files["params"], ell=2, nu=8, n=16, q=1)
    meta = dict(rmis_files["meta"], family_slices={
        name: list(se) for name, se in inst.meta["family_slices"].items()})
    old = dict(rmis_files, k=8, params=params, meta=meta, **tables)
    wrong = dict(old, k=9, B="1", params=dict(params, nu=4), theta=["0"],
                 meta=dict(meta, family_slices=None))
    for doc in (rmis_files, old, wrong):
        for indices, code, cost in (((4, 5), 0, COST_4_5), ((4, 4), 1, COST_4_4)):
            assert verify_rmis(tmp_path, doc, indices) == code
            verdict = "PASS" if code == 0 else "FAIL"
            assert capsys.readouterr() == (f"{cost}\n{verdict}\n", "")
    # Swapping the x of two X records on each of two h lines keeps every
    # per-line weight, so a recount of the file's records would pass this
    # file with the selection (4, 4), whose vertices 3 and 11 are adjacent.
    swapped = copy.deepcopy(rmis_files)
    points = swapped["cloud"]["points"]
    for a, b in ((91, 139), (211, 259)):
        pa, pb = points[a]["coords"], points[b]["coords"]
        pa[0], pb[0] = pb[0], pa[0]
    assert swapped != rmis_files
    assert verify_rmis(tmp_path, swapped, (4, 4)) == 2
    assert "cloud differs" in assert_usage_error(capsys)


README_DS_PASS = ("PASS  witness dominates and covers\n"
                  "PASS  cover maps back to a dominating set\nPASS\n")


def test_verify_rebuilds_ds_files(tmp_path, capsys):
    # README's path5 example: the file verifies as written, and a file whose
    # cloud is not the one its graph and k build is refused, even where the
    # witness would still cover it.
    reduce_argv, _ = reduction_cases()["reduce-ds"]
    path5 = {"graph": {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}}
    assert run_reduction_case(str(tmp_path), reduce_argv, path5) == 0
    inst = read_json(tmp_path / "out.json")
    argv, _ = reduction_cases()["verify-ds"]
    witness = {"kind": "dominating_set", "vertices": [1, 3]}
    assert run_reduction_case(str(tmp_path), argv, {"inst": inst, "witness": witness}) == 0
    assert capsys.readouterr() == (README_DS_PASS, "")
    assert inst["cloud"]["points"][0]["coords"][-1] == "32"
    tampered = replaced(inst, ("cloud", "points", 0, "coords", 4), "1")
    assert run_reduction_case(str(tmp_path), argv, {"inst": tampered, "witness": witness}) == 2
    assert "cloud differs from the one its graph and k build" in assert_usage_error(capsys)
    # The planes x[i] = 1 for all five vertices cover the points, but k = 2.
    five = {"kind": "cover", "hyperplanes": [["-1", *("1" if j == i else "0" for j in range(5))]
                                             for i in range(5)]}
    assert run_reduction_case(str(tmp_path), argv, {"inst": inst, "witness": five}) == 2
    assert assert_usage_error(capsys) == "error: witness has 5 hyperplanes but k = 2\n"


@pytest.mark.parametrize("case", ["verify-ds", "verify-rmis"])
@pytest.mark.parametrize("node,retyped", [
    ("mult", lambda m: True), ("mult", float), ("dim", float),
    ("coord", int), ("coord", lambda c: "+" + c), ("coord", lambda c: "0" + c),
    ("point", lambda p: [p["coords"], p["mult"]])],
    ids=["mult-true", "mult-float", "dim-float", "coord-int", "coord-plus", "coord-zero",
         "point-list"])
def test_verify_compares_cloud_numbers_by_json_type(tmp_path, capsys, case, node, retyped):
    # true == 1 and 1.0 == 1 in Python, and 5, "+5" and "05" read as the
    # value "5", but none of them is what the writer writes; nor is a point
    # given as a list.
    argv, docs = reduction_cases()[case]
    points = docs["inst"]["cloud"]["points"]
    i = next(i for i, pt in enumerate(points)
             if pt["mult"] == 1 and pt["coords"][0].isdigit())
    path = {"dim": ("cloud", "dim"), "mult": ("cloud", "points", i, "mult"),
            "coord": ("cloud", "points", i, "coords", 0),
            "point": ("cloud", "points", i)}[node]
    old = functools.reduce(operator.getitem, path, docs["inst"])
    new = retyped(old)
    assert json.dumps(new) != json.dumps(old)
    inst = replaced(docs["inst"], path, new)
    assert run_reduction_case(str(tmp_path), argv, dict(docs, inst=inst)) == 2
    assert "cloud differs" in assert_usage_error(capsys)


def test_rmis_commands_build_no_records(tmp_path, capsys, monkeypatch):
    # reduce-rmis writes the gadget's rows as they come, and verify compares
    # them with the file and prices the selection by family: neither builds
    # a PointRecord or a point cloud.
    def refuse(*args, **kwargs):
        raise AssertionError("a record or cloud was built")

    monkeypatch.setattr(PointRecord, "__new__", refuse)
    monkeypatch.setattr(WeightedPointCloud, "__post_init__", refuse)
    gpath, ipath, wpath = (tmp_path / name for name in ("graph.json", "inst.json", "w.json"))
    gpath.write_text(json.dumps(fio.graph_to_obj(matching_color_graph(2, 8))))
    assert run(["reduce-rmis", str(gpath), "-o", str(ipath)]) == 0
    assert len(read_json(ipath)["cloud"]["points"]) == 464
    for indices, code, cost in (((4, 5), 0, COST_4_5), ((4, 4), 1, COST_4_4)):
        wpath.write_text(json.dumps({"kind": "selection", "indices": list(indices)}))
        assert run(["verify", str(ipath), str(wpath)]) == code
        assert capsys.readouterr().out.startswith(cost)


def test_rmis_graph_must_be_regular(tmp_path, capsys):
    # The gadget's per-line weights assume every vertex has degree q.
    irregular = {"n": 4, "edges": [[0, 2]], "colors": [[0, 1], [2, 3]]}
    argv, _ = reduction_cases()["reduce-rmis"]
    assert run_reduction_case(str(tmp_path), argv, {"graph": irregular}) == 2
    assert assert_usage_error(capsys) == "error: graph is not regular\n"
    argv, docs = reduction_cases()["verify-rmis"]
    inst = replaced(docs["inst"], ("meta", "graph"), irregular)
    assert run_reduction_case(str(tmp_path), argv, dict(docs, inst=inst)) == 2
    assert assert_usage_error(capsys) == "error: graph is not regular\n"


def test_verify_relaxed_override_instance(tmp_path, capsys):
    # Relaxed files carry their constants; costs pinned from the builder's
    # output for these overrides (relaxed constants carry no hardness
    # guarantee, so the verdicts need not follow independence).
    gpath, ipath = tmp_path / "graph.json", tmp_path / "inst.json"
    gpath.write_text(json.dumps(fio.graph_to_obj(matching_color_graph(2, 8))))
    overrides = ["p=1000", "W=10000000", "d_s=100000", "d_l=1000000"]
    assert run(["reduce-rmis", str(gpath), *[a for kv in overrides for a in ("--override", kv)],
                "-o", str(ipath)]) == 0
    inst = read_json(ipath)
    assert "constant overrides in effect" in inst["meta"]["warnings"]
    for indices, code, line in (((4, 5), 0, "PASS  cost <= B (514840910 vs 717791456)"),
                                ((1, 2), 1, "FAIL  cost <= B (1301581190 vs 717791456)")):
        assert verify_rmis(tmp_path, inst, indices) == code
        assert capsys.readouterr() == (f"{line}\n{line[:4]}\n", "")


def test_verify_refuses_a_cloud_its_graph_keeps_counts_only(tmp_path, capsys):
    # 712 vertices need over MATERIALIZE_RECORD_LIMIT records, which the
    # builder keeps counts-only, so no file cloud can match a rebuild.
    argv, docs = reduction_cases()["verify-rmis"]
    big = fio.graph_to_obj(matching_color_graph(2, 356))
    inst = replaced(docs["inst"], ("meta", "graph"), big)
    assert verify_rmis(tmp_path, inst, (1, 2)) == 2
    assert "only kept counts-only" in assert_usage_error(capsys)


# verify's cost line, as it prints it.
COST_LINE = re.compile(r"(PASS|FAIL)  cost <= B \((\d+) vs (\d+)\)")


def test_rmis_counts_only_gadget_at_nu_8000_is_quick(tmp_path, capsys):
    # Building and reading back the counts-only gadget is linear in nu, and
    # verify prices a selection by family, O(n log nu) with no records.
    gpath, ipath = tmp_path / "graph.json", tmp_path / "inst.json"
    gpath.write_text(json.dumps(fio.graph_to_obj(matching_color_graph(2, 8000))))
    t0 = time.perf_counter()
    assert run(["reduce-rmis", str(gpath), "-o", str(ipath)]) == 0
    assert time.perf_counter() - t0 < 2.0
    assert read_json(ipath)["cloud"] is None
    t0 = time.perf_counter()
    assert verify_rmis(tmp_path, read_json(ipath), (4, 5)) == 0
    assert time.perf_counter() - t0 < 2.0
    out, err = capsys.readouterr()
    assert COST_LINE.fullmatch(out.splitlines()[0]) and out.endswith("\nPASS\n") and not err


def test_faithful_gadget_verifies_at_the_papers_parameters(tmp_path, capsys):
    # The smallest faithful gadget on a matching graph: ell = 12 > 10 and
    # nu = 1732 > ell^3, divisible by 4, so n = 20,784 and about 4.3*10^8
    # records, kept counts-only.  Indices 1..12 pick no matched pair, while
    # twelve 1s pick w_1 of classes 0 and 1, which are adjacent.
    gpath, ipath, wpath = (tmp_path / name for name in ("graph.json", "inst.json", "w.json"))
    assert run(["gen", "matching-graph", "--ell", "12", "--nu", "1732", "-o", str(gpath)]) == 0
    assert run(["reduce-rmis", str(gpath), "--faithful", "-o", str(ipath)]) == 0
    assert read_json(ipath)["cloud"] is None
    for indices, code in ((list(range(1, 13)), 0), ([1] * 12, 1)):
        wpath.write_text(json.dumps({"kind": "selection", "indices": indices}))
        t0 = time.perf_counter()
        assert run(["verify", str(ipath), str(wpath)]) == code
        assert time.perf_counter() - t0 < 2.0
        line = capsys.readouterr().out.splitlines()[0]
        verdict, cost, budget = COST_LINE.fullmatch(line).groups()
        assert verdict == ("PASS" if code == 0 else "FAIL")
        assert (int(cost) <= int(budget)) == (code == 0)


def json_paths(doc, prefix=()):
    """Every node of a JSON document as a path of keys and indices."""
    yield prefix
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, child in children:
        yield from json_paths(child, prefix + (key,))


# Junk for the reduction inputs.  A graph's n scales the work of a reduction,
# and huge magnitudes are refused before any work: reduce-ds checks its
# d^3*k' coordinates against the guard first (exit 3), and an rmis graph must
# be partitioned into color classes, which a junk n cannot be (exit 2).  An
# rmis file's n, ell and nu are not read; its p, W, d_s and d_l are inputs to
# the rebuild, where they size coordinates and multiplicities but no loop.
# The mid range of graph sizes the default guards still admit costs seconds
# and hundreds of MB per case, so it stays out.
SMALL_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9) | st.floats()
    | st.sampled_from([10**12, -10**12, 10**100])
    | st.sampled_from(["", "x", "3", "-1", "1/2", "2.5", "1/0"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12)


@st.composite
def corrupted_reduction_inputs(draw):
    """A reduction command's valid inputs with one node replaced by junk."""
    argv, docs = reduction_cases()[draw(st.sampled_from(sorted(reduction_cases())))]
    role = draw(st.sampled_from(sorted(docs)))
    path = draw(st.sampled_from(list(json_paths(docs[role]))))
    return argv, dict(docs, **{role: replaced(docs[role], path, draw(SMALL_JSON_VALUES))})


@settings(max_examples=100, deadline=None)
@given(case=corrupted_reduction_inputs())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_reduction_loader_fuzz_exits_0_1_or_2(case):
    # Exit 3 is a guard refusing a huge size field, which is also an answer.
    argv, docs = case
    with tempfile.TemporaryDirectory() as tmp:
        assert run_reduction_case(tmp, argv, docs) in (0, 1, 2, 3)
