import argparse
import copy
import functools
import inspect
import json
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcover.cli import build_parser, main
from flatcover import io as fio
from flatcover.generators import matching_color_graph, path_graph
from flatcover.reductions import ds_to_hyperplane_cover, rmis_to_line_clustering


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
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "dominating_set", "vertices": [0]}))
    assert run(["verify", str(ipath), str(bad)]) == 2


def test_verify_cover_witness_on_ds_instance(tmp_path, capsys):
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps(fio.graph_to_obj(path_graph(4))))
    ipath = tmp_path / "inst.json"
    run(["reduce-ds", str(gpath), "-k", "2", "-o", str(ipath)])
    # A raw cover witness: the planes x[1] = 1 and x[3] = 1 for {0, 2}.
    wpath = tmp_path / "cover.json"
    wpath.write_text(json.dumps({
        "kind": "cover",
        "hyperplanes": [["-1", "1", "0", "0", "0"], ["-1", "0", "0", "1", "0"]],
    }))
    assert run(["verify", str(ipath), str(wpath)]) == 0
    assert "PASS" in capsys.readouterr().out


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
    no_ell = dict(rmis_files, params=dict(rmis_files["params"]))
    del no_ell["params"]["ell"]
    cases = [(no_params, witness, "params"), (no_ell, witness, "ell"),
             (rmis_files, {"kind": "selection"}, "indices")]
    for inst, wit, field in cases:
        ipath, wpath = tmp_path / "inst.json", tmp_path / "witness.json"
        ipath.write_text(json.dumps(inst))
        wpath.write_text(json.dumps(wit))
        assert run(["verify", str(ipath), str(wpath)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: missing field '{field}'\n"


def test_verify_refuses_rmis_n_unlike_its_graph(tmp_path, capsys):
    gpath, ipath = tmp_path / "graph.json", tmp_path / "inst.json"
    assert run(["gen", "matching-graph", "--ell", "2", "--nu", "4", "-o", str(gpath)]) == 0
    assert run(["reduce-rmis", str(gpath), "--materialize", "no", "-o", str(ipath)]) == 0
    inst = read_json(ipath)
    inst["params"]["n"] = "20"
    ipath.write_text(json.dumps(inst))
    wpath = tmp_path / "witness.json"
    wpath.write_text(json.dumps({"kind": "selection", "indices": [4, 5]}))
    assert run(["verify", str(ipath), str(wpath)]) == 2
    assert "params.n is 20" in assert_usage_error(capsys)


@pytest.mark.parametrize("argv,message", [
    (["cover", "{float_cloud}", "-k", "1", "-o", "{out}"], "rational-mode cloud"),
    (["gen", "random-exact", "--format", "csv", "-o", "{out}"], "CSV output"),
    (["gen", "matching-graph", "--format", "csv", "-o", "{out}"], "CSV output"),
    (["verify", "{ds_inst}", "{selection}"], "got selection"),
    (["verify", "{rmis_inst}", "{cover}"], "got cover"),
    (["verify", "{rmis_inst}", "{dominating_set}"], "got dominating_set"),
    (["plot", "{float_cloud}", "--solution", "{selection}", "-o", "{out}"],
     "missing field 'flats'"),
    (["plot", "{float_cloud}", "--solution", "{fit_result}", "-o", "{out}"],
     "missing field 'flats'"),
    (["plot", "{float_cloud}", "--solution", "{solution_list}", "-o", "{out}"],
     "must be a JSON object"),
    (["plot", "{float_cloud}", "--solution", "{nested_basis}", "-o", "{out}"],
     "must be numbers"),
], ids=["cover-float-cloud", "csv-random-exact", "csv-matching-graph", "ds-selection",
        "rmis-cover", "rmis-dominating-set", "plot-witness", "plot-fit-result",
        "plot-solution-list", "plot-nested-basis"])
def test_refused_combinations_exit_2(tmp_path, capsys, argv, message):
    cases = reduction_cases()
    docs = {"float_cloud": {"dim": 2, "scalar": "float", "points": [{"coords": [0.0, 0.0]}]},
            "ds_inst": cases["verify-ds"][1]["inst"],
            "rmis_inst": cases["verify-rmis"][1]["inst"],
            "selection": {"kind": "selection", "indices": [1, 2]},
            "cover": {"kind": "cover", "hyperplanes": [["0", "1", "0"]]},
            "dominating_set": {"kind": "dominating_set", "vertices": [0]},
            "fit_result": {"kind": "fit", "r": 1,
                           "flat": {"basis": [[1.0, 0.0]], "offset": [0.0, 0.0]}},
            "solution_list": [1],
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
    ("verify-ds", "inst", ("meta", "groups", "0"), 3),
    ("verify-ds", "inst", ("meta", "groups", "0"), [0, 99]),
    ("verify-ds", "witness", (), [0, 2]),
    ("verify-ds", "witness", ("vertices",), "02"),
    ("verify-ds", "witness", ("vertices",), [0.5, 2]),
    ("verify-ds-cover", "witness", ("hyperplanes", 0, 0), None),
    ("verify-ds-cover", "witness", ("hyperplanes", 0, 0), "1/0"),
    ("verify-rmis", "inst", (), {"kind": "rmis", "params": [1], "B": "1"}),
    ("verify-rmis", "inst", (), [1]),
    ("verify-rmis", "inst", ("params", "nu"), 2.5),
    ("verify-rmis", "inst", ("params", "faithful"), "no"),
    ("verify-rmis", "inst", ("B",), None),
    ("verify-rmis", "inst", ("theta",), 5),
    ("verify-rmis", "inst", ("meta", "h_y"), [[None]]),
    ("verify-rmis", "inst", ("meta", "family_slices"), None),
    ("verify-rmis", "inst", ("meta", "family_slices", "F"), 5),
    ("verify-rmis", "inst", ("cloud", "points", 0, "coords", 0), "1/2"),
    ("verify-rmis", "witness", ("indices",), ["1", [2]]),
    ("verify-rmis", "witness", ("kind",), "selectoin"),
], ids=["graph-list", "n-list", "edges-int", "edge-of-lists", "edge-float",
        "rmis-n-null", "colors-int", "rmis-n-huge", "ds-k-list", "ds-graph-null",
        "ds-group-int", "ds-group-out-of-range",
        "witness-list", "vertices-string", "vertices-float", "plane-null",
        "plane-zero-denominator", "rmis-params-list", "instance-list", "nu-float",
        "faithful-string", "B-null", "theta-int", "h_y-null", "slices-null", "slice-int",
        "coord-fraction", "indices-mixed", "witness-kind-misspelled"])
def test_wrongly_typed_reduction_json_exits_2(tmp_path, capsys, case, role, path, value):
    argv, docs = reduction_cases()[case]
    docs = dict(docs, **{role: replaced(docs[role], path, value)})
    assert run_reduction_case(str(tmp_path), argv, docs) == 2
    assert_usage_error(capsys)


@pytest.mark.parametrize("n,vertex,message", [
    (4, 7, "0..3"), (4, -2, "0..3"), (5, 4, "5-dimensional")],
    ids=["beyond-graph", "negative", "graph-beyond-cloud"])
def test_verify_witness_vertex_out_of_range_exits_2(tmp_path, capsys, n, vertex, message):
    # k = 3 lets {0, 2} dominate with one vertex to spare: a vertex beyond the
    # graph or the cloud's coordinates must not index past them or wrap to
    # the last one.
    argv, docs = reduction_cases()["verify-ds"]
    inst = replaced(replaced(docs["inst"], ("k",), 3), ("graph", "n"), n)
    docs = {"inst": inst, "witness": {"kind": "dominating_set", "vertices": [0, 2, vertex]}}
    assert run_reduction_case(str(tmp_path), argv, docs) == 2
    assert message in assert_usage_error(capsys)


def test_verify_short_line_table_exits_2(tmp_path, capsys):
    # A counts-only instance skips the audit of the records, so a short h_y
    # row would reach the selection's table lookup.
    argv, docs = reduction_cases()["verify-rmis"]
    inst = replaced(replaced(docs["inst"], ("cloud",), None), ("meta", "h_y", 1), [1])
    assert run_reduction_case(str(tmp_path), argv, dict(docs, inst=inst)) == 2
    assert "h_y must hold 2 rows of 4" in assert_usage_error(capsys)


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


def test_verify_guard_caps_counts_only_audit(tmp_path, capsys):
    # The counts-only audit loops over the n vertices read from the file.
    # params.n must equal the instance graph's n, so both claim 10^12.
    argv, docs = reduction_cases()["verify-rmis"]
    inst = replaced(replaced(docs["inst"], ("cloud",), None), ("params", "n"), str(10**12))
    inst = replaced(inst, ("meta", "graph"), {"n": 10**12, "edges": []})
    assert run_reduction_case(str(tmp_path), argv, dict(docs, inst=inst)) == 3
    assert_guard_exit(capsys)


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


# Junk for the reduction inputs.  Size fields (a graph's n, an instance's nu)
# scale the work of a reduction or an audit.  The guard bounds only reduce-ds's
# d^3*k' coordinates and the counts-only audit's n, and its defaults still
# admit seconds of work and hundreds of MB per case, so junk integers stay
# small here.
SMALL_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9) | st.floats()
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
    argv, docs = case
    with tempfile.TemporaryDirectory() as tmp:
        assert run_reduction_case(tmp, argv, docs) in (0, 1, 2)
