import json

import pytest

from flatcover.cli import main
from flatcover import io as fio
from flatcover.generators import matching_color_graph, path_graph


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


def test_cluster_heuristic_deterministic(tmp_path, planted_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["cluster", planted_file, "-k", "2", "-r", "1", "--heuristic",
            "--restarts", "8", "--seed", "11"]
    assert run(argv + ["-o", str(a)]) == 0
    assert run(argv + ["-o", str(b)]) == 0
    da, db = read_json(a), read_json(b)
    del da["manifest"], db["manifest"]
    assert da == db


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_output_exits_2(tmp_path, capsys):
    # Finite input whose scatter overflows: the cost is nan, which JSON cannot hold.
    src = tmp_path / "huge.csv"
    src.write_text("1e200,0\n-1e200,1\n0,3\n")
    out = tmp_path / "f.json"
    assert run(["fit", str(src), "-r", "1", "-o", str(out)]) == 2
    assert "non-finite" in assert_usage_error(capsys)
    assert not out.exists()


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
    assert run(["bench", "partitions", "--n-min", "5", "--n-max", "7",
                "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("n\t")
    counts = [int(l.split("\t")[1]) for l in lines[1:4]]
    assert all(c >= 1 for c in counts)
    assert lines[-1].startswith("# log-log slope")


def test_outputs_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["gen", "random", "-n", "9", "--seed", "3", "-o", str(a)]) == 0
    assert run(["gen", "random", "-n", "9", "--seed", "3", "-o", str(b)]) == 0
    da, db = read_json(a), read_json(b)
    del da["manifest"], db["manifest"]
    assert fio.dumps_canonical(da) == fio.dumps_canonical(db)


def test_csv_roundtrip(tmp_path):
    csv = tmp_path / "pts.csv"
    assert run(["gen", "random", "-n", "5", "--seed", "1", "--format", "csv",
                "-o", str(csv)]) == 0
    out = tmp_path / "fit.json"
    assert run(["fit", str(csv), "-r", "1", "-o", str(out)]) == 0
    assert read_json(out)["kind"] == "fit"
