"""Tests of the benchmark itself, on the smoke instances.

    python3 -m pytest perfbench

Every workload runs in smoke mode, untraced and traced, with the same
generators and oracles as a full run; a deliberately corrupted output must
count as a failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, run.SRC)

from flatcover.cli import main as cli_main  # noqa: E402

import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_reports_every_metric(workload, trace, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--trace", str(trace),
                     "--smoke"]) == 0
    result = _result(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert tuple(workloads.MAKE_PASS) == run.WORKLOADS


def _ran(tmp_path, workload, seed=5):
    instances = workloads.MAKE_PASS[workload](workloads.Setup(str(tmp_path)), seed, True)
    workloads.prepare_all(instances)
    runner = run.Runner(cli_main)
    for inst in instances:
        inst.run(runner)
        assert inst.check() is None, inst.ident
    return instances


def _counted_as_failure(inst) -> bool:
    outcome = run.Outcome(None)
    run.judge([inst], outcome, None)
    return outcome.failed == 1


def _rewrite(path, edit) -> None:
    with open(path) as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


def test_same_seed_same_inputs(tmp_path):
    for workload in run.WORKLOADS:
        texts = []
        for rep in ("a", "b"):
            workdir = tmp_path / f"{workload}-{rep}"
            workdir.mkdir()
            workloads.MAKE_PASS[workload](workloads.Setup(str(workdir)), 11, True)
            texts.append({p.name: p.read_bytes() for p in workdir.iterdir()})
        assert texts[0] == texts[1], workload


def test_corrupted_cover_answers_fail(tmp_path):
    instances = _ran(tmp_path, "cover")
    yes = next(i for i in instances if i.expect_yes)

    def shift_plane(data):
        data["hyperplanes"][0][0] = str(int(data["hyperplanes"][0][0]) + 1)

    _rewrite(yes.out, shift_plane)
    assert _counted_as_failure(yes)
    no = next(i for i in instances if not i.expect_yes)
    no.results[0].rc = 0
    assert _counted_as_failure(no)


def test_corrupted_cluster_outputs_fail(tmp_path):
    exact = _ran(tmp_path, "cluster-exact")[0]

    def lower_cost(data):
        data["cost"] = data["cost"] * 0.5

    _rewrite(exact.out, lower_cost)
    assert _counted_as_failure(exact)
    heuristic = _ran(tmp_path, "cluster-heuristic")[0]

    def relabel(data):
        data["assignment"][0] = (data["assignment"][0] + 1) % 5

    _rewrite(heuristic.out, relabel)
    assert _counted_as_failure(heuristic)


def test_corrupted_reduce_outputs_fail(tmp_path):
    instances = _ran(tmp_path, "reduce")
    ds = next(i for i in instances if i.family == "ds")
    ds.expect_yes = not ds.expect_yes
    assert _counted_as_failure(ds)
    select = next(i for i in instances if i.family == "rmis-select")
    select.results[0].rc = 1 - select.results[0].rc
    assert _counted_as_failure(select)


def test_reference_mismatch_is_a_failure(tmp_path):
    inst = _ran(tmp_path, "cover")[0]
    outcome = run.Outcome(None)
    run.judge([inst], outcome, {inst.ident: "0" * 16})
    assert outcome.failed == 1


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cover", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
