"""Seeded end-to-end benchmark of the flatcover command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload cover --seed 0 --seconds 20 --trace 0

One process, one client, closed loop: the next instance starts only after
the previous instance's last ``flatcover.cli.main(argv)`` call returns.  The
instance list is cycled until ``--seconds`` of timed work have passed, and at
least once.  Outputs are checked after each cycle, outside the timed region.
With ``--trace 1`` the run makes one untraced and one traced cycle and reports
the per-layer metrics instead.  The last line of standard output is the JSON
result; the lines before it are the human-readable report.  See README.md.
"""

from __future__ import annotations

import os

# The benchmark measures the program, not the scheduler: pin native thread
# pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 3
WORKLOADS = ("cluster-exact", "cluster-heuristic", "cover", "reduce")


@dataclass
class CallResult:
    rc: int | None
    out: str
    err: str


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Runner:
    """Calls ``main(argv)`` in-process and times each call."""

    def __init__(self, main, tracer=None):
        self.main = main
        self.tracer = tracer
        self.latency = 0.0
        self.calls: list[tuple] = []

    def __call__(self, argv: list) -> CallResult:
        out, err = io.StringIO(), io.StringIO()
        saved_argv = sys.argv
        sys.argv = ["flatcover", *argv]
        rc = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    if self.tracer is None:
                        rc = self.main(argv)
                    else:
                        rc = self.tracer.span("cli.main", self.main, argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception:
                    err.write(traceback.format_exc())
                finally:
                    self.latency += time.perf_counter() - start
        finally:
            sys.argv = saved_argv
        result = CallResult(rc, out.getvalue(), err.getvalue())
        if self.tracer is not None:
            self.calls.append((argv, result))
        return result


class Outcome:
    """Attempts, failures and timing samples of one or more timed cycles.

    Each sample is (latency, wall) of one instance: the time inside its CLI
    calls and the time from its start to its end.  The first ``pass_size``
    samples are the first cycle, which holds each instance once.
    Calibration samples [first_kernel, last_kernel) were taken while these
    cycles ran, [first_kernel, pass_kernel) while the first cycle ran.
    """

    def __init__(self, calibrator):
        self.calibrator = calibrator
        self.first_kernel = self.pass_kernel = self.last_kernel = 0
        self.pass_size = 0
        self.samples: list[tuple] = []
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.first_problems: list[str] = []
        self.cost_ratios: list[float] = []

    def factor(self) -> float:
        """Mean slowdown over the whole stretch."""
        return self.calibrator.factor(self.first_kernel, self.last_kernel)

    def calibrated(self):
        """(first-cycle latencies, total wall) in calibrated seconds."""
        factor = self.calibrator.factor(self.first_kernel, self.pass_kernel)
        first = [lat / factor for lat, _ in self.samples[:self.pass_size]]
        return first, self.wall / self.factor()

    def fail(self, inst, problem: str) -> None:
        self.failed += 1
        if len(self.first_problems) < 5:
            self.first_problems.append(f"{inst.ident} ({inst.family}): {problem}")


def judge(batch, outcome: Outcome, reference: dict | None, first: bool = True) -> None:
    """Check a finished batch of instances; runs outside the timed region.

    Only the first cycle is compared with the reference and gives cost
    ratios, so that both cover each instance exactly once."""
    for inst in batch:
        outcome.attempted += 1
        try:
            problem = inst.check()
            if first and problem is None and reference is not None:
                want = reference.get(inst.ident)
                got = inst.answer()
                if want is not None and got is not None and digest_of(got) != want:
                    problem = "answer differs from the recorded reference"
        except Exception as exc:  # a malformed output is a wrong answer
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem is not None:
            crashes = [res.err.strip().splitlines()[-1] for res in inst.results
                       if res.rc is None and res.err.strip()]
            outcome.fail(inst, problem + (f" [{crashes[0]}]" if crashes else ""))
        ratio = getattr(inst, "cost_ratio", None)
        if first and problem is None and ratio is not None and ratio() is not None:
            outcome.cost_ratios.append(ratio())


def digest_of(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_cycles(instances, runner: Runner, seconds: float, outcome: Outcome,
               reference: dict | None, on_instance=None) -> None:
    """Closed loop over the instance list.

    Stops at the first instance boundary after ``seconds`` of timed work,
    but not before one whole cycle; ``seconds=0`` makes exactly one cycle.
    """
    n = outcome.pass_size = len(instances)
    done = 0
    calibrator = outcome.calibrator
    calibrator.sample()
    outcome.first_kernel = len(calibrator.samples) - 1
    wall = 0.0
    while True:
        batch = []
        for inst in instances:
            calibrator.maybe_sample(wall)
            runner.latency = 0.0
            if runner.tracer is not None:
                runner.tracer.instance = inst.ident
            start = time.perf_counter()
            inst.run(runner)
            wall = time.perf_counter() - start
            outcome.samples.append((runner.latency, wall))
            outcome.wall += wall
            if on_instance is not None:
                on_instance(inst)
            batch.append(inst)
            done += 1
            if done >= n and outcome.wall >= seconds:
                break
        calibrator.sample()
        if done == n:
            outcome.pass_kernel = len(calibrator.samples)
        judge(batch, outcome, reference, first=done <= n)
        if outcome.wall >= seconds:
            outcome.last_kernel = len(calibrator.samples)
            return


def source_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "flatcover"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_revision() -> str:
    """HEAD from the .git directory when there is one, without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def setup_workload(workloads, workload, seed, smoke, workdir, main, calibrator):
    """Generate and write every input file, then make one untimed warm-up
    call; repeated SETUP_REPEATS times, the last repeat's instances are used.
    Returns the instances and the median repeat's time and generator time,
    both measured; calibrator samples are taken around each repeat."""
    times, gen_times = [], []
    instances = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        setup = workloads.Setup(workdir)
        instances = workloads.MAKE_PASS[workload](setup, seed, smoke)
        instances[0].run(Runner(main))
        times.append(time.perf_counter() - start)
        gen_times.append(setup.gen_s)
        calibrator.sample()
    return instances, statistics.median(times), statistics.median(gen_times)


def e2e_metrics(outcome: Outcome, setup_s: float) -> dict:
    """Throughput over the whole window; latency percentiles over the first
    cycle, so that every instance counts once whatever the machine's speed."""
    first, wall = outcome.calibrated()
    return {
        "setup_s": (setup_s, "s"),
        "instances_per_s": (len(outcome.samples) / wall, "1/s"),
        "solve_s_p50": (quantile(first, 0.5), "s"),
        "solve_s_p90": (quantile(first, 0.9), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def raw_metrics(outcome: Outcome) -> dict:
    """The same timings in measured, uncalibrated seconds."""
    lat = [latency for latency, _ in outcome.samples]
    first = lat[:outcome.pass_size]
    return {
        "raw_instances_per_s": (len(lat) / outcome.wall, "1/s"),
        "raw_solve_s_p50": (quantile(first, 0.5), "s"),
        "raw_solve_s_p90": (quantile(first, 0.9), "s"),
        "speed_factor": (outcome.factor(), "x"),
    }


def cost_ratio_metrics(outcome: Outcome) -> dict:
    if not outcome.cost_ratios:
        return {}
    return {"cost_ratio_p50": (quantile(outcome.cost_ratios, 0.5), "ratio"),
            "cost_ratio_p90": (quantile(outcome.cost_ratios, 0.9), "ratio")}


class LayerProbe:
    """Per-instance deltas of tracer counts, plus byte counts of CLI files."""

    def __init__(self, tracer, runner: Runner, partition_count):
        self.tracer = tracer
        self.runner = runner
        self.partition_count = partition_count
        self.before = Counter()
        self.seen_calls = 0
        self.d3_evals = 0
        self.d3_partitions = 0
        self.heuristic_fits = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.yes = 0
        self.no = 0
        self.strategies: dict = {}

    def __call__(self, inst) -> None:
        calls = self.tracer.calls
        delta = {g: calls[g] - self.before[g] for g in calls}
        self.before = Counter(calls)
        if delta.get("clustering.exact") and getattr(inst, "dim", 0) >= 3:
            self.d3_evals += delta.get("clustering.eigvalsh", 0)
            self.d3_partitions += self.partition_count(inst.n_records, inst.k)
        if delta.get("clustering.heuristic"):
            self.heuristic_fits += delta.get("fitting.best_fit", 0)
        used = [s for s in ("candidates", "partition")
                if delta.get(f"cover.strategy_{s}")]
        if not used and delta.get("cover.kernel"):
            used = ["kernel"]
        if used:
            self.strategies[inst.ident] = "+".join(used)
        for argv, result in self.runner.calls[self.seen_calls:]:
            out = argv[argv.index("-o") + 1] if "-o" in argv else None
            for arg in argv[1:]:
                if arg != out and os.path.isfile(arg):
                    self.bytes_read += os.path.getsize(arg)
            if out is not None and os.path.isfile(out):
                self.bytes_written += os.path.getsize(out)
            if argv[0] == "cover":
                self.yes += result.rc == 0
                self.no += result.rc == 1
        self.seen_calls = len(self.runner.calls)


def layer_metrics(tracer, probe: LayerProbe, traced: Outcome, gen_s: float,
                  overhead_s: float) -> dict:
    """Per-layer metrics of one traced cycle; times in calibrated seconds."""
    scale = 1.0 / traced.factor()
    inc, calls = tracer.inclusive, tracer.calls

    def secs(value: float):
        return (value * scale, "s")

    heuristic_s = inc.get("clustering.heuristic", 0.0)
    ratios = traced.cost_ratios
    return {
        "cli.self_s": secs(tracer.self_time("cli")),
        "io.parse_s": secs(inc.get("io.parse", 0.0)),
        "io.write_s": secs(inc.get("io.write", 0.0) - inc.get("io.manifest", 0.0)),
        "io.manifest_s": secs(inc.get("io.manifest", 0.0)),
        "io.bytes_read": (probe.bytes_read, "bytes"),
        "io.bytes_written": (probe.bytes_written, "bytes"),
        "io.self_s": secs(tracer.self_time("io")),
        "geometry.contains_calls": (calls.get("geometry.contains", 0), "count"),
        "geometry.contains_s": secs(inc.get("geometry.contains", 0.0)),
        "fitting.best_fit_calls": (calls.get("fitting.best_fit", 0), "count"),
        "fitting.best_fit_s": secs(inc.get("fitting.best_fit", 0.0)),
        "fitting.hyperplane_fits": (calls.get("fitting.hyperplane_fit", 0), "count"),
        "fitting.hyperplane_fit_s": secs(inc.get("fitting.hyperplane_fit", 0.0)),
        "fitting.self_s": secs(tracer.self_time("fitting")),
        "clustering.exact_s": secs(inc.get("clustering.exact", 0.0)),
        "clustering.eigvalsh_calls": (calls.get("clustering.eigvalsh", 0), "count"),
        "clustering.d3_node_ratio": (probe.d3_evals / probe.d3_partitions
                                     if probe.d3_partitions else 0.0, "ratio"),
        "clustering.heuristic_s": secs(heuristic_s),
        "clustering.heuristic_fit_calls": (probe.heuristic_fits, "count"),
        "clustering.heuristic_s_per_fit": secs(heuristic_s / probe.heuristic_fits
                                               if probe.heuristic_fits else 0.0),
        "clustering.heuristic_cost_ratio_p50": (quantile(ratios, 0.5) if ratios else 0.0,
                                                "ratio"),
        "clustering.heuristic_cost_ratio_p90": (quantile(ratios, 0.9) if ratios else 0.0,
                                                "ratio"),
        "clustering.self_s": secs(tracer.self_time("clustering")),
        "cover.solve_s": secs(inc.get("cover.solve", 0.0)),
        "cover.candidate_gen_s": secs(inc.get("cover.candidates", 0.0)),
        "cover.candidates": (tracer.counts.get("cover.candidates", 0), "count"),
        "cover.kernel_s": secs(inc.get("cover.kernel", 0.0)),
        "cover.verify_s": secs(inc.get("cover.verify", 0.0)),
        "cover.yes": (probe.yes, "count"),
        "cover.no": (probe.no, "count"),
        "cover.self_s": secs(tracer.self_time("cover")),
        "reductions.build_s": secs(inc.get("reductions.build", 0.0)),
        "reductions.audit_s": secs(inc.get("reductions.audit", 0.0)),
        "reductions.cost_s": secs(inc.get("reductions.cost", 0.0)),
        "reductions.cost_evals": (calls.get("reductions.cost_eval", 0), "count"),
        "reductions.extract_s": secs(inc.get("reductions.extract", 0.0)),
        "reductions.records": (tracer.counts.get("reductions.records", 0), "count"),
        "reductions.self_s": secs(tracer.self_time("reductions")),
        "generators.gen_s": (gen_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def load_reference(workload: str) -> dict | None:
    try:
        with open(REFERENCE_PATH) as fh:
            return json.load(fh).get(workload)
    except OSError:
        return None


def report(lines: list, metrics: dict, extra: dict) -> None:
    for name, (value, unit) in metrics.items():
        lines.append(f"metric {name} = {value:.6g} {unit}")
    for name, (value, unit) in extra.items():
        lines.append(f"report {name} = {value:.6g} {unit}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny instances, one cycle: for the benchmark's own tests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t_import = time.perf_counter()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    if not os.path.isfile(os.path.join(SRC, "flatcover", "cli.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    try:
        import numpy
        from flatcover.cli import main as cli_main
        from flatcover.clustering import partition_count
        import calibrate
        import workloads
        import tracing
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_import

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        return _run(args, cli_main, partition_count, workloads, tracing, calibrate,
                    numpy, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))


def _run(args, cli_main, partition_count, workloads, tracing, calibrate, numpy,
         workdir, import_s) -> int:
    calibrator = calibrate.Calibrator()
    calibrator.sample()
    instances, setup_rep_s, gen_s = setup_workload(
        workloads, args.workload, args.seed, args.smoke, workdir, cli_main, calibrator)
    setup_factor = calibrator.factor()
    import_s /= setup_factor
    setup_rep_s /= setup_factor
    gen_s /= setup_factor
    setup_s = import_s + setup_rep_s
    workloads.prepare_all(instances)
    reference = None if args.smoke or args.seed != DEFAULT_SEED \
        else load_reference(args.workload)

    lines = [f"perfbench workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace} smoke={int(args.smoke)}"]
    provenance = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "seed": args.seed,
        "instances": len(instances),
        "families": dict(Counter(inst.family for inst in instances)),
        "thread_env": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS",
                                                      "OPENBLAS_NUM_THREADS")},
        "reference_checked": reference is not None,
        "kernel_ref_s": calibrate.KERNEL_REF_S,
    }

    outcome = Outcome(calibrator)
    if args.trace == 0:
        run_cycles(instances, Runner(cli_main), 0.0 if args.smoke else args.seconds,
                   outcome, reference)
        provenance["cover_strategy"] = "requested auto; resolved per instance in --trace 1"
        metrics = e2e_metrics(outcome, setup_s)
        extra = {**cost_ratio_metrics(outcome), **raw_metrics(outcome),
                 "setup_import_s": (import_s, "s"), "setup_repeat_s": (setup_rep_s, "s")}
    else:
        run_cycles(instances, Runner(cli_main), 0.0, outcome, reference)
        tracer = tracing.Tracer()
        runner = Runner(cli_main, tracer)
        probe = LayerProbe(tracer, runner, partition_count)
        traced = Outcome(calibrator)
        tracer.install()
        try:
            run_cycles(instances, runner, 0.0, traced, None, on_instance=probe)
        finally:
            tracer.remove()
        outcome.attempted += traced.attempted
        outcome.failed += traced.failed
        outcome.first_problems.extend(traced.first_problems)
        overhead_s = traced.calibrated()[1] - outcome.calibrated()[1]
        metrics = layer_metrics(tracer, probe, traced, gen_s, overhead_s)
        extra = {"speed_factor": (traced.factor(), "x")}
        provenance["cover_strategy"] = dict(Counter(probe.strategies.values()))
        provenance["missing_trace_targets"] = tracer.missing
        write_trace(args, tracer, probe)

    lines.append("provenance " + json.dumps(provenance, sort_keys=True))
    report(lines, metrics, extra)
    failed_ratio = outcome.failed / outcome.attempted
    lines.append(f"report failed_ratio = {failed_ratio:.6g} fraction "
                 f"({outcome.failed} of {outcome.attempted} instances)")
    for problem in outcome.first_problems:
        lines.append(f"failure {problem}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def write_trace(args, tracer, probe: LayerProbe) -> None:
    """Write the spans and counts of the traced cycle, once, at the end."""
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    data = tracer.dump()
    data["cover_strategy_per_instance"] = probe.strategies
    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(data, fh)


if __name__ == "__main__":
    sys.exit(main())
