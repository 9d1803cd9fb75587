"""Record the exact answers of every workload at the default seed.

Run from the repository root, only after a change that is meant to alter
answers:

    python3 perfbench/record_reference.py

Each instance must first pass its own oracle.  reference.json then holds a
digest of each canonical answer (YES/NO with the exact hyperplanes, exact
RMIS costs, optimal exact-clustering assignments); run.py compares them
bit-for-bit on every run at the default seed.  Heuristic answers are not
recorded: their quality is reported as a cost ratio instead.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

import run

sys.path.insert(0, run.SRC)

from flatcover.cli import main as cli_main  # noqa: E402

import workloads  # noqa: E402


def record(workload: str) -> dict:
    workdir = os.path.join(run.ROOT, ".perfbench_work", f"reference-{workload}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        instances = workloads.MAKE_PASS[workload](workloads.Setup(workdir),
                                                 run.DEFAULT_SEED, False)
        workloads.prepare_all(instances)
        runner = run.Runner(cli_main)
        answers = {}
        for inst in instances:
            inst.run(runner)
            problem = inst.check()
            if problem is not None:
                raise SystemExit(f"{workload} {inst.ident}: {problem}")
            answer = inst.answer()
            if answer is not None:
                answers[inst.ident] = run.digest_of(answer)
        return answers
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))


def main() -> int:
    reference = {w: record(w) for w in run.WORKLOADS}
    reference = {w: answers for w, answers in reference.items() if answers}
    with open(run.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.REFERENCE_PATH}: "
          + ", ".join(f"{w} {len(a)}" for w, a in reference.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
