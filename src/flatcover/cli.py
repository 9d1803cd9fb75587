"""Command-line surface: fit, cluster, cover, reduce-ds, reduce-rmis, verify,
gen, plot, bench.

Exit codes: 0 success/YES/PASS, 1 NO/FAIL, 2 usage error, 3 resource guard.
All randomness flows from --seed through one counter-based generator, and
result files are byte-identical across repeated runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .clustering import (
    HeuristicConfig,
    count_consistent_partitions,
    partition_count,
    solve_exact,
    solve_heuristic,
)
from .cover import solve_cover, solve_cover_kernelized, verify_cover
from .errors import FlatcoverError, GuardLimitError
from .fitting import best_fit_flat
from .generators import (
    matching_color_graph,
    planted_lines_cloud,
    random_cloud,
    random_exact_cloud,
)
from .reductions import (
    audit_rmis_instance,
    cover_to_dominating_set,
    dominating_set_to_cover_witness,
    ds_to_hyperplane_cover,
    exact_solution_cost,
    independent_set_to_lines,
    rmis_to_line_clustering,
)
from . import io as fio
from .plotting import render_svg


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_cloud(path: str, csv_mult: bool = False):
    if path.endswith(".csv"):
        with open(path) as fh:
            return fio.cloud_from_csv(fh.read(), has_mult=csv_mult)
    return fio.cloud_from_obj(_load_json(path))


def _write_text(path: str | None, text: str) -> None:
    """Write text to the -o file, or to stdout without one."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_output(args, payload: dict, command: str, inputs: list,
                  seed: int | None) -> None:
    payload = dict(payload)
    payload["manifest"] = fio.build_manifest(command, sys.argv[1:], inputs, seed)
    _write_text(args.output, fio.dumps_canonical(payload) + "\n")


def cmd_fit(args) -> int:
    cloud = _load_cloud(args.input, args.csv_mult)
    res = best_fit_flat(cloud, args.r)
    payload = {
        "kind": "fit",
        "r": args.r,
        "cost": res.cost,
        "spectrum": list(res.spectrum),
        "flat": {"basis": [[float(c) for c in col] for col in res.flat.basis],
                 "offset": [float(c) for c in res.flat.offset]},
    }
    _write_output(args, payload, "fit", [args.input], None)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(render_svg(cloud, [res.flat]))
    return 0


def cmd_cluster(args) -> int:
    cloud = _load_cloud(args.input, args.csv_mult)
    if args.heuristic:
        config = HeuristicConfig(restarts=args.restarts, max_iter=args.max_iter,
                                 rel_tol=args.tol, rng_seed=args.seed)
        sol = solve_heuristic(cloud, args.k, args.r, config)
    else:
        sol = solve_exact(cloud, args.k, args.r, guard=args.guard)
    payload = fio.clustering_solution_to_obj(sol, args.r)
    payload["kind"] = "clustering"
    payload["mode"] = "heuristic" if args.heuristic else "exact"
    decision = None
    if args.budget is not None:
        decision = "YES" if sol.cost <= args.budget else "NO"
        payload["budget"] = args.budget
        payload["decision"] = decision
    _write_output(args, payload, "cluster", [args.input], args.seed)
    if decision:
        print(decision)
        return 0 if decision == "YES" else 1
    return 0


def cmd_cover(args) -> int:
    cloud = _load_cloud(args.input)
    if args.kernel:
        sol = solve_cover_kernelized(cloud, args.k, guard=args.guard)
    else:
        sol = solve_cover(cloud, args.k, guard=args.guard)
    if sol is None:
        payload = {"kind": "cover", "k": args.k, "answer": "NO"}
        _write_output(args, payload, "cover", [args.input], None)
        print("NO")
        return 1
    payload = fio.cover_solution_to_obj(sol)
    payload["kind"] = "cover"
    payload["answer"] = "YES"
    _write_output(args, payload, "cover", [args.input], None)
    print("YES")
    return 0


def cmd_reduce_ds(args) -> int:
    g = fio.graph_from_obj(_load_json(args.graph))
    inst = ds_to_hyperplane_cover(g, args.k, allow_trivial=args.allow_trivial,
                                  guard=args.guard)
    payload = fio.ds_instance_to_obj(inst)
    _write_output(args, payload, "reduce-ds", [args.graph], None)
    return 0


def cmd_reduce_rmis(args) -> int:
    g = fio.graph_from_obj(_load_json(args.graph))
    overrides = {}
    for kv in args.override or []:
        key, _, val = kv.partition("=")
        overrides[key] = int(val)
    inst = rmis_to_line_clustering(
        g, faithful=args.faithful,
        constants=overrides or None,
        materialize=None if args.materialize == "auto" else args.materialize == "yes")
    payload = fio.rmis_instance_to_obj(inst)
    payload["audit"] = audit_rmis_instance(inst, guard=args.guard)
    _write_output(args, payload, "reduce-rmis", [args.graph], None)
    return 0 if all(payload["audit"].values()) else 1


def cmd_verify(args) -> int:
    inst_data = _load_json(args.instance)
    kind, witness = fio.witness_from_obj(_load_json(args.witness))
    inst = fio.instance_from_obj(inst_data)
    checks: list[tuple[str, bool]] = []
    if inst_data["kind"] == "ds_cover":
        if kind == "dominating_set":
            planes = dominating_set_to_cover_witness(inst, witness)
            checks.append(("witness dominates and covers", True))
            extracted = cover_to_dominating_set(inst, planes)
            checks.append(("cover maps back to a dominating set",
                           inst.graph.is_dominating(extracted)))
        elif kind == "cover":
            ok = verify_cover(inst.cloud, witness.hyperplanes)
            checks.append(("planes cover every point", ok))
            if ok:
                extracted = cover_to_dominating_set(inst, witness.hyperplanes)
                checks.append(("extracted set dominates",
                               inst.graph.is_dominating(extracted)))
        else:
            raise ValueError(f"a ds_cover instance takes a dominating_set or cover "
                             f"witness, got {kind}")
    else:  # "rmis": instance_from_obj refuses every other kind
        if kind != "selection":
            raise ValueError(f"an rmis instance takes a selection witness, got {kind}")
        report = audit_rmis_instance(inst)
        for name, ok in report.items():
            checks.append((f"audit: {name}", ok))
        lines = independent_set_to_lines(inst, witness)
        cost = exact_solution_cost(inst, lines)
        checks.append((f"cost <= B ({cost} vs {inst.B})", cost <= inst.B))
    all_ok = all(ok for _, ok in checks)
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    print("PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


def cmd_gen(args) -> int:
    if args.format == "csv" and args.what not in ("planted", "random"):
        raise ValueError(f"CSV output is only available for float clouds, not {args.what}")
    if args.what == "planted":
        cloud, labels, _ = planted_lines_cloud(args.n, args.k, args.noise, args.seed,
                                               rotate=not args.no_rotate)
        payload = fio.cloud_to_obj(cloud)
        payload["planted_labels"] = list(labels)
    elif args.what == "random":
        cloud = random_cloud(args.n, args.dim, args.seed, max_mult=args.max_mult)
        payload = fio.cloud_to_obj(cloud)
    elif args.what == "random-exact":
        cloud = random_exact_cloud(args.n, args.dim, args.seed)
        payload = fio.cloud_to_obj(cloud)
    else:  # "matching-graph"; argparse choices refuse every other name
        g = matching_color_graph(args.ell, args.nu)
        payload = fio.graph_to_obj(g)
    if args.format == "csv":
        _write_text(args.output, fio.cloud_to_csv(cloud, include_mult=args.max_mult > 1))
        return 0
    payload["kind"] = "cloud" if "points" in payload else "graph"
    _write_output(args, payload, "gen", [], args.seed)
    return 0


def cmd_plot(args) -> int:
    cloud = _load_cloud(args.input, args.csv_mult)
    flats = (fio.clustering_flats_from_obj(_load_json(args.solution), cloud.dim)
             if args.solution else [])
    with open(args.output, "w") as fh:
        fh.write(render_svg(cloud, flats))
    return 0


def cmd_bench(args) -> int:
    rows = ["n\tconsistent_partitions\ttotal_partitions\tseconds"]
    counts = []
    for n in range(args.n_min, args.n_max + 1):
        cloud = random_cloud(n, 2, args.seed + n)
        t0 = time.time()
        c = count_consistent_partitions(cloud, args.k, args.r, guard=args.guard)
        dt = time.time() - t0
        counts.append((n, c))
        rows.append(f"{n}\t{c}\t{partition_count(n, args.k)}\t{dt:.3f}")
    if len(counts) >= 2:
        xs = [math.log(n) for n, _ in counts]
        ys = [math.log(max(c, 1)) for _, c in counts]
        mx = sum(xs) / len(xs)
        my = sum(ys) / len(ys)
        denom = sum((x - mx) ** 2 for x in xs)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom
        rows.append(f"# log-log slope\t{slope:.3f}")
    _write_text(args.output, "\n".join(rows) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="flatcover",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=f"flatcover {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, guard=True):
        p.add_argument("-o", "--output", default=None, help="output file")
        if guard:
            p.add_argument("--guard", type=int, default=None,
                           help="cap on search nodes, reduce-ds coordinates or audited "
                                "vertices (also FLATCOVER_GUARD)")

    p = sub.add_parser("fit", help="optimal single flat")
    p.add_argument("input")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--svg", default=None)
    p.add_argument("--csv-mult", action="store_true")
    common(p, guard=False)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("cluster", help="k-flat clustering")
    p.add_argument("input")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--heuristic", action="store_true",
                   help="alternating heuristic instead of the exact search")
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv-mult", action="store_true")
    common(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("cover", help="exact hyperplane cover")
    p.add_argument("input")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--kernel", action="store_true",
                   help="apply the d=2 forced-line kernel first")
    common(p)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("reduce-ds", help="Dominating Set -> Hyperplane Cover")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True, help="dominating set size k'")
    p.add_argument("--allow-trivial", action="store_true")
    common(p)
    p.set_defaults(func=cmd_reduce_ds)

    p = sub.add_parser("reduce-rmis",
                       help="Multicolored Independent Set -> Line Clustering")
    p.add_argument("graph")
    p.add_argument("--faithful", action="store_true")
    p.add_argument("--materialize", choices=("auto", "yes", "no"), default="auto")
    p.add_argument("--override", action="append", metavar="NAME=INT",
                   help="relaxed-mode constant override (p, W, d_s, d_l)")
    common(p)
    p.set_defaults(func=cmd_reduce_rmis)

    p = sub.add_parser("verify", help="check a witness against an instance")
    p.add_argument("instance")
    p.add_argument("witness")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="instance generators")
    p.add_argument("what", choices=("planted", "random", "random-exact",
                                    "matching-graph"))
    p.add_argument("-n", type=int, default=12)
    p.add_argument("-k", type=int, default=3)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--no-rotate", action="store_true",
                   help="keep planted lines axis-aligned")
    p.add_argument("--max-mult", type=int, default=1)
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--nu", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p, guard=False)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("plot", help="render an SVG of a planar instance")
    p.add_argument("input")
    p.add_argument("--solution", default=None)
    p.add_argument("--csv-mult", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("bench", help="measurement harness")
    p.add_argument("--n-min", type=int, default=6)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("-k", type=int, default=2)
    p.add_argument("-r", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_bench)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        # A non-finite result is refused when it is written, so numpy's
        # overflow warnings would only repeat that error on stderr.
        with np.errstate(all="ignore"):
            return args.func(args)
    except GuardLimitError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 3
    except KeyError as exc:
        print(f"error: missing field {exc.args[0]!r}", file=sys.stderr)
        return 2
    except (FlatcoverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
