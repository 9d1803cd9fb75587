"""Seeded instances, CLI steps and correctness oracles for the four workloads.

An instance is what one client sends before it waits: one or more
``flatcover`` calls that share input files.  ``build(workload, seed, ...)``
generates every instance of a pass and writes its input files; ``run`` makes
the calls through the runner's ``cli`` callable; ``check`` judges the outputs
with oracles that never call the solver under test; ``answer`` gives the
canonical exact answer that is compared with the recorded reference.

Family parameters cycle in a fixed pattern and only coordinates come from the
seed, so every seed gives the same mix of instance shapes and a run that stops
part-way through its second cycle keeps that mix.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import time

import numpy as np

from flatcover import io as fio
from flatcover.clustering import is_voronoi_consistent
from flatcover.cover import verify_cover
from flatcover.fitting import best_fit_flat
from flatcover.generators import (
    all_graphs,
    matching_color_graph,
    min_dominating_size,
    planted_lines_cloud,
    random_cloud,
    random_exact_cloud,
)
from flatcover.geometry import (
    MODE_FLOAT,
    MODE_RATIONAL,
    AffineFlat,
    ClusteringSolution,
    WeightedPointCloud,
    total_cost,
)

# The relaxed RMIS gadget keeps nu = 64.  Below it, relaxed constants let some
# independent selections exceed the budget B (at nu = 32 the selection (4, 5)
# already fails verify), so a smaller gadget would make correct answers look
# wrong.  Do not shrink it to make runs faster.
RMIS_NU = 64

EXACT_REL_TOL = 1e-12
FLOAT_REL_TOL = 1e-9


def rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


class Setup:
    """Work directory plus the time spent inside the program's generators."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.gen_s = 0.0

    def gen(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.gen_s += time.perf_counter() - start

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write(self, name: str, obj) -> str:
        path = self.path(name)
        with open(path, "w") as fh:
            fh.write(fio.dumps_canonical(obj) + "\n")
        return path


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


class Instance:
    """One closed-loop request: its CLI calls, their results and the oracle."""

    family = ""

    def __init__(self, ident: str):
        self.ident = ident
        self.results: list = []

    def run(self, cli) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute oracle data once, outside every timed region."""

    def check(self) -> str | None:
        raise NotImplementedError

    def answer(self) -> str | None:
        return None

    def _rcs(self) -> list:
        return [res.rc for res in self.results]


# ---------------------------------------------------------------------------
# cluster-exact and cluster-heuristic


def _flats_from_obj(data: dict, dim: int, r: int) -> tuple:
    return tuple(AffineFlat(dim, r, tuple(tuple(c) for c in f["basis"]),
                            tuple(f["offset"]), MODE_FLOAT)
                 for f in data["flats"])


def _labels_cost(cloud: WeightedPointCloud, labels, r: int) -> float:
    """Cost of refitting each label group with best_fit_flat."""
    groups: dict = {}
    for rec, lab in zip(cloud.records, labels):
        groups.setdefault(lab, []).append(rec)
    return float(sum(best_fit_flat(WeightedPointCloud(cloud.dim, cloud.mode,
                                                      tuple(recs)), r).cost
                     for recs in groups.values()))


class ExactClusterInstance(Instance):
    def __init__(self, ident, family, cloud, labels, k, r, setup):
        super().__init__(ident)
        self.family = family
        self.cloud = cloud
        self.labels = labels
        self.k, self.r = k, r
        self.n_records = len(cloud.records)
        self.dim = cloud.dim
        self.src = setup.write(f"{ident}.json", fio.cloud_to_obj(cloud))
        self.out = setup.path(f"{ident}.out.json")
        self.reference_cost = None

    def run(self, cli):
        self.results = [cli(["cluster", self.src, "-k", str(self.k),
                             "-r", str(self.r), "-o", self.out])]

    def prepare(self):
        self.reference_cost = _labels_cost(self.cloud, self.labels, self.r)

    def check(self):
        if self._rcs() != [0]:
            return f"exit codes {self._rcs()}, expected [0]"
        data = _load(self.out)
        assign = tuple(data["assignment"])
        if len(assign) != self.n_records or not all(0 <= a < self.k for a in assign):
            return "assignment has the wrong length or labels"
        cost = float(data["cost"])
        if cost > self.reference_cost * (1 + EXACT_REL_TOL) + EXACT_REL_TOL:
            return f"cost {cost!r} above the reference partition's {self.reference_cost!r}"
        flats = _flats_from_obj(data, self.dim, self.r)
        recomputed = total_cost(self.cloud, flats)
        if not rel_close(cost, recomputed, EXACT_REL_TOL):
            return f"cost {cost!r} differs from total_cost {recomputed!r}"
        if not is_voronoi_consistent(self.cloud, ClusteringSolution(flats, assign, cost)):
            return "assignment is not Voronoi-consistent with the returned flats"
        return None

    def answer(self):
        return "assignment:" + ",".join(map(str, _load(self.out)["assignment"]))


class PlantedCost:
    """Planted-partition refit cost of one cloud, computed on first use.

    Holds arrays rather than the cloud object, so that the benchmark's own
    memory does not inflate the process's peak RSS."""

    def __init__(self, arrays, labels, r: int):
        self._args = (arrays, labels, r)
        self._value = None

    @property
    def value(self) -> float:
        if self._value is None:
            (X, W), labels, r = self._args
            cloud = WeightedPointCloud.create(X, MODE_FLOAT, W.astype(int))
            self._value = _labels_cost(cloud, labels, r)
            self._args = None
        return self._value


class HeuristicClusterInstance(Instance):
    def __init__(self, ident, family, src, arrays, planted, k, r, seed):
        super().__init__(ident)
        self.family = family
        self.src = src
        self.X, self.W = arrays
        self.planted = planted
        self.k, self.r, self.seed = k, r, seed
        self.out = os.path.join(os.path.dirname(src), f"{ident}.out.json")
        self.cost = None

    def run(self, cli):
        self.results = [cli(["cluster", self.src, "-k", str(self.k), "-r", str(self.r),
                             "--heuristic", "--restarts", "16",
                             "--seed", str(self.seed), "-o", self.out])]

    def check(self):
        self.cost = None
        if self._rcs() != [0]:
            return f"exit codes {self._rcs()}, expected [0]"
        data = _load(self.out)
        assign = np.asarray(data["assignment"], dtype=int)
        if assign.shape != (len(self.X),) or assign.min() < 0 or assign.max() >= self.k:
            return "assignment has the wrong length or labels"
        flats = _flats_from_obj(data, self.X.shape[1], self.r)
        resid = np.empty(len(self.X))
        for j, f in enumerate(flats):
            members = assign == j
            Y = self.X[members] - f.offset_array()
            if f.dim_flat:
                B = f.basis_array()
                Y = Y - (Y @ B) @ B.T
            resid[members] = np.einsum("ij,ij->i", Y, Y)
        cost = float(data["cost"])
        recomputed = float(self.W @ resid)
        if not rel_close(cost, recomputed, FLOAT_REL_TOL):
            return f"cost {cost!r} differs from its assignment's cost {recomputed!r}"
        self.cost = cost
        return None

    def cost_ratio(self) -> float | None:
        if self.planted is None or self.cost is None:
            return None
        return self.cost / self.planted.value


def _planted_3d(setup: Setup, n: int, seed: int):
    """planted_lines_cloud lifted to 3-D: Gaussian noise on the new axis, then
    a seeded random rotation, so the three lines span all of R^3."""
    cloud, labels, _ = setup.gen(planted_lines_cloud, n, 3, 0.1, seed)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 3))))
    X = np.column_stack([cloud.coords_array(), 0.1 * rng.normal(size=n)])
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return WeightedPointCloud.create(X @ Q.T, MODE_FLOAT), labels


def build_cluster_exact(setup: Setup, seed: int, smoke: bool) -> list:
    """k = 3, r = 1.  Planted 2-D lines take the closed-form 2-D block cost;
    planted 3-D lines take the eigvalsh path and set the tail; small random
    3-D clouds are where pruning works worst."""
    count = 5 if smoke else 250
    out = []
    for i in range(count):
        inst_seed = seed * 100_003 + i
        ident = f"ce{i:03d}"
        slot = i % 5
        if slot in (0, 2):
            cloud, labels, _ = setup.gen(planted_lines_cloud, 7 if smoke else 16, 3,
                                         0.1, inst_seed)
            family = "planted-2d"
        elif slot in (1, 3):
            cloud, labels = _planted_3d(setup, 7 if smoke else 14, inst_seed)
            family = "planted-3d"
        else:
            n = 6 if smoke else 11
            cloud = setup.gen(random_cloud, n, 3, inst_seed)
            # No planted partition exists; any fixed partition bounds the optimum.
            labels = tuple(j % 3 for j in range(n))
            family = "random-3d"
        out.append(ExactClusterInstance(ident, family, cloud, labels, 3, 1, setup))
    return out


def build_cluster_heuristic(setup: Setup, seed: int, smoke: bool) -> list:
    """n = 5000, k = 5, r = 1, 16 restarts.  Each cloud is solved with five
    heuristic seeds; half the clouds are planted 2-D lines (cost ratio
    against the planted partition), half random 3-D clouds."""
    n = 200 if smoke else 5000
    clouds_per_family = 1 if smoke else 10
    seeds_per_cloud = 2 if smoke else 5
    out = []
    for c in range(2 * clouds_per_family):
        cloud_seed = seed * 100_003 + c
        planted = c % 2 == 0
        if planted:
            cloud, labels, _ = setup.gen(planted_lines_cloud, n, 5, 0.1, cloud_seed)
        else:
            cloud = setup.gen(random_cloud, n, 3, cloud_seed)
        src = setup.write(f"ch{c:02d}.json", fio.cloud_to_obj(cloud))
        arrays = (cloud.coords_array(), cloud.weights_array())
        family = "planted-2d" if planted else "random-3d"
        planted_cost = PlantedCost(arrays, labels, 1) if planted else None
        for s in range(seeds_per_cloud):
            out.append(HeuristicClusterInstance(
                f"ch{c:02d}s{s}", family, src, arrays, planted_cost, 5, 1,
                seed * 1000 + s))
    # Interleave the clouds so any prefix of a pass holds both families.
    out.sort(key=lambda inst: (inst.ident[-1], inst.ident))
    return out


# ---------------------------------------------------------------------------
# cover


def _collinear(a, b, c) -> bool:
    return (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0])


def _coplanar(a, b, c, e) -> bool:
    u = [b[i] - a[i] for i in range(3)]
    v = [c[i] - a[i] for i in range(3)]
    w = [e[i] - a[i] for i in range(3)]
    det = (u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
           + u[2] * (v[0] * w[1] - v[1] * w[0]))
    return det == 0


def _general_position_cloud(setup: Setup, n: int, dim: int, seed: int):
    """random_exact_cloud redrawn until no dim+1 points lie on one hyperplane."""
    degenerate = _collinear if dim == 2 else _coplanar
    for attempt in itertools.count():
        cloud = setup.gen(random_exact_cloud, n, dim, seed * 31 + attempt,
                          coord_range=1000)
        pts = [tuple(int(c) for c in r.coords) for r in cloud.records]
        if not any(degenerate(*sub) for sub in itertools.combinations(pts, dim + 1)):
            return cloud


def _lines_points(rng, k: int, per_line: int):
    """k distinct lines in the plane with per_line distinct integer points each."""
    lines = []
    while len(lines) < k:
        base = tuple(int(v) for v in rng.integers(-60, 61, size=2))
        dx, dy = (int(v) for v in rng.integers(-6, 7, size=2))
        if dx == 0 and dy == 0:
            continue
        g = math.gcd(dx, dy)
        dx, dy = dx // g, dy // g
        if dx < 0 or (dx == 0 and dy < 0):
            dx, dy = -dx, -dy
        key = (dx, dy, dy * base[0] - dx * base[1])
        if key in {ln[0] for ln in lines}:
            continue
        ts = rng.choice(np.arange(-25, 26), size=per_line, replace=False)
        pts = [(base[0] + int(t) * dx, base[1] + int(t) * dy) for t in ts]
        lines.append((key, pts))
    return lines


def _on_line(key, p) -> bool:
    dx, dy, c = key
    return dy * p[0] - dx * p[1] == c


class CoverInstance(Instance):
    def __init__(self, ident, family, cloud, k, expect_yes, kernel, setup):
        super().__init__(ident)
        self.family = family
        self.cloud = cloud
        self.k = k
        self.expect_yes = expect_yes
        self.kernel = kernel
        self.n_records = len(cloud.records)
        self.dim = cloud.dim
        self.src = setup.write(f"{ident}.json", fio.cloud_to_obj(cloud))
        self.out = setup.path(f"{ident}.out.json")

    def run(self, cli):
        argv = ["cover", self.src, "-k", str(self.k), "-o", self.out]
        if self.kernel:
            argv.append("--kernel")
        self.results = [cli(argv)]

    def check(self):
        return check_cover_output(self.cloud, self.k, self.expect_yes,
                                  self.results[0], self.out)

    def answer(self):
        return cover_answer(self.results[0], self.out)


def check_cover_output(cloud, k, expect_yes, result, out) -> str | None:
    want = 0 if expect_yes else 1
    if result.rc != want:
        return f"cover exit code {result.rc}, expected {want}"
    data = _load(out)
    if data.get("answer") != ("YES" if expect_yes else "NO"):
        return f"cover answer {data.get('answer')!r} in the output file"
    if not expect_yes:
        return None
    sol = fio.cover_solution_from_obj(data)
    if len(sol.hyperplanes) > k:
        return f"{len(sol.hyperplanes)} hyperplanes for k = {k}"
    if not verify_cover(cloud, sol.hyperplanes):
        return "returned hyperplanes miss a point"
    return None


def cover_answer(result, out) -> str:
    if result.rc != 0:
        return "NO"
    return "YES:" + json.dumps(_load(out)["hyperplanes"])


def build_cover(setup: Setup, seed: int, smoke: bool) -> list:
    """Four families whose answers are known by construction; candidate
    branching is what the CLI's auto strategy picks for every one."""
    per_family = 2 if smoke else 25
    out = []
    for i in range(per_family):
        s = seed * 100_003 + i
        alt = i % 2
        # Planar, no three collinear, n = 2k+1 > 2k: NO.
        k = 2 if smoke else 4 + alt
        cloud = _general_position_cloud(setup, 2 * k + 1, 2, s)
        out.append(CoverInstance(f"cv{i:02d}a", "planar-no", cloud, k, False, False, setup))
        # 3-D, no four coplanar, n > 3k: NO.
        k = 2 if smoke else 3
        cloud = _general_position_cloud(setup, 3 * k + 1 + alt, 3, s)
        out.append(CoverInstance(f"cv{i:02d}b", "space-no", cloud, k, False, False, setup))
        # Points on k lines: YES; every other instance goes through --kernel.
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, i, 1))))
        k = 2 if smoke else 4 + alt
        pts = {p for _, line in _lines_points(rng, k, k + 1) for p in line}
        cloud = WeightedPointCloud.create(sorted(pts), MODE_RATIONAL)
        out.append(CoverInstance(f"cv{i:02d}c", "lines-yes", cloud, k, True,
                                 alt == 0, setup))
        # k lines with k+2 points each plus one point off all of them: NO.
        # A quarter of the pass at k = 4, so the 90th percentile falls
        # inside this family rather than on its edge.
        k = 2 if smoke else 4
        lines = _lines_points(rng, k, k + 2)
        pts = {p for _, line in lines for p in line}
        while True:
            extra = tuple(int(v) for v in rng.integers(-200, 201, size=2))
            if not any(_on_line(key, extra) for key, _ in lines):
                break
        pts.add(extra)
        cloud = WeightedPointCloud.create(sorted(pts), MODE_RATIONAL)
        out.append(CoverInstance(f"cv{i:02d}d", "lines-plus-one-no", cloud, k, False,
                                 False, setup))
    return out


# ---------------------------------------------------------------------------
# reduce


class DsInstance(Instance):
    """reduce-ds, then cover on the instance's cloud, then verify the cover."""

    family = "ds"

    def __init__(self, ident, graph, setup):
        super().__init__(ident)
        self.graph = graph
        self.src = setup.write(f"{ident}.graph.json", fio.graph_to_obj(graph))
        self.inst = setup.path(f"{ident}.ds.json")
        self.cloud_path = setup.path(f"{ident}.cloud.json")
        self.out = setup.path(f"{ident}.cover.json")
        self.expect_yes = None

    def run(self, cli):
        self.results = [cli(["reduce-ds", self.src, "-k", "2", "-o", self.inst])]
        if self.results[0].rc != 0:
            return
        # The cover command reads a bare cloud file.
        with open(self.inst) as fh:
            cloud = json.load(fh)["cloud"]
        with open(self.cloud_path, "w") as fh:
            json.dump(cloud, fh)
        self.results.append(cli(["cover", self.cloud_path, "-k", "2", "-o", self.out]))
        if self.results[1].rc == 0:
            self.results.append(cli(["verify", self.inst, self.out]))

    def prepare(self):
        self.expect_yes = min_dominating_size(self.graph, 2) is not None

    def check(self):
        if len(self.results) < 2 or self.results[0].rc != 0:
            return f"reduce-ds exit codes {self._rcs()}"
        cloud = fio.cloud_from_obj(_load(self.cloud_path))
        problem = check_cover_output(cloud, 2, self.expect_yes, self.results[1], self.out)
        if problem or not self.expect_yes:
            return problem
        verify = self.results[2]
        if verify.rc != 0 or verify.out.strip().splitlines()[-1:] != ["PASS"]:
            return f"verify of the cover witness: exit code {verify.rc}"
        return None

    def answer(self):
        return cover_answer(self.results[1], self.out)


class RmisBuildInstance(Instance):
    family = "rmis-build"

    def __init__(self, ident, setup):
        super().__init__(ident)
        graph = setup.gen(matching_color_graph, 2, RMIS_NU)
        self.src = setup.write("rmis.graph.json", fio.graph_to_obj(graph))
        self.out = setup.path("rmis.json")

    def run(self, cli):
        self.results = [cli(["reduce-rmis", self.src, "-o", self.out])]

    def check(self):
        if self._rcs() != [0]:
            return f"reduce-rmis exit codes {self._rcs()}, expected [0]"
        return None

    def answer(self):
        data = _load(self.out)
        return f"B={data['B']};records={len(data['cloud']['points'])}"


COST_LINE = re.compile(r"cost <= B \((-?\d+) vs (-?\d+)\)")


class RmisSelectInstance(Instance):
    """verify of one selection: independent pairs PASS, conflicting pairs FAIL."""

    family = "rmis-select"

    def __init__(self, ident, selection, build: RmisBuildInstance, setup):
        super().__init__(ident)
        self.selection = selection
        self.independent = selection[0] != selection[1]
        self.inst = build.out
        self.witness = setup.write(f"{ident}.json", {"kind": "selection",
                                                     "indices": list(selection)})

    def run(self, cli):
        self.results = [cli(["verify", self.inst, self.witness])]

    def check(self):
        res = self.results[0]
        want = 0 if self.independent else 1
        if res.rc != want:
            return f"verify {self.selection}: exit code {res.rc}, expected {want}"
        match = COST_LINE.search(res.out)
        if match is None:
            return f"verify {self.selection}: no cost line"
        cost, budget = int(match.group(1)), int(match.group(2))
        if (cost <= budget) != self.independent:
            return f"verify {self.selection}: cost {cost} against B {budget}"
        return None

    def answer(self):
        match = COST_LINE.search(self.results[0].out)
        return match.group(1) if match else "no-cost"


def build_reduce(setup: Setup, seed: int, smoke: bool) -> list:
    """Criterion 6's graph set through reduce-ds/cover/verify, and the relaxed
    nu = 64 matching-graph gadget through reduce-rmis and verify."""
    graphs = []
    for d in (4, 5):
        graphs.extend(setup.gen(lambda: list(all_graphs(d, connected=True,
                                                          max_degree=d - 2))))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 2))))
    order = rng.permutation(len(graphs))
    if smoke:
        order = order[:4]
    ds = [DsInstance(f"ds{int(g):03d}", graphs[int(g)], setup) for g in order]
    build = RmisBuildInstance("rmis", setup)
    n_pairs = 1 if smoke else 4
    picks = set()
    while len(picks) < n_pairs:
        j1, j2 = (int(v) for v in rng.integers(1, RMIS_NU + 1, size=2))
        if j1 != j2:
            picks.add((j1, j2))
    sels = sorted(picks)
    sels += [(j, j) for j in rng.choice(np.arange(1, RMIS_NU + 1), size=n_pairs,
                                        replace=False).tolist()]
    order_sel = rng.permutation(len(sels))
    selects = [RmisSelectInstance(f"sel{t:02d}", sels[int(t)], build, setup)
               for t in order_sel]
    # Spread the slow verify calls evenly through the DS stream.
    out = [build]
    stride = max(1, len(ds) // len(selects))
    for t, inst in enumerate(ds):
        out.append(inst)
        if (t + 1) % stride == 0 and selects:
            out.append(selects.pop(0))
    out.extend(selects)
    return out


MAKE_PASS = {
    "cluster-exact": build_cluster_exact,
    "cluster-heuristic": build_cluster_heuristic,
    "cover": build_cover,
    "reduce": build_reduce,
}


def prepare_all(instances: list) -> None:
    for inst in instances:
        inst.prepare()
