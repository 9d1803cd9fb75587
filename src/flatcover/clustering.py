"""Exact and heuristic solvers for k-flat clustering.

One depth-first search enumerates canonical set partitions of the records
into at most k blocks, accumulating each block's optimal fit cost.  Every
nearest-flat-consistent assignment occurs among these partitions, so the
exact solver's cheapest partition is the global optimum; its incumbent
bounds the search without ever changing the result (block fit cost is
monotone in the block's record set).  Counting consistent partitions runs
the same search unbounded.  Both are capped by the nodes visited.

Each block keeps its weight, coordinate sums and upper-triangle raw second
moments as scalar Python floats, updated from per-record terms computed
once.  Its cost, the sum of the d-r smallest eigenvalues of the centred
scatter, has a closed form for d <= 3 (Smith's trigonometric eigenvalues
for d = 3, falling back to eigvalsh where the eigenvalue needed is nearly
repeated); larger d call eigvalsh.  The returned optimum is refitted
through :func:`fitting.fit_points`.

Records, not expanded points, are the unit of partitioning: a stack of
duplicates always moves together, which is cost-neutral for multisets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardLimitError, ScalarModeError
from .fitting import fit_points
from .geometry import (
    MODE_FLOAT,
    ClusteringSolution,
    WeightedPointCloud,
    dist2_point_flat,
)
from .util import DEFAULT_NODE_GUARD, make_rng, resolve_guard


def stirling2(n: int, k: int) -> int:
    """Number of partitions of n labeled items into exactly k nonempty blocks."""
    if k < 0 or k > n:
        return 0
    row = [1] + [0] * k
    for i in range(1, n + 1):
        new = [0] * (k + 1)
        for j in range(1, min(i, k) + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k] if n > 0 else (1 if k == 0 else 0)


def partition_count(n: int, k: int) -> int:
    return sum(stirling2(n, j) for j in range(1, k + 1))


class PartitionIterator:
    """Canonical enumeration of set partitions into at most k nonempty blocks.

    Emits restricted growth strings in lexicographic order: record 0 is in
    block 0 and a new block index is exactly one more than the maximum index
    used so far.  Exactly stirling2(n, j) emitted strings use j blocks.
    """

    def __init__(self, n_records: int, k: int):
        if n_records < 1 or k < 1:
            raise ValueError("need n_records >= 1 and k >= 1")
        self.n_records = n_records
        self.k = k

    def __iter__(self):
        n, k = self.n_records, self.k
        labels = [0] * n

        def rec(i, used):
            if i == n:
                yield tuple(labels)
                return
            top = used + 1 if used < k else used
            for b in range(top):
                labels[i] = b
                yield from rec(i + 1, max(used, b + 1))

        yield from rec(1, 1)


@dataclass(frozen=True)
class HeuristicConfig:
    restarts: int = 10
    max_iter: int = 100
    rel_tol: float = 1e-9
    rng_seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iter < 1 or not self.rel_tol > 0:
            raise ValueError("restarts >= 1, max_iter >= 1, rel_tol > 0 required")


def _check_solver_args(cloud: WeightedPointCloud, k: int, r: int) -> None:
    if cloud.mode != MODE_FLOAT:
        raise ScalarModeError("clustering solvers operate on float-mode clouds")
    if not cloud.records:
        raise ValueError("cannot cluster an empty cloud")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (0 <= r <= cloud.dim - 1):
        raise ValueError(f"flat dimension must satisfy 0 <= r <= d-1, got {r}")


def _fit_blocks(X, W, labels, r) -> list:
    """Optimal flat of each block of a restricted growth string."""
    labels = np.asarray(labels)
    return [fit_points(X[labels == b], W[labels == b], r)
            for b in range(labels.max() + 1)]


def _dist2(X: np.ndarray, flat) -> np.ndarray:
    """Squared distance from every row of X to a float-mode flat."""
    Y = X - flat.offset_array()
    if flat.dim_flat:
        B = flat.basis_array()
        Y = Y - (Y @ B) @ B.T
    return np.einsum("ij,ij->i", Y, Y)


# The d=3 closed form takes the eigenvalues of A = qI + pB from
# h = det(B)/2 = cos(3 phi), with q = tr(A)/3 and p = ||A - qI||_F / sqrt(6).
# Where the eigenvalue a cost needs is repeated (h = -1 for the largest,
# h = +1 for the smallest) acos has an infinite slope and the formula keeps
# only about sqrt(eps); within this distance of that end the block cost comes
# from eigvalsh instead.
TRIG_FALLBACK_BAND = 1e-4


def _eig_cost(A: np.ndarray, r: int) -> float:
    """Sum of the d-r smallest eigenvalues of a symmetric scatter, clamped at 0."""
    evals = np.linalg.eigvalsh(A)
    return max(float(np.sum(evals[: A.shape[0] - r])), 0.0)


def _block_cost(d: int, r: int):
    """Optimal r-flat cost of one block as ``cost(w, s, m)``.

    ``w`` is the block weight, ``s`` its d coordinate sums and ``m`` its d(d+1)/2
    raw second moments, upper triangle row by row.  The cost is the sum of the
    d-r smallest eigenvalues of the centred scatter a_ij = m_ij - s_i s_j / w:
    closed forms for d <= 3 (Smith's trigonometric eigenvalues for d = 3, with
    an eigvalsh fallback near a repeated eigenvalue), eigvalsh beyond.
    """
    if d == 1:
        def cost(w, s, m):
            return max(m[0] - s[0] * s[0] / w, 0.0)
    elif d == 2:
        def cost(w, s, m):
            s0, s1 = s
            a = m[0] - s0 * s0 / w
            b = m[2] - s1 * s1 / w
            if r == 0:
                return max(a + b, 0.0)
            c = m[1] - s0 * s1 / w
            half = 0.5 * (a + b)
            # ``** 2`` (libm pow) rounds like the numpy form of this cost did;
            # on a Python float it raises on overflow instead of giving inf.
            try:
                gap2 = (a - b) ** 2
            except OverflowError:
                gap2 = math.inf
            root = math.sqrt(max(0.25 * gap2 + c * c, 0.0))
            return max(half - root, 0.0)
    elif d == 3:
        # r = 1 needs the largest eigenvalue; r = 2 needs the smallest, which
        # is minus the largest eigenvalue of -A (whose h is -h).
        sign = 1.0 if r == 1 else -1.0

        def cost(w, s, m):
            s0, s1, s2 = s
            a00 = m[0] - s0 * s0 / w
            a11 = m[3] - s1 * s1 / w
            a22 = m[5] - s2 * s2 / w
            trace = a00 + a11 + a22
            if r == 0:
                return max(trace, 0.0)
            a01 = m[1] - s0 * s1 / w
            a02 = m[2] - s0 * s2 / w
            a12 = m[4] - s1 * s2 / w
            q = trace / 3.0
            b00 = a00 - q
            b11 = a11 - q
            b22 = a22 - q
            p = math.sqrt((b00 * b00 + b11 * b11 + b22 * b22
                           + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0)
            if p == 0.0:  # A = qI
                lam = q
            else:
                b00 /= p
                b11 /= p
                b22 /= p
                c01 = a01 / p
                c02 = a02 / p
                c12 = a12 / p
                g = sign * 0.5 * (b00 * (b11 * b22 - c12 * c12)
                                  - c01 * (c01 * b22 - c12 * c02)
                                  + c02 * (c01 * c12 - b11 * c02))
                # Near a repeated eigenvalue, or with non-finite moments.
                if not (g >= TRIG_FALLBACK_BAND - 1.0 and p < math.inf):
                    A = np.array([[a00, a01, a02], [a01, a11, a12], [a02, a12, a22]])
                    return _eig_cost(A, r)
                lam = q + sign * 2.0 * p * math.cos(math.acos(min(g, 1.0)) / 3.0)
            return max(trace - lam if r == 1 else lam, 0.0)
    else:
        rows, cols = np.triu_indices(d)

        def cost(w, s, m):
            M = np.empty((d, d))
            M[rows, cols] = m
            M[cols, rows] = m
            return _eig_cost(M - np.outer(s, s) / w, r)
    return cost


def _search(X, W, k, r, guard, leaf) -> None:
    """Depth-first search over canonical partitions into at most k blocks.

    Record i joins an existing block or opens the next one (restricted growth
    strings).  Each block keeps its weight, coordinate sums and raw second
    moments as plain floats, updated in place from per-record terms computed
    once, so each step costs a few float additions and one block-cost
    evaluation.  Every complete partition goes to ``leaf(labels, total)``,
    which returns the bound: a branch is cut once its accumulated cost
    reaches it.  Visiting more than ``guard`` nodes raises GuardLimitError.
    """
    n, d = X.shape
    cost = _block_cost(d, r)
    rows, cols = (idx.tolist() for idx in np.triu_indices(d))
    dims = range(d)
    pairs = range(len(rows))
    # Per-record terms in the operation order of ``wt * x`` and
    # ``np.outer(x, x) * wt``.
    ws = W.tolist()
    xs = X.tolist()
    rs = [[wt * x[a] for a in dims] for x, wt in zip(xs, ws)]
    rm = [[(x[a] * x[b]) * wt for a, b in zip(rows, cols)] for x, wt in zip(xs, ws)]

    # Per-block accumulators: weight, coordinate sums, raw second moments.
    bw = [0.0] * k
    bs = [[0.0] * d for _ in range(k)]
    bm = [[0.0] * len(rows) for _ in range(k)]
    bcost = [0.0] * k

    bound = math.inf
    nodes = 0
    labels = [0] * n

    def rec(i, used, total):
        nonlocal bound, nodes
        nodes += 1
        if nodes > guard:
            raise GuardLimitError(
                f"instance too large for exact mode: partition-search nodes exceed {guard}")
        if i == n:
            bound = leaf(labels, total)
            return
        wt = ws[i]
        sx = rs[i]
        mx = rm[i]
        top = used + 1 if used < k else used
        for b in range(top):
            s = bs[b]
            m = bm[b]
            old_cost = bcost[b]
            bw[b] += wt
            for a in dims:
                s[a] += sx[a]
            for t in pairs:
                m[t] += mx[t]
            new_cost = cost(bw[b], s, m)
            bcost[b] = new_cost
            new_total = total - old_cost + new_cost
            if not new_total >= bound:
                labels[i] = b
                rec(i + 1, max(used, b + 1), new_total)
            bw[b] -= wt
            for a in dims:
                s[a] -= sx[a]
            for t in pairs:
                m[t] -= mx[t]
            bcost[b] = old_cost

    # Record 0 always opens block 0.
    bw[0] = ws[0]
    bs[0] = list(rs[0])
    bm[0] = list(rm[0])
    bcost[0] = cost(bw[0], bs[0], bm[0])
    rec(1, 1, bcost[0])


def solve_exact(cloud: WeightedPointCloud, k: int, r: int, budget: float | None = None,
                *, guard: int | None = None, prune: bool = True) -> ClusteringSolution:
    """Globally optimal k-flat clustering by canonical partition enumeration.

    Raises GuardLimitError when the search visits more nodes than the guard
    rather than silently degrading to a heuristic.  With ``prune`` the search
    skips branches whose accumulated block-fit cost already meets the
    incumbent; pruned and unpruned runs return the same solution.  A
    ``budget`` turns on decision mode: the returned optimum additionally
    carries ``budget_decision = (cost <= budget)``.
    """
    _check_solver_args(cloud, k, r)
    X = cloud.coords_array()
    W = cloud.weights_array()
    best_total = math.inf
    best_labels = None

    def leaf(labels, total):
        nonlocal best_total, best_labels
        if total < best_total:
            best_total = total
            best_labels = tuple(labels)
        return best_total if prune else math.inf

    _search(X, W, k, r, resolve_guard(DEFAULT_NODE_GUARD, guard), leaf)
    if best_labels is None:
        raise ValueError("no partition has a finite cost: coordinates are not finite "
                         "or overflow float64")
    fits = _fit_blocks(X, W, best_labels, r)
    flats = [f.flat for f in fits]
    flats += [flats[0]] * (k - len(flats))
    cost = float(sum(f.cost for f in fits))
    return ClusteringSolution(tuple(flats), best_labels, cost,
                              budget_decision=None if budget is None else cost <= budget)


def is_voronoi_consistent(cloud: WeightedPointCloud, solution: ClusteringSolution,
                          tol: float = 1e-9) -> bool:
    """True iff every record's assigned flat attains the minimum distance (up to tol)."""
    for rec, b in zip(cloud.records, solution.assignment):
        dists = [dist2_point_flat(rec.coords, f) for f in solution.flats]
        if dists[b] > min(dists) + tol:
            return False
    return True


def count_consistent_partitions(cloud: WeightedPointCloud, k: int, r: int,
                                *, guard: int | None = None) -> int:
    """Number of canonical partitions reproduced by their own fitted flats.

    A partition counts when fitting each block and re-assigning every record
    to its nearest fitted flat (ties to the lowest block index) yields the
    partition back.  Empirically measures how many of the enumerated
    partitions are realizable as nearest-flat assignments.  Runs the exact
    solver's search without a bound, so the guard caps the same node count.
    """
    _check_solver_args(cloud, k, r)
    X = cloud.coords_array()
    W = cloud.weights_array()
    count = 0

    def leaf(labels, total):
        nonlocal count
        flats = [f.flat for f in _fit_blocks(X, W, labels, r)]
        nearest = np.argmin(np.column_stack([_dist2(X, f) for f in flats]), axis=1)
        count += bool(np.array_equal(nearest, labels))
        return math.inf

    _search(X, W, k, r, resolve_guard(DEFAULT_NODE_GUARD, guard), leaf)
    return count


def _heuristic_restart(X, W, k, r, config, stream):
    """One seeded restart on the shared record arrays: (cost, assignment, flats)."""
    rng = make_rng(config.rng_seed, stream)
    n = len(X)

    def fit(idx):
        return fit_points(X[idx], W[idx], r).flat

    m = min(r + 1, n)
    flats = [fit(sorted(rng.choice(n, size=m, replace=False))) for _ in range(k)]
    prev_cost = math.inf
    for _ in range(config.max_iter):
        D = np.column_stack([_dist2(X, f) for f in flats])
        assign = np.argmin(D, axis=1)  # ties resolve to the lowest flat index
        # Each flat's members in ascending record order, from one stable sort.
        sizes = np.bincount(assign, minlength=k)
        blocks = np.split(np.argsort(assign, kind="stable"), np.cumsum(sizes)[:-1])
        resid = np.empty(n)
        for j, members in enumerate(blocks):
            if len(members):
                Xj = X[members]
                flats[j] = fit_points(Xj, W[members], r).flat
                resid[members] = _dist2(Xj, flats[j])
        cost = float(W @ resid)
        # Reseed empty blocks from the records with the largest current
        # residuals (claimed in place: resid is rebuilt every round); a
        # reseed changes the flats, so never converge on it.
        reseeded = False
        for j in np.flatnonzero(sizes == 0):
            worst = int(np.argmax(resid))
            flats[j] = fit([worst])
            resid[worst] = -1.0
            reseeded = True
        converged = (not reseeded
                     and prev_cost - cost <= config.rel_tol * max(prev_cost, 1e-300))
        prev_cost = cost
        if converged:
            break
    return prev_cost, assign, tuple(flats)


def solve_heuristic(cloud: WeightedPointCloud, k: int, r: int,
                    config: HeuristicConfig = HeuristicConfig()) -> ClusteringSolution:
    """Alternating assign/refit heuristic with seeded restarts.

    Each restart draws from an independent counter-based stream and restarts
    merge by (cost, assignment lexicographic), so the result does not depend
    on the order in which restarts run.  All restarts share one copy of the
    record arrays; assignments are compared only between restarts of equal
    cost.
    """
    _check_solver_args(cloud, k, r)
    X = cloud.coords_array()
    W = cloud.weights_array()
    best = None
    for stream in range(config.restarts):
        cost, assign, flats = _heuristic_restart(X, W, k, r, config, stream)
        if (best is None or cost < best[0]
                or (cost == best[0] and assign.tolist() < best[1].tolist())):
            best = cost, assign, flats
    cost, assign, flats = best
    return ClusteringSolution(flats, assign.tolist(), cost)
