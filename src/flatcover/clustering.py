"""Exact and heuristic solvers for k-flat clustering.

One depth-first search enumerates canonical set partitions of the records
into at most k blocks, accumulating each block's optimal fit cost.  Every
nearest-flat-consistent assignment occurs among these partitions, so the
exact solver's cheapest partition is the global optimum; its incumbent
bounds the search without ever changing the result (block fit cost is
monotone in the block's record set).  The exact solver starts that bound
from the labels of a lockstep assign/refit heuristic, replayed through the
search's own block updates.  Counting consistent partitions runs the same
search unbounded.  Both are capped by the nodes visited.

Each block keeps its weight, coordinate sums and upper-triangle raw second
moments as one tuple of Python floats, the sum of per-record terms computed
once.  Records join blocks in ascending index order, so these floats and
the block's cost are a function of its record set alone: for k >= 3 the
search memoises each block state by its record bitmask and reuses it on
every branch where that block recurs, clearing the memo at MEMO_LIMIT
states.
The memo changes no node, total or answer; the node guard still counts
nodes visited, not cost evaluations.  The cost, the sum of the d-r
smallest eigenvalues of the centred scatter, has a closed form for d <= 3
(Smith's trigonometric eigenvalues for d = 3, falling back to eigvalsh
where the eigenvalue needed is nearly repeated); larger d call eigvalsh.
The returned optimum is refitted through :func:`fitting.fit_points`.

Records, not expanded points, are the unit of partitioning: a stack of
duplicates always moves together, which is cost-neutral for multisets.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import GuardLimitError, ScalarModeError
from .fitting import affine_flat, centred_scatter, fit_points, fit_scatter
from .geometry import (
    MODE_FLOAT,
    ClusteringSolution,
    WeightedPointCloud,
    check_canonical,
    dist2_arrays,
    dist2_rows,
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
    if not 1 <= k <= len(cloud.records):
        raise ValueError(f"k must be between 1 and the number of records "
                         f"({len(cloud.records)}), got {k}")
    if not (0 <= r <= cloud.dim - 1):
        raise ValueError(f"flat dimension must satisfy 0 <= r <= d-1, got {r}")


def _fit_blocks(X, W, labels, r) -> list:
    """Optimal flat of each block of a restricted growth string."""
    labels = np.asarray(labels)
    return [fit_points(X[labels == b], W[labels == b], r)
            for b in range(labels.max() + 1)]


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
    """Optimal r-flat cost of one block as ``cost(w, s0, .., m0, ..)``.

    ``w`` is the block weight, then come its d coordinate sums and its d(d+1)/2
    raw second moments, upper triangle row by row.  The cost is the sum of the
    d-r smallest eigenvalues of the centred scatter a_ij = m_ij - s_i s_j / w:
    closed forms for d <= 3 (Smith's trigonometric eigenvalues for d = 3, with
    an eigvalsh fallback near a repeated eigenvalue), eigvalsh beyond.
    """
    if d == 1:
        def cost(w, s0, m00):
            return max(m00 - s0 * s0 / w, 0.0)
    elif d == 2:
        def cost(w, s0, s1, m00, m01, m11):
            a = m00 - s0 * s0 / w
            b = m11 - s1 * s1 / w
            if r == 0:
                return max(a + b, 0.0)
            c = m01 - s0 * s1 / w
            half = 0.5 * (a + b)
            # ``** 2`` is libm pow, which does not round like ``gap * gap`` or
            # numpy's ``** 2`` on every input (under glibc 2.36 it differs on
            # 1,715 of 2e6 random doubles); it is kept because changing it
            # moves answers.  On a Python float it raises on overflow instead
            # of giving inf.
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

        def cost(w, s0, s1, s2, m00, m01, m02, m11, m12, m22):
            a00 = m00 - s0 * s0 / w
            a11 = m11 - s1 * s1 / w
            a22 = m22 - s2 * s2 / w
            trace = a00 + a11 + a22
            if r == 0:
                return max(trace, 0.0)
            a01 = m01 - s0 * s1 / w
            a02 = m02 - s0 * s2 / w
            a12 = m12 - s1 * s2 / w
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

        def cost(w, *v):
            s, m = v[:d], v[d:]
            M = np.empty((d, d))
            M[rows, cols] = m
            M[cols, rows] = m
            return _eig_cost(M - np.outer(s, s) / w, r)
    return cost


# The seeded bound's margin above the seed path's peak, relative to the raw
# second moments of the whole cloud.
SEED_MARGIN = 1e-9


# The search's memo of block states is cleared once it holds this many.
MEMO_LIMIT = 2**16


def _search(X, W, k, r, guard, leaf, seed=None) -> int:
    """Depth-first search over canonical partitions into at most k blocks.

    Each record, from record 0 on, joins a block in use or opens the next one
    (restricted growth strings).  A block's state is its record bitmask, its
    moments (weight, coordinate sums and raw second moments as one tuple of
    plain floats, the sum of per-record terms computed once), its cost and its
    size; a join replaces the block's state, and backtracking restores the old
    one.  A block of at most r+1 records costs exactly 0.0.  Every complete
    partition goes to ``leaf(labels, total)``, which returns the bound: a
    branch is cut once its accumulated cost reaches it.  The loop keeps its
    own stack, so the depth is not limited by Python's recursion limit.

    Records join blocks in ascending index order on every branch, so a
    block's floats, cost included, are a function of its record set alone.
    For k >= 3 each grown state is therefore kept in a dict keyed by its
    bitmask and reused wherever the same block recurs; the dict is cleared
    once it holds MEMO_LIMIT states, and a state built again is the same bit
    for bit.  The memo saves work only: the nodes visited, the totals and
    the leaves are those of the search without it.

    ``seed``, a labelling of the records, is first replayed as a restricted
    growth string through the same block updates; the bound then starts just
    above the highest partial total on that path, which the search retraces
    bit for bit, so it reaches the seed's leaf or a cheaper one, and the
    answer is still the search's own.  Returns the node count; a count above
    ``guard`` raises GuardLimitError.
    """
    n, d = X.shape
    cost = _block_cost(d, r)
    rows, cols = (idx.tolist() for idx in np.triu_indices(d))
    # Per-record terms in the operation order of ``wt``, ``wt * x`` and
    # ``np.outer(x, x) * wt``.
    terms = [(wt, *[wt * x[a] for a in range(d)],
              *[(x[a] * x[b]) * wt for a, b in zip(rows, cols)])
             for x, wt in zip(X.tolist(), W.tolist())]
    # A block's state: record bitmask, moments, cost, size.
    empty = (0, (0.0,) * len(terms[0]), 0.0, 0)
    memo = {}

    def grow(state, i):
        """State of ``state``'s block plus record i; callers look in ``memo`` first."""
        mask = state[0] | 1 << i
        v = tuple(map(operator.add, state[1], terms[i]))
        # The grown block has size+1 records; r+1 of them lie on an r-flat.
        grown = mask, v, cost(*v) if state[3] > r else 0.0, state[3] + 1
        # With at most two blocks, a block's record set and the record that
        # completes it fix the node, so no state would be looked up again.
        if k > 2:
            if len(memo) >= MEMO_LIMIT:
                memo.clear()
            memo[mask] = grown
        return grown

    bound = math.inf
    nodes = 0
    if seed is not None:
        blocks = [empty] * k
        first = {}
        total = peak = 0.0
        for i, lab in enumerate(seed):
            b = first.setdefault(lab, len(first))
            old = blocks[b]
            state = memo.get(old[0] | 1 << i) or grow(old, i)
            total = total - old[2] + state[2]
            blocks[b] = state
            peak = max(peak, total)
        if math.isfinite(total):
            # Rounding moves a block cost by about 1e-13 of the block's raw
            # second moments, and can lift a partial total above the total of
            # a leaf below it; a bound this far above the peak cuts no branch
            # that rounding alone would have let an unseeded search keep.
            scale = float(W @ (X * X).sum(axis=1))
            bound = math.nextafter(peak + SEED_MARGIN * scale, math.inf)

    # Depth i places record i: its running total, blocks in use, next block
    # to try, and the (block, state) its join displaced.  Record 0 opens
    # block 0 at a total of 0.0, which is below any bound the seed sets.
    labels = [0] * n
    blocks = [empty] * k
    totals = [0.0] * n
    used = [0] * n
    nxt = [0] * n
    saved = [None] * n
    i = 0
    while i >= 0:
        b = nxt[i]
        if b > used[i] or b == k:
            i -= 1
            if i >= 0:
                j, state = saved[i]
                blocks[j] = state
            continue
        nxt[i] = b + 1
        old = blocks[b]
        state = memo.get(old[0] | 1 << i) or grow(old, i)
        total = totals[i] - old[2] + state[2]
        if total >= bound:
            continue
        nodes += 1
        if nodes > guard:
            raise GuardLimitError(
                f"instance too large for exact mode: partition-search nodes exceed {guard}")
        labels[i] = b
        if i + 1 == n:
            bound = leaf(labels, total)
            continue
        saved[i] = b, old
        blocks[b] = state
        i += 1
        totals[i] = total
        used[i] = max(used[i - 1], b + 1)
        nxt[i] = 0
    return nodes


# Restarts and round cap of the incumbent that seeds solve_exact's search.
INCUMBENT_RESTARTS = 8
INCUMBENT_ROUNDS = 30


def _lockstep_labels(X, W, k, r):
    """Labels of the cheapest of INCUMBENT_RESTARTS assign/refit restarts.

    The restarts run in lockstep on shared arrays.  Each of the k flats of a
    restart is first fitted through r+1 records drawn from ``make_rng(0)``;
    each round then takes one (restarts, k, n) array of squared distances,
    reassigns every record to its nearest flat (ties to the lowest block)
    and refits every block from its weighted moments with one batched
    ``eigh``.  A block left empty stays empty.  It stops when no assignment
    changes or after INCUMBENT_ROUNDS rounds, and returns None when the
    moments are not finite.

    This duplicates the assign/refit loop of ``solve_heuristic``, whose
    answers a merge would change; the two merge once the heuristic
    benchmark's throughput is re-baselined for converging solves.
    """
    n, d = X.shape
    # Restart t seeds block j with the r+1 records of smallest key [t, j].
    keys = make_rng(0).random((INCUMBENT_RESTARTS, k, n))
    member = keys <= np.sort(keys, axis=2)[..., min(r, n - 1), None]
    outer = (X[:, :, None] * X[:, None, :]).reshape(n, d * d)
    labels = None
    for _ in range(INCUMBENT_ROUNDS):
        mw = member * W
        w = mw.sum(axis=2)
        sums = mw @ X
        centre = sums / np.maximum(w, 1e-300)[..., None]
        scatter = ((mw @ outer).reshape(*w.shape, d, d)
                   - sums[..., :, None] * centre[..., None, :])
        if not np.isfinite(scatter).all():
            return None
        basis = np.linalg.eigh(scatter)[1][..., d - r:]
        Y = X - centre[:, :, None, :]
        dist = (Y * Y).sum(axis=3) - ((Y @ basis) ** 2).sum(axis=3)
        dist[w == 0] = np.inf
        new = dist.argmin(axis=1)
        if labels is not None and np.array_equal(new, labels):
            break
        labels = new
        member = labels[:, None, :] == np.arange(k)[:, None]
    score = np.take_along_axis(dist, labels[:, None, :], axis=1)[:, 0] @ W
    return labels[int(np.argmin(score))]


def solve_exact(cloud: WeightedPointCloud, k: int, r: int,
                *, guard: int | None = None, prune: bool = True) -> ClusteringSolution:
    """Globally optimal k-flat clustering by canonical partition enumeration.

    Raises GuardLimitError when the search visits more nodes than the guard
    rather than silently degrading to a heuristic.  With ``prune`` the search
    skips branches whose accumulated block-fit cost already meets the
    incumbent, and starts from the bound of a lockstep heuristic's labels.
    The heuristic's labels are never returned unless the search reaches them
    as its own optimum, so pruned, seeded and unpruned runs return the same
    solution.  Both run on records centred at their weighted mean, as raw
    moments cancel far from the origin; the flats are fitted as given.
    """
    _check_solver_args(cloud, k, r)
    X = cloud.coords_array()
    W = cloud.weights_array()
    guard = resolve_guard(DEFAULT_NODE_GUARD, guard)
    best_total = math.inf
    best_labels = None

    def leaf(labels, total):
        nonlocal best_total, best_labels
        if total < best_total:
            best_total = total
            best_labels = tuple(labels)
        return best_total if prune else math.inf

    # Overflowing moments end in the ValueError below, not in warnings.
    with np.errstate(all="ignore"):
        Y = X - (W @ X) / W.sum()
        seed = _lockstep_labels(Y, W, k, r) if prune else None
        _search(Y, W, k, r, guard, leaf, seed)
    if best_labels is None:
        raise ValueError("no partition has a finite cost: coordinates are not finite "
                         "or overflow float64")
    fits = _fit_blocks(X, W, best_labels, r)
    flats = [f.flat for f in fits]
    flats += [flats[0]] * (k - len(flats))
    cost = float(sum(f.cost for f in fits))
    return ClusteringSolution(tuple(flats), best_labels, cost)


def is_voronoi_consistent(cloud: WeightedPointCloud, solution: ClusteringSolution,
                          tol: float = 1e-9) -> bool:
    """True iff every record's assigned flat attains the minimum distance (up to tol)."""
    X = cloud.coords_array()
    D = np.column_stack([dist2_rows(X, f) for f in solution.flats])
    assigned = D[np.arange(len(X)), list(solution.assignment)]
    return bool(np.all(assigned <= D.min(axis=1) + tol))


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
        nearest = np.argmin(np.column_stack([dist2_rows(X, f) for f in flats]), axis=1)
        count += bool(np.array_equal(nearest, labels))
        return math.inf

    _search(X - (W @ X) / W.sum(), W, k, r, resolve_guard(DEFAULT_NODE_GUARD, guard), leaf)
    return count


def _fit_flats(C, S, r) -> list:
    """(offset, basis) of each stacked scatter's r-flat, checked as AffineFlat checks."""
    _, B, offset = fit_scatter(C, S, r)
    check_canonical(B, offset)
    return list(zip(offset, B))


def _heuristic_restart(X, W, k, r, config, flats):
    """One restart on the shared record arrays: (cost, assignment, flats).

    ``flats`` holds the restart's k initial flats as (offset, basis) array
    pairs and is refitted in place.  Each round takes every record's squared
    distance to each flat with :func:`dist2_arrays` (``dist2_rows``' own
    operations), assigns it to the first nearest flat of the (k, n) stack,
    refits every nonempty block with one stacked :func:`fit_scatter` and
    reseeds each empty block from the record with the largest residual.
    """
    n = len(X)
    prev_cost = math.inf
    for _ in range(config.max_iter):
        D = np.stack([dist2_arrays(X, *f) for f in flats])
        assign = D.argmin(axis=0)  # ties resolve to the lowest flat index
        # Each flat's members in ascending record order, from one stable sort.
        sizes = np.bincount(assign, minlength=k)
        blocks = np.split(np.argsort(assign, kind="stable"), np.cumsum(sizes)[:-1])
        full = np.flatnonzero(sizes)
        rows = [(X[blocks[j]], W[blocks[j]]) for j in full]
        C, S = zip(*(centred_scatter(Xj, Wj) for Xj, Wj in rows))
        resid = np.empty(n)
        for j, (Xj, _), flat in zip(full, rows, _fit_flats(np.stack(C), np.stack(S), r)):
            flats[j] = flat
            resid[blocks[j]] = dist2_arrays(Xj, *flat)
        cost = float(W @ resid)
        # Reseed empty blocks from the records with the largest current
        # residuals (claimed in place: resid is rebuilt every round); a
        # reseed changes the flats, so never converge on it.
        reseeded = False
        for j in np.flatnonzero(sizes == 0):
            worst = int(np.argmax(resid))
            flats[j], = _fit_flats(*centred_scatter(X[None, [worst]], W[None, [worst]]), r)
            resid[worst] = -1.0
            reseeded = True
        converged = (not reseeded
                     and prev_cost - cost <= config.rel_tol * max(prev_cost, 1e-300))
        prev_cost = cost
        if converged:
            break
    return prev_cost, assign, flats


def solve_heuristic(cloud: WeightedPointCloud, k: int, r: int,
                    config: HeuristicConfig = HeuristicConfig()) -> ClusteringSolution:
    """Alternating assign/refit heuristic with seeded restarts.

    Each restart draws from an independent counter-based stream and restarts
    merge by (cost, assignment lexicographic), so the result does not depend
    on the order in which restarts run.  Every restart's k initial flats are
    each fitted through r+1 records drawn from its stream, all restarts'
    together in one stacked fit.  All restarts share one copy of the record
    arrays and keep their flats as arrays; only the winner's flats become
    :class:`AffineFlat` objects.  Assignments are compared only between
    restarts of equal cost.
    """
    _check_solver_args(cloud, k, r)
    X = cloud.coords_array()
    W = cloud.weights_array()
    n = len(X)
    m = min(r + 1, n)
    # Row t * k + j holds the records of restart t's initial flat j.
    seeds = np.array([sorted(rng.choice(n, size=m, replace=False))
                      for rng in (make_rng(config.rng_seed, s)
                                  for s in range(config.restarts))
                      for _ in range(k)])
    initial = _fit_flats(*centred_scatter(X[seeds], W[seeds]), r)
    best = None
    for t in range(config.restarts):
        cost, assign, flats = _heuristic_restart(X, W, k, r, config,
                                                 initial[t * k:(t + 1) * k])
        if (best is None or cost < best[0]
                or (cost == best[0] and assign.tolist() < best[1].tolist())):
            best = cost, assign, flats
    cost, assign, flats = best
    return ClusteringSolution(tuple(affine_flat(*f) for f in flats), assign.tolist(), cost)
