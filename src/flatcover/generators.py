"""Instance generators: planted and random clouds, structured colored graphs."""

from __future__ import annotations

import itertools
import math

from .geometry import MODE_FLOAT, MODE_RATIONAL, WeightedPointCloud
from .reductions import ColoredGraph
from .util import make_rng

PLANTED_LINE_SPACING = 1.0  # distance between neighbouring planted lines
RANDOM_CLOUD_SCALE = 5.0  # half-width of the cube random_cloud samples


def _check_size(n_points: int, dim: int) -> None:
    if dim < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    if n_points < 1:
        raise ValueError(f"need at least one point, got n = {n_points}")


def planted_lines_cloud(n_points: int, k_lines: int, noise: float, seed: int,
                        *, rotate: bool = True):
    """Points near k parallel lines PLANTED_LINE_SPACING apart, optionally rotated.

    Points are stratified along each line over a span of 10x the spacing so
    that every planted line is well determined by its own points.  Returns
    (cloud, planted_labels, planted_lines) where the lines are given as
    (point, direction) pairs in the rotated frame.
    """
    _check_size(n_points, 2)
    if k_lines < 1:
        raise ValueError(f"need at least one planted line, got k = {k_lines}")
    rng = make_rng(seed)
    span = 10.0 * PLANTED_LINE_SPACING
    per_line = -(-n_points // k_lines)
    pts = []
    labels = []
    slot_of = [0] * k_lines
    for i in range(n_points):
        line = i % k_lines
        slot = slot_of[line]
        slot_of[line] += 1
        x = span * (slot + rng.uniform(0.0, 1.0)) / per_line
        y = line * PLANTED_LINE_SPACING + rng.normal() * noise
        pts.append((x, y))
        labels.append(line)
    theta = rng.uniform(0.0, math.pi) if rotate else 0.0
    c, s = math.cos(theta), math.sin(theta)
    rot = [(c * x - s * y, s * x + c * y) for x, y in pts]
    lines = []
    for line in range(k_lines):
        p0 = (-s * line * PLANTED_LINE_SPACING, c * line * PLANTED_LINE_SPACING)
        lines.append((p0, (c, s)))
    cloud = WeightedPointCloud.create(rot, MODE_FLOAT)
    return cloud, tuple(labels), lines


def random_cloud(n_points: int, dim: int, seed: int, *,
                 max_mult: int = 1) -> WeightedPointCloud:
    _check_size(n_points, dim)
    if max_mult < 1:
        raise ValueError(f"max_mult must be at least 1, got {max_mult}")
    rng = make_rng(seed)
    pts = rng.uniform(-RANDOM_CLOUD_SCALE, RANDOM_CLOUD_SCALE, size=(n_points, dim))
    mults = rng.integers(1, max_mult + 1, size=n_points) if max_mult > 1 else None
    return WeightedPointCloud.create(pts, MODE_FLOAT, mults)


def random_exact_cloud(n_points: int, dim: int, seed: int, *,
                       coord_range: int = 8) -> WeightedPointCloud:
    """Distinct small-integer positions, for exact cover experiments."""
    _check_size(n_points, dim)
    if n_points > (2 * coord_range + 1) ** dim:
        raise ValueError(f"only {(2 * coord_range + 1) ** dim} distinct positions exist "
                         f"in [-{coord_range}, {coord_range}]^{dim}, asked for {n_points}")
    rng = make_rng(seed)
    seen = set()
    while len(seen) < n_points:
        p = tuple(int(c) for c in rng.integers(-coord_range, coord_range + 1, size=dim))
        seen.add(p)
    return WeightedPointCloud.create(sorted(seen), MODE_RATIONAL)


def matching_color_graph(ell: int, nu: int) -> ColoredGraph:
    """Color classes paired up; w_j of class 2t matches w_j of class 2t+1 (q = 1)."""
    if ell % 2:
        raise ValueError("matching graph needs an even number of classes")
    colors = tuple(tuple(range(i * nu, (i + 1) * nu)) for i in range(ell))
    edges = set()
    for t in range(0, ell, 2):
        for j in range(nu):
            edges.add((colors[t][j], colors[t + 1][j]))
    return ColoredGraph(ell * nu, frozenset(edges), colors)


def all_graphs(n: int, *, connected: bool = True, max_degree: int | None = None):
    """Every labeled simple graph on n vertices matching the filters."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = frozenset(pairs[i] for i in range(len(pairs)) if bits >> i & 1)
        g = ColoredGraph(n, edges)
        if max_degree is not None and any(
                d > max_degree for d in g.degree_map().values()):
            continue
        if connected and not _is_connected(g):
            continue
        yield g


def _is_connected(g: ColoredGraph) -> bool:
    if g.n_vertices == 0:
        return True
    seen = {0}
    frontier = [0]
    adj = {v: set() for v in range(g.n_vertices)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    while frontier:
        v = frontier.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return len(seen) == g.n_vertices


def min_dominating_size(g: ColoredGraph, cap: int) -> int | None:
    """Smallest dominating set size up to cap, by brute force."""
    for size in range(0, cap + 1):
        for combo in itertools.combinations(range(g.n_vertices), size):
            if g.is_dominating(combo):
                return size
    return None
