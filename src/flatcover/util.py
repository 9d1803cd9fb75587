"""Small shared helpers: guards, RNG construction, exact square roots."""

from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np

# Default relative tolerance for float comparisons, downstream of
# d^3-conditioned eigenproblems.
DEFAULT_REL_TOL = 1e-9

# Cap on the nodes an exact search (clustering partitions, cover slots) may
# visit; exceeding it raises GuardLimitError, never degrades to a heuristic.
DEFAULT_NODE_GUARD = 10**7

# Cap on n^d for candidate-hyperplane generation.
DEFAULT_CANDIDATE_GUARD = 10**7

GUARD_ENV_VAR = "FLATCOVER_GUARD"


def resolve_guard(default: int, override: int | None = None) -> int:
    """Effective enumeration cap: explicit override > env var > default."""
    if override is not None:
        return int(override)
    env = os.environ.get(GUARD_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                f"{GUARD_ENV_VAR} must be an integer, got {env!r}") from None
    return default


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator; (seed, stream) fully determines the stream.

    Independent streams let concurrent workers draw reproducibly regardless
    of scheduling.
    """
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(seq))


def fraction_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        raise ValueError("square root of negative rational")
    num = _isqrt_exact(x.numerator)
    if num is None:
        return None
    den = _isqrt_exact(x.denominator)
    if den is None:
        return None
    return Fraction(num, den)


def _isqrt_exact(n: int) -> int | None:
    r = math.isqrt(n)
    return r if r * r == n else None
