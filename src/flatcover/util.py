"""Small shared helpers: guards and RNG construction."""

from __future__ import annotations

import os

import numpy as np

from .geometry import parse_int

# Cap on the nodes an exact search (clustering partitions, cover slots) may
# visit; exceeding it raises GuardLimitError, never degrades to a heuristic.
DEFAULT_NODE_GUARD = 10**7

# Cap on the coordinates a reduction may build (d^3*k' for reduce-ds).  Each
# is an exact big integer; 432,000 of them at d=60 took 288 MB.
DEFAULT_COORD_GUARD = 5 * 10**5

GUARD_ENV_VAR = "FLATCOVER_GUARD"


def resolve_guard(default: int, override: int | None = None) -> int:
    """Effective enumeration cap: explicit override > env var > default.

    A negative cap, from either source, is a usage error (ValueError).
    """
    if override is not None:
        cap, source = int(override), "--guard"
    else:
        env = os.environ.get(GUARD_ENV_VAR)
        if env is None:
            return default
        cap, source = parse_int(env, GUARD_ENV_VAR), GUARD_ENV_VAR
    if cap < 0:
        raise ValueError(f"{source} must be at least 0, got {cap}")
    return cap


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator; (seed, stream) fully determines the stream.

    Independent streams let concurrent workers draw reproducibly regardless
    of scheduling.
    """
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(seq))

