"""Random-number policy: counter-based Philox generators, split by index.

Every stochastic operation in the package takes an explicit
``numpy.random.Generator``. Generators are always built here so the whole
package draws from one seedable, splittable family and results never depend
on global state or on thread scheduling.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

import numpy as np


def generator(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """Build the package-wide generator (Philox) from a seed.

    Args:
        seed: nonnegative integer or an existing ``SeedSequence``.

    Returns:
        A ``numpy.random.Generator`` backed by the Philox bit generator.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    if isinstance(seed, (bool, float)) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def split(seed: int, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from one master seed.

    Children are spawned through ``SeedSequence`` so child ``i`` depends only
    on ``(seed, i)``; work distributed over threads stays reproducible as
    long as results are written back by index.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if isinstance(seed, (bool, float)) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    children = np.random.SeedSequence(int(seed)).spawn(count)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


def _check_int(key: str, value: Any, least: int) -> None:
    """Refuse a seed, thread count or limit that is not an integer >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{key} must be an integer >= {least}, got {value!r}")


def _thread_map(fn: Callable[[int], None], count: int, threads: int) -> None:
    """fn(i) for each index; results must be written by index so thread
    scheduling cannot reorder anything observable."""
    if threads <= 1:
        for i in range(count):
            fn(i)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(fn, range(count)))
