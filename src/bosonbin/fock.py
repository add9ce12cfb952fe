"""Enumeration of photon-number configurations over a fixed set of modes.

A configuration is a tuple ``(t_1, ..., t_M)`` of per-mode occupation
numbers with ``sum(t) == N``. The canonical order of the space is ascending
in the base-N positional code ``sum_j t_{j+1} * N**j``, which is injective
for N >= 2. Spaces with a single photon fall back to radix 2 internally so
the order stays total (it is then just ascending photon mode index).

That order is the colex order of the sorted photon mode lists a (rank
``sum_j C(a_j + j, j + 1)``): every t_j <= N, so no digit of the code
carries, and codes compare occupations from the last mode down. One
recursive pass builds the rows of every photon count and their predecessors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Sequence

import numpy as np

DEFAULT_ENUMERATION_LIMIT = 2_000_000


class CapacityError(RuntimeError):
    """An operation would exceed the configured enumeration or size limit."""


def _validate_dims(modes: int, photons: int) -> None:
    if not isinstance(modes, (int, np.integer)) or not isinstance(photons, (int, np.integer)):
        raise ValueError("modes and photons must be integers")
    if modes < 1:
        raise ValueError(f"modes must be >= 1, got {modes}")
    if photons < 1:
        raise ValueError(f"photons must be >= 1, got {photons}")


def space_size(modes: int, photons: int) -> int:
    """Number of configurations of `photons` photons in `modes` modes."""
    _validate_dims(modes, photons)
    return math.comb(modes + photons - 1, photons)


def collision_free_count(modes: int, photons: int) -> int:
    """Number of configurations with every occupation 0 or 1."""
    _validate_dims(modes, photons)
    return math.comb(modes, photons)


def validate_configuration(configuration: Sequence[int], modes: int, photons: int) -> tuple[int, ...]:
    """Check mode count, nonnegativity and photon total; return as a tuple."""
    t = tuple(int(v) for v in configuration)
    if len(t) != modes:
        raise ValueError(f"configuration has {len(t)} modes, expected {modes}")
    if any(v < 0 for v in t):
        raise ValueError(f"occupations must be nonnegative, got {t}")
    if sum(t) != photons:
        raise ValueError(f"configuration sums to {sum(t)}, expected {photons}")
    return t


def is_collision_free(configuration: Sequence[int]) -> bool:
    return all(v <= 1 for v in configuration)


def integer_code(configuration: Sequence[int], photons: int | None = None) -> int:
    """Base-N positional code of a configuration, N being the photon total.

    The code is ``sum_j t[j] * N**j`` evaluated with exact integers. It is
    injective on the configuration space only when N >= 2, so smaller photon
    totals are rejected.
    """
    t = [int(v) for v in configuration]
    if any(v < 0 for v in t):
        raise ValueError("occupations must be nonnegative")
    total = sum(t)
    if photons is not None and total != photons:
        raise ValueError(f"configuration sums to {total}, expected {photons}")
    if total < 2:
        raise ValueError("integer codes need at least 2 photons to be injective")
    code = 0
    power = 1
    for v in t:
        code += v * power
        power *= total
    return code


def unrank(modes: int, photons: int, rank: int) -> tuple[int, ...]:
    """Configuration at `rank` of the canonical order; the inverse of
    `FockSpace.index_of`, without enumerating the space.

    The rank of sorted modes a is sum_j C(a_j + j, j + 1) with a_j + j
    strictly increasing, so from the last position down each a_j + j is the
    largest c with C(c, j + 1) <= the rank left (Knuth, TAOCP 4A 7.2.1.3).
    """
    size = space_size(modes, photons)
    if not 0 <= rank < size:
        raise IndexError(f"rank {rank} out of range for size {size}")
    occupation = [0] * modes
    for j in range(photons - 1, -1, -1):
        lo, hi = j, modes - 1 + j
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if math.comb(mid, j + 1) <= rank:
                lo = mid
            else:
                hi = mid - 1
        rank -= math.comb(lo, j + 1)
        occupation[lo - j] += 1
    return tuple(occupation)


def format_configuration(configuration: Sequence[int]) -> str:
    return ",".join(str(int(v)) for v in configuration)


def parse_configuration(text: str) -> tuple[int, ...]:
    """Parse a comma-separated occupation list like ``"1,0,2"``."""
    parts = [p.strip() for p in text.split(",")]
    try:
        t = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"malformed configuration {text!r}") from exc
    if any(v < 0 for v in t):
        raise ValueError(f"occupations must be nonnegative, got {text!r}")
    return t


class FockSpace:
    """All configurations of a (modes, photons) pair in canonical code order.

    Attributes:
        modes: mode count M.
        photons: photon count N.
        size: number of configurations.
        mode_combos: intp array of shape (size, photons); row i lists the
            photon mode indices of configuration i, ascending.
        expansion_steps: degree 1..N tables over photon multisets, built
            with the space; degree N's rows are mode_combos.
        codes: ascending list of integer codes (exact Python ints),
            built on first access.
        occupations: uint8 array of shape (size, modes); row i is
            configuration i, built on first access.
    """

    def __init__(self, modes: int, photons: int, limit: int = DEFAULT_ENUMERATION_LIMIT):
        _validate_dims(modes, photons)
        size = space_size(modes, photons)
        if size > limit:
            raise CapacityError(
                f"space of ({modes} modes, {photons} photons) has {size} "
                f"configurations, exceeding the limit of {limit}"
            )
        self.modes = int(modes)
        self.photons = int(photons)
        self.size = size
        self.expansion_steps = _colex_steps(self.modes, self.photons, distinct=False)
        self.mode_combos = self.expansion_steps[-1].modes

    def __repr__(self) -> str:
        return f"FockSpace(modes={self.modes}, photons={self.photons}, size={self.size})"

    def configuration(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} out of range for size {self.size}")
        return tuple(np.bincount(self.mode_combos[index], minlength=self.modes).tolist())

    @cached_property
    def occupations(self) -> np.ndarray:
        occ = np.zeros((self.size, self.modes), dtype=np.uint8)
        np.add.at(occ, (np.arange(self.size)[:, None], self.mode_combos), 1)
        return occ

    def index_of(self, configuration: Sequence[int]) -> int:
        t = validate_configuration(configuration, self.modes, self.photons)
        combo = [m for m, count in enumerate(t) for _ in range(count)]
        return sum(math.comb(a + j, j + 1) for j, a in enumerate(combo))

    @cached_property
    def codes(self) -> list[int]:
        radix = max(self.photons, 2)
        powers = [radix**j for j in range(self.modes)]
        return [sum(map(powers.__getitem__, row)) for row in zip(*self.mode_combos.T.tolist())]

    @cached_property
    def collision_free_indices(self) -> np.ndarray:
        # sorted rows repeat a mode only in adjacent positions
        combos = self.mode_combos
        return np.flatnonzero((combos[:, 1:] != combos[:, :-1]).all(axis=1))

    @cached_property
    def factorial_products(self) -> np.ndarray:
        """prod_j t_j! per configuration, as float64."""
        # The photon at sorted position p is the run-th of its mode, so the
        # product of run lengths is prod_j t_j!, exact in float64 up to 18
        # photons. No (size, modes) temporary is made: at (60,4) that would
        # be the largest array of the process.
        combos = self.mode_combos
        run = np.ones(self.size)
        out = np.ones(self.size)
        for p in range(1, self.photons):
            run = np.where(combos[:, p] == combos[:, p - 1], run + 1.0, 1.0)
            out *= run
        return out

    @cached_property
    def fermion_steps(self) -> tuple["ExpansionStep", ...]:
        """Degree 1..N tables over sets of distinct modes; degree N is the
        collision-free configurations in the order of collision_free_indices."""
        return _colex_steps(self.modes, self.photons, distinct=True)


@dataclass(frozen=True, eq=False)
class ExpansionStep:
    """Degree k of the expansion of a product of linear forms, k >= 1.

    Attributes:
        modes: (size_k, k) sorted photon modes of each degree-k row.
        predecessors: (size_k, k) degree k - 1 row of the same modes with
            sorted position p removed. Where position p repeats the mode of
            position p - 1 it is size_{k-1}, one past the last row, where
            the kernel keeps a row of zeros; so each distinct mode counts once.

    Both tables are column-major, so the kernel gathers with contiguous
    index columns: `np.take` copies a strided one on every call.
    """

    modes: np.ndarray
    predecessors: np.ndarray


def _colex_steps(modes: int, photons: int, distinct: bool) -> tuple[ExpansionStep, ...]:
    """Tables for degrees 1..photons; degree k lists every sorted k-photon row
    (of distinct modes if `distinct`) in colex order.

    Colex order sorts rows by their last mode first, so the degree-k rows
    that end in mode m are a prefix of the degree-(k - 1) table (its rows
    with every mode <= m, or < m if distinct), each followed by m. Without
    its last position such a row is its prefix row i. Without position
    p < k - 1 it is the degree-(k - 2) row raw[i, p] followed by m, which
    sits below[m] rows further down the degree-(k - 1) table, below[m] being
    the number of degree-(k - 1) rows with every mode < m.
    """
    rows = np.arange(modes, dtype=np.intp)[:, None]
    raw = np.zeros((modes, 1), dtype=np.intp)  # degree 0 is the empty row
    steps = [ExpansionStep(rows, raw)]
    for k in range(2, photons + 1):
        below = [math.comb(m if distinct else m + k - 2, k - 1) for m in range(modes + 1)]
        counts = below[:-1] if distinct else below[1:]
        starts = list(accumulate(counts, initial=0))
        prev, prev_raw = rows, raw
        rows = np.empty((starts[-1], k), dtype=np.intp, order="F")
        raw = np.empty_like(rows)
        for m, count in enumerate(counts):
            block = slice(starts[m], starts[m + 1])
            rows[block, :-1] = prev[:count]
            rows[block, -1] = m
            np.add(prev_raw[:count], below[m], out=raw[block, :-1])
            raw[block, -1] = np.arange(count)
        pred = raw
        if not distinct:  # a position that repeats the one before it takes the zero row
            pred = raw.copy(order="F")
            np.copyto(pred[:, 1:], len(prev), where=rows[:, 1:] == rows[:, :-1])
        steps.append(ExpansionStep(rows, pred))
    _check_colex(rows, modes, distinct)
    _check_predecessors(steps)
    return tuple(steps)


def _check_colex(rows: np.ndarray, modes: int, distinct: bool) -> None:
    """Raise unless `rows` is every sorted row over range(modes) once, in colex
    order: as many sorted rows as exist, each strictly after the one before."""
    size, k = rows.shape
    expected = math.comb(modes, k) if distinct else math.comb(modes + k - 1, k)
    in_order = np.greater if distinct else np.greater_equal
    sorted_rows = all(in_order(rows[:, j], rows[:, j - 1]).all() for j in range(1, k))
    after = np.zeros(max(size - 1, 0), dtype=bool)  # row r + 1 after row r, on the columns so far
    for lo, hi in zip(rows[:-1].T, rows[1:].T):
        after = (hi > lo) | ((hi == lo) & after)
    in_range = size == 0 or (rows[:, 0].min() >= 0 and rows[:, -1].max() < modes)
    if not (size == expected and in_range and sorted_rows and after.all()):
        raise RuntimeError("colex tables do not list every sorted row once, in colex order")


def _check_predecessors(steps: Sequence[ExpansionStep]) -> None:
    """Raise unless every degree-k predecessor is a degree-(k - 1) row or the
    zero row one past them. The kernel gathers with clipped indices, which
    would read a wrong row instead of failing."""
    prev_rows = 1  # degree 0 is the empty row
    for step in steps:
        pred = step.predecessors
        if pred.size and not (pred.min() >= 0 and pred.max() <= prev_rows):
            raise RuntimeError(f"degree-{pred.shape[1]} predecessors outside rows 0..{prev_rows}")
        prev_rows = len(step.modes)


def enumerate_configurations(
    modes: int, photons: int, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> FockSpace:
    """Enumerate the configuration space, refusing sizes above `limit`."""
    return FockSpace(modes, photons, limit=limit)
