"""Enumeration of photon-number configurations over a fixed set of modes.

A configuration is a tuple ``(t_1, ..., t_M)`` of per-mode occupation
numbers with ``sum(t) == N``. The canonical order of the space is ascending
in the base-N positional code ``sum_j t_{j+1} * N**j``, which is injective
for N >= 2. Spaces with a single photon fall back to radix 2 internally so
the order stays total (it is then just ascending photon mode index).

That order is computed as the colex rank of the sorted photon mode list a,
``sum_j C(a_j + j, j + 1)``. The two agree: every t_j <= N and sum(t) = N,
so no digit of the code carries, and codes compare occupations from the
last mode down, which is colex order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, combinations_with_replacement
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
        codes: ascending list of integer codes (exact Python ints),
            built on first access.
        occupations: uint8 array of shape (size, modes); row i is
            configuration i.
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
        # row i lists the i-th configuration's photon mode indices, ascending
        self.mode_combos = _colex_rows(self.modes, self.photons, distinct=False)
        occ = np.zeros((size, self.modes), dtype=np.uint8)
        np.add.at(occ, (np.arange(size)[:, None], self.mode_combos), 1)
        self.occupations = occ

    def __repr__(self) -> str:
        return f"FockSpace(modes={self.modes}, photons={self.photons}, size={self.size})"

    def __len__(self) -> int:
        return self.size

    def configuration(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} out of range for size {self.size}")
        return tuple(int(v) for v in self.occupations[index])

    @cached_property
    def configurations(self) -> list[tuple[int, ...]]:
        """All configurations as tuples; materialized on first access."""
        return [tuple(int(v) for v in row) for row in self.occupations]

    def index_of(self, configuration: Sequence[int]) -> int:
        t = validate_configuration(configuration, self.modes, self.photons)
        combo = np.repeat(np.arange(self.modes), t)[None]
        return int(_colex_terms(combo, distinct=False).sum())

    @cached_property
    def codes(self) -> list[int]:
        radix = max(self.photons, 2)
        powers = [radix**j for j in range(self.modes)]
        return [sum(map(powers.__getitem__, row)) for row in zip(*self.mode_combos.T.tolist())]

    @cached_property
    def collision_free_indices(self) -> np.ndarray:
        return np.nonzero((self.occupations <= 1).all(axis=1))[0]

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
    def expansion_steps(self) -> tuple["ExpansionStep", ...]:
        """Degree 1..N tables over photon multisets; degree N is mode_combos."""
        return _expansion_steps(self.modes, self.mode_combos, distinct=False)

    @cached_property
    def fermion_steps(self) -> tuple["ExpansionStep", ...]:
        """Degree 1..N tables over sets of distinct modes; degree N is the
        collision-free configurations in the order of collision_free_indices."""
        return _expansion_steps(self.modes, self.mode_combos[self.collision_free_indices], distinct=True)


@dataclass(frozen=True, eq=False)
class ExpansionStep:
    """Degree k of the expansion of a product of linear forms, k >= 1.

    Attributes:
        modes: (size_k, k) sorted photon modes of each degree-k row.
        predecessors: (size_k, k) degree k - 1 row of the same modes with
            sorted position p removed. Where position p repeats the mode of
            position p - 1 it is size_{k-1}, one past the last row, where
            the kernel keeps a row of zeros; so each distinct mode counts once.
    """

    modes: np.ndarray
    predecessors: np.ndarray


def _colex_terms(rows: np.ndarray, distinct: bool) -> np.ndarray:
    """Per-position terms of the colex rank of sorted rows: C(a_j + j, j + 1),
    or C(a_j, j + 1) over distinct modes; a row's rank is their sum."""
    k = rows.shape[1]
    j = np.arange(k)
    shifted = rows if distinct else rows + j
    top = int(shifted.max(initial=0)) + 1
    binom = np.array([[math.comb(n, i + 1) for i in range(k)] for n in range(top)], dtype=np.intp)
    return binom[shifted, j]


def _colex_rows(modes: int, k: int, distinct: bool) -> np.ndarray:
    """Every sorted k-photon row (of distinct modes if `distinct`); row r is
    the one of colex rank r."""
    choose = combinations if distinct else combinations_with_replacement
    rows = np.fromiter(chain.from_iterable(choose(range(modes), k)), dtype=np.intp).reshape(-1, k)
    rank = _colex_terms(rows, distinct).sum(axis=1)
    if not np.array_equal(np.bincount(rank, minlength=len(rows)), np.ones(len(rows))):
        raise RuntimeError("colex rank is not a bijection onto the rows")
    table = np.empty_like(rows)
    table[rank] = rows
    return table


def _expansion_steps(modes: int, final: np.ndarray, distinct: bool) -> tuple[ExpansionStep, ...]:
    """Tables for every degree up to final's, which must be in colex order;
    the intermediate degrees list every k-photon row in that order."""
    photons = final.shape[1]
    steps = []
    zero_row = 1
    for k in range(1, photons + 1):
        table = final if k == photons else _colex_rows(modes, k, distinct)
        # rank without position p: the terms before p, plus those after p
        # moved down one position
        terms = _colex_terms(table, distinct)
        pred = np.cumsum(terms, axis=1) - terms
        pred[:, :-1] += np.cumsum(_colex_terms(table[:, 1:], distinct)[:, ::-1], axis=1)[:, ::-1]
        pred[:, 1:][table[:, 1:] == table[:, :-1]] = zero_row
        steps.append(ExpansionStep(table, pred))
        zero_row = len(table)
    return tuple(steps)


def enumerate_configurations(
    modes: int, photons: int, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> FockSpace:
    """Enumerate the configuration space, refusing sizes above `limit`."""
    return FockSpace(modes, photons, limit=limit)


@dataclass(frozen=True)
class SeedDraw:
    """A uniformly drawn input configuration plus where it came from."""

    configuration: tuple[int, ...]
    index: int
    provenance: str


def random_seed(
    space: FockSpace, rng: np.random.Generator, collision_free_only: bool = False
) -> SeedDraw:
    """Draw a configuration uniformly from the space (or its collision-free part)."""
    if collision_free_only:
        pool = space.collision_free_indices
        if len(pool) == 0:
            raise ValueError(
                f"no collision-free configurations with {space.modes} modes "
                f"and {space.photons} photons"
            )
        index = int(pool[int(rng.integers(len(pool)))])
    else:
        index = int(rng.integers(space.size))
    return SeedDraw(
        configuration=space.configuration(index),
        index=index,
        provenance=type(rng.bit_generator).__name__.lower(),
    )
