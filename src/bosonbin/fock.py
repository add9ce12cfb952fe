"""Enumeration of photon-number configurations over a fixed set of modes.

A configuration is a tuple ``(t_1, ..., t_M)`` of per-mode occupation
numbers with ``sum(t) == N``. The canonical order of the space is ascending
in the base-N positional code ``sum_j t_{j+1} * N**j``, which is injective
for N >= 2. Spaces with a single photon fall back to radix 2 internally so
the order stays total (it is then just ascending photon mode index).

That order is the colex order of the sorted photon mode lists a (rank
``sum_j C(a_j + j, j + 1)``): every t_j <= N, so no digit of the code
carries, and codes compare occupations from the last mode down. One
recursive pass builds the rows of every photon count below N and their
predecessors; the N-photon rows are those rows followed by one last mode,
so they are laid out in one block per last mode, and only the narrow
blocks of the first modes are tabulated, no larger than the rows below N.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Sequence

import numpy as np

from .rng import _check_int

DEFAULT_ENUMERATION_LIMIT = 2_000_000


class CapacityError(RuntimeError):
    """An operation would exceed the configured enumeration or size limit."""


def _validate_dims(modes: int, photons: int) -> None:
    _check_int("modes", modes, 1)
    _check_int("photons", photons, 1)


def space_size(modes: int, photons: int) -> int:
    """Number of configurations of `photons` photons in `modes` modes."""
    _validate_dims(modes, photons)
    return math.comb(modes + photons - 1, photons)


def collision_free_count(modes: int, photons: int) -> int:
    """Number of configurations with every occupation 0 or 1."""
    _validate_dims(modes, photons)
    return math.comb(modes, photons)


def validate_configuration(
    configuration: Sequence[int], modes: int, photons: int, key: str = "configuration"
) -> tuple[int, ...]:
    """Check mode count, nonnegativity and photon total; return as a tuple.
    A refusal names `key`, the field checked, such as "seeds[2]"."""
    t = tuple(int(v) for v in configuration)
    if len(t) != modes:
        raise ValueError(f"{key} has {len(t)} modes, expected {modes}")
    if any(v < 0 for v in t):
        raise ValueError(f"{key} must hold nonnegative occupations, got {t}")
    if sum(t) != photons:
        raise ValueError(f"{key} sums to {sum(t)}, expected {photons}")
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


def parse_configuration(text: str, key: str = "configuration") -> tuple[int, ...]:
    """Parse a comma-separated occupation list like ``"1,0,2"``; a refusal
    names `key`, the field the text came from."""
    parts = [p.strip() for p in text.split(",")]
    try:
        t = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f'{key} must be comma-separated occupations like "1,0,2", got {text!r}') from exc
    if any(v < 0 for v in t):
        raise ValueError(f"{key} must hold nonnegative occupations, got {text!r}")
    return t


class FockSpace:
    """All configurations of a (modes, photons) pair in canonical code order.

    No table spans the space once it outgrows the (N - 1)-photon rows.
    `expansion` keeps full tables for photon counts 0..N - 1 only; the
    configurations are its last degree, laid out in one block per last mode
    (`ColexTables`; only its head, the rows of the first modes, is tabled),
    and each per-configuration array below is built block by block from
    binomials.
    At (60,4) the space keeps 3.6 MB (about 6 bytes per configuration) and
    peaks at 4.6 MB while it is built; one (size, 4) index table is 19 MB.
    The kernel then needs 28 bytes per outcome for one boson seed and 227 KB
    per seed of width at (18,4), 5.7 MB for one scan thread's 25 seeds
    (`distribution.ScanWorkspace`).

    Attributes:
        modes: mode count M.
        photons: photon count N.
        size: number of configurations.
        expansion: `ColexTables` over photon multisets, built with the
            space; its last degree is the space and
            ``expansion.rows(indices)`` gives sorted photon modes.
        codes: ascending list of integer codes (exact Python ints),
            built on first access.
        occupations: uint8 array of shape (size, modes); row i is
            configuration i, built on first access (for CSV output).
        collision_free_indices, factorial_products, fermion_expansion:
            built on first access.
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
        self.expansion = _colex_steps(self.modes, self.photons, distinct=False)

    def __repr__(self) -> str:
        return f"FockSpace(modes={self.modes}, photons={self.photons}, size={self.size})"

    def configuration(self, index: int) -> tuple[int, ...]:
        return unrank(self.modes, self.photons, index)

    def _degree_blocks(self, k: int) -> list[tuple[int, int, int]]:
        """(start, count, below) of each last mode of the k-photon rows (`_last_mode_blocks`)."""
        below, starts = _last_mode_blocks(self.modes, k, distinct=False)
        return [(starts[m], starts[m + 1] - starts[m], below[m]) for m in range(self.modes)]

    @cached_property
    def occupations(self) -> np.ndarray:
        occ = np.zeros((1, self.modes), dtype=np.uint8)  # the empty row
        for k in range(1, self.photons + 1):
            prev, occ = occ, np.empty((space_size(self.modes, k), self.modes), dtype=np.uint8)
            for m, (start, count, _) in enumerate(self._degree_blocks(k)):
                occ[start : start + count] = prev[:count]
                occ[start : start + count, m] += 1
        return occ

    def index_of(self, configuration: Sequence[int]) -> int:
        t = validate_configuration(configuration, self.modes, self.photons)
        combo = [m for m, count in enumerate(t) for _ in range(count)]
        return sum(math.comb(a + j, j + 1) for j, a in enumerate(combo))

    @cached_property
    def codes(self) -> list[int]:
        radix = max(self.photons, 2)
        codes = [0]  # the empty row
        for k in range(1, self.photons + 1):
            blocks = enumerate(self._degree_blocks(k))
            codes = [c + radix**m for m, (_, count, _) in blocks for c in codes[:count]]
        return codes

    @cached_property
    def collision_free_indices(self) -> np.ndarray:
        # the collision-free rows that end in m are the first C(m, k - 1)
        # collision-free (k - 1)-photon rows, every mode of them below m
        cf = np.zeros(1, dtype=np.intp)
        for k in range(1, self.photons + 1):
            blocks = enumerate(self._degree_blocks(k))
            cf = np.concatenate([start + cf[: math.comb(m, k - 1)] for m, (start, _, _) in blocks])
        return cf

    @cached_property
    def factorial_products(self) -> np.ndarray:
        """prod_j t_j! per configuration, as float64."""
        # A row that ends in m whose prefix row also ends in m (index >= below)
        # makes a run one longer: the product gains the run length, exact in
        # float64 up to 18 photons.
        out, run = np.ones(1), np.ones(1)  # the empty row
        for k in range(1, self.photons + 1):
            prev, prev_run = out, run
            out, run = np.empty(space_size(self.modes, k)), np.empty(space_size(self.modes, k))
            for start, count, below in self._degree_blocks(k):
                rows = slice(start, start + count)
                run[rows] = 1.0
                np.add(prev_run[below:count], 1.0, out=run[start + below : start + count])
                np.multiply(prev[:count], run[rows], out=out[rows])
        return out

    @cached_property
    def fermion_expansion(self) -> "ColexTables":
        """`ColexTables` over sets of distinct modes; its last degree is the
        collision-free configurations in the order of collision_free_indices."""
        return _colex_steps(self.modes, self.photons, distinct=True)


@dataclass(frozen=True, eq=False)
class ExpansionStep:
    """Degree k of the expansion of a product of linear forms, k < N, or the
    first rows of degree N (`ColexTables.head`).

    Attributes:
        weights: (size_k, k) sorted photon modes of each degree-k row, with
            M (the zero weight) wherever a position repeats the mode of the
            position before it; so each distinct mode counts once.
        predecessors: (size_k, k) degree-(k - 1) row of the same modes with
            sorted position p removed.

    Both tables are column-major, so the kernel gathers with contiguous
    index columns: `np.take` copies a strided one on every call.
    """

    weights: np.ndarray
    predecessors: np.ndarray


@dataclass(frozen=True, eq=False)
class ColexTables:
    """Every sorted N-photon row over `modes` modes (of distinct modes for
    fermions) in colex order, as the expansion kernel reads them.

    Degrees 0..N - 1 are full tables (`steps`); degree N has none. Colex
    order sorts rows by their last mode first, so the degree-N rows that
    end in mode m are rows starts[m]:starts[m + 1], and row starts[m] + i is
    the degree-(N - 1) row i followed by m. Those prefix rows are the ones
    with every mode <= m (< m over sets); the first below[m] of them have
    every mode < m. The blocks of the first modes are narrow (one row for
    the first mode with any), and building them one by one would be mostly
    numpy call overhead, so they are tabled together as the `head`, in no
    more entries than the degree-(N - 1) table. No table is larger, so none
    spans a space larger than that. The rest of the last degree reads the
    degree-(N - 1) step: its weights, which are a prefix row's weights in
    every block, and its predecessors, offset to the rows that end in m.

    Attributes:
        modes: mode count M.
        steps: `ExpansionStep` of degrees 0..N - 1; degree 0 is the one
            empty row.
        head: `ExpansionStep` of the degree-N rows before starts[m], for
            the largest m with starts[m] <= size_{N-1} (N - 1) / N, so its
            gathers are no wider than those of degree N - 1 (at (18,4), 715
            of 5,985 rows, modes 0-9).
        below: below[m], m = 0..M, is the number of degree-(N - 1) rows with
            every mode < m; the degree-(N - 1) rows that end in m are rows
            below[m]:below[m + 1].
        starts: first degree-N row of each last mode, then the row count.
    """

    modes: int
    steps: tuple[ExpansionStep, ...]
    head: ExpansionStep
    below: tuple[int, ...]
    starts: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.starts[-1]

    @cached_property
    def blocks(self) -> list[tuple[int, int, int, int, list[np.ndarray]]]:
        """(m, start, stop, below[m], predecessor columns) of each last mode m
        with rows, the degree-(N - 1) predecessor columns cut to the block's
        prefix rows once, so the kernel slices none per call."""
        pred = self.steps[-1].predecessors
        blocks = []
        for m in range(self.modes):
            start, stop = self.starts[m], self.starts[m + 1]
            if stop > start and start >= len(self.head.weights):
                blocks.append((m, start, stop, self.below[m], list(pred[: stop - start].T)))
        return blocks

    def rows(self, indices: Sequence[int] | np.ndarray | None = None) -> np.ndarray:
        """(len(indices), N) sorted photon modes of the given degree-N rows,
        all of them if None."""
        index = np.arange(self.size) if indices is None else np.asarray(indices, dtype=np.intp)
        if index.size and not (index.min() >= 0 and index.max() < self.size):
            raise IndexError(f"row indices outside 0..{self.size - 1}")
        last = np.searchsorted(self.starts, index, side="right") - 1
        rows = np.column_stack([self.steps[-1].weights[index - np.take(self.starts, last)], last])
        for p in range(1, rows.shape[1] - 1):  # a zero weight repeats the mode before it
            np.copyto(rows[:, p], rows[:, p - 1], where=rows[:, p] == self.modes)
        return rows


def _last_mode_blocks(modes: int, k: int, distinct: bool) -> tuple[list[int], list[int]]:
    """below and starts of the k-photon rows in colex order, k >= 1: below[m]
    counts the (k - 1)-photon rows with every mode < m, and the k-photon rows
    that end in m start at starts[m]; they are the first below[m + 1] (over
    multisets) or below[m] (over sets) (k - 1)-photon rows, each followed by m."""
    below = [math.comb(m if distinct else max(m + k - 2, 0), k - 1) for m in range(modes + 1)]
    return below, list(accumulate(below[:-1] if distinct else below[1:], initial=0))


def _next_degree(
    prev: np.ndarray, prev_pred: np.ndarray, below: list[int], starts: list[int], stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the degree after `prev` that end in a mode below `stop`
    and their predecessors (see `_colex_steps`), each (rows, k) and
    column-major."""
    rows = np.empty((starts[stop], prev.shape[1] + 1), dtype=np.intp, order="F")
    pred = np.empty_like(rows)
    for m in range(stop):
        block = slice(starts[m], starts[m + 1])
        count = block.stop - block.start
        rows[block, :-1] = prev[:count]
        rows[block, -1] = m
        np.add(prev_pred[:count], below[m], out=pred[block, :-1])
        pred[block, -1] = np.arange(count)
    return rows, pred


def _colex_steps(modes: int, photons: int, distinct: bool) -> ColexTables:
    """Tables for degrees 0..photons - 1 and the block layout of degree
    `photons`; degree k lists every sorted k-photon row (of distinct modes if
    `distinct`) in colex order.

    The degree-k rows that end in mode m are a prefix of the degree-(k - 1)
    table, each followed by m (`_last_mode_blocks`). Without its last
    position such a row is its prefix row i. Without position p < k - 1 it
    is the degree-(k - 2) row pred[i, p] followed by m, which sits below[m]
    rows further down the degree-(k - 1) table. Once every table is built,
    each position that repeats the one before it weighs M, the zero weight
    (`ExpansionStep`). The kernel builds the last degree the same way, one
    last mode at a time past the `head`, so it needs no full table of it.
    """
    rows = pred = np.zeros((1, 0), dtype=np.intp)  # degree 0 is the empty row
    steps = [(rows, pred)]
    for k in range(1, photons):
        below, starts = _last_mode_blocks(modes, k, distinct)
        rows, pred = _next_degree(rows, pred, below, starts, modes)
        steps.append((rows, pred))
    below, starts = _last_mode_blocks(modes, photons, distinct)
    # the first last modes, whose blocks are narrow, as one table no larger than degree N - 1's
    head = _next_degree(rows, pred, below, starts, bisect_right(starts, rows.size // photons) - 1)
    _check_colex(rows, modes, distinct)
    for weights, _ in (*steps, head):  # in place: every degree is built, so no row is read again
        np.copyto(weights[:, 1:], modes, where=weights[:, 1:] == weights[:, :-1])
    tables = ColexTables(
        modes, tuple(ExpansionStep(*step) for step in steps), ExpansionStep(*head), tuple(below), tuple(starts)
    )
    _check_predecessors(tables)
    return tables


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
    in_range = rows.size == 0 or (rows[:, 0].min() >= 0 and rows[:, -1].max() < modes)
    if not (size == expected and in_range and sorted_rows and after.all()):
        raise RuntimeError("colex tables do not list every sorted row once, in colex order")


def _check_predecessors(tables: ColexTables) -> None:
    """Raise unless every term of the expansion weighs a mode or the zero
    weight M and reads a row of the degree below it. The kernel gathers
    with clipped indices, which would read a wrong row instead of failing.

    Degree-N block m reads the degree-(N - 1) predecessors offset to the
    rows that end in m, so each prefix row's predecessors must also stay
    below the count of those rows in the first block that reads the row.
    """
    prev_rows = 0  # degree 0 reads no row
    for step in (*tables.steps, tables.head):
        weights, pred = step.weights, step.predecessors
        if pred.size and not (
            weights.min() >= 0 and weights.max() <= tables.modes and pred.min() >= 0 and pred.max() < prev_rows
        ):
            raise RuntimeError(f"degree-{pred.shape[1]} terms outside the modes or rows 0..{prev_rows - 1}")
        prev_rows = len(pred)
    pred = tables.steps[-1].predecessors
    first = np.searchsorted(np.diff(tables.starts), np.arange(len(pred)), side="right")
    room = np.append(np.diff(tables.below), np.iinfo(np.intp).max)[first]  # a row no block reads
    if not ((pred >= 0) & (pred < room[:, None])).all():
        raise RuntimeError(f"degree-{pred.shape[1] + 1} predecessors outside the rows of their last mode")


def enumerate_configurations(
    modes: int, photons: int, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> FockSpace:
    """Enumerate the configuration space, refusing sizes above `limit`."""
    return FockSpace(modes, photons, limit=limit)
