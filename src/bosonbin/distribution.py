"""Exact output distributions of a linear interferometer.

For a seed configuration s and outcome r the scattering submatrix U_{s,r}
repeats column j of the unitary s_j times and row i r_i times. Output
probabilities are |Per(U_{s,r})|^2 / (prod_j s_j! prod_i r_i!) for bosons,
|det(U_{s,r})|^2 for fermions (collision-free only), and
Per(|U_{s,r}|^2) / prod_i r_i! for distinguishable particles.
"""
from __future__ import annotations

import csv
import io as stringio
import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Sequence

import numpy as np

from .fock import (
    DEFAULT_ENUMERATION_LIMIT,
    ColexTables,
    ExpansionStep,
    FockSpace,
    enumerate_configurations,
    format_configuration,
    is_collision_free,
    validate_configuration,
)
from .io import atomic_write_text
from .linalg import _as_matrix, determinant, permanent_ryser, submatrix

NORMALIZATION_GUARD = 1e-6
# Bytes of one scan thread's workspace: what 16 seeds of the (18,4) boson
# kernel took while the last degree had tables. A scan block takes as many
# seeds as fit (`scan_width`), 25 at (18,4), and a block of the class route
# as many as its arrays let fit in half, a quarter left to its mode tables
# (`binning.ClassPlan`): 744 boson seeds at (18,4). Each
# blocked mode of the last degree makes 3 N - 2 numpy calls per block
# whatever the block's width, so narrow blocks of small spaces are mostly
# call overhead.
SCAN_BYTES = 5_703_808


class ParticleStatistics(Enum):
    BOSON = "boson"
    FERMION = "fermion"
    DISTINGUISHABLE = "distinguishable"

    @classmethod
    def from_string(cls, text: "str | ParticleStatistics") -> "ParticleStatistics":
        if isinstance(text, ParticleStatistics):
            return text
        key = str(text).strip().lower()
        aliases = {"b": cls.BOSON, "f": cls.FERMION, "d": cls.DISTINGUISHABLE}
        if key in aliases:
            return aliases[key]
        try:
            return cls(key)
        except ValueError:
            raise ValueError(f"unknown particle statistics {text!r}") from None


class ScanWorkspace:
    """The kernel's buffers for one space and statistics, `width` seeds wide.

    Every block of a scan runs into the same one, on one thread, so the
    kernel's arrays are allocated (and page-faulted) once; a call given none
    makes its own. A block of b seeds expands into C-contiguous (rows, b)
    views and leaves its probabilities in a C-contiguous (b, size) one.

    No buffer holds a (size, N) index table or a gather of the last degree:
    that degree is built one last mode at a time past its head (`_expand`),
    so the two gathers hold every position of the widest tabled degree.
    Each degree's coefficients take just its own rows, because a repeated
    mode weighs the zero weight instead of reading a row of zeros. The
    gathers are spent before a probability is written, so the probabilities
    (8 bytes per outcome and seed) share the first. Per outcome and seed of
    width that leaves the last coefficients (16 bytes, 8 for distinguishable
    particles) and the larger of the probabilities and a gather, plus the
    lower degrees: at (18,4) a boson workspace takes 227 KB per seed of
    width, so one scan thread holds 5.7 MB at its 25 seeds; at (60,4) one
    seed's takes 28 bytes per outcome for bosons, 25 for fermions and 18 for
    distinguishable particles.
    """

    def __init__(self, space: FockSpace, statistics: ParticleStatistics, width: int):
        fermion = statistics is ParticleStatistics.FERMION
        dtype = np.float64 if statistics is ParticleStatistics.DISTINGUISHABLE else np.complex128
        tables = space.fermion_expansion if fermion else space.expansion
        self.coefs, self.gathers = _expansion_buffers(tables, width, dtype, space.size * width)
        # the gathers are spent before a probability is written
        self.probs = self.gathers[0].view(np.float64)[: space.size * width]

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in (*self.coefs, *self.gathers))


def scan_width(space: FockSpace, statistics: ParticleStatistics) -> int:
    """Seeds per block of a scan: as many as a workspace of SCAN_BYTES holds,
    and at least one. (Buffers from np.empty are not touched here, so sizing
    one seed's workspace costs no page faults.)"""
    return max(1, SCAN_BYTES // ScanWorkspace(space, statistics, 1).nbytes)


def _expansion_buffers(tables: ColexTables, width: int, dtype: np.dtype, probs: int = 0) -> tuple:
    """`_expand`'s flat buffers: the coefficients of degrees 1..N, and two
    gathers that hold every position of the widest tabled degree (so also
    every prefix position of the degree-(N - 1) rows); the first also holds
    `probs` float64 values."""
    rows = [len(step.weights) for step in tables.steps[1:]] + [tables.size]
    widest = max(step.weights.size for step in (*tables.steps, tables.head)) * width
    first = max(widest, -(-probs * 8 // np.dtype(dtype).itemsize))
    return [np.empty(r * width, dtype) for r in rows], (np.empty(first, dtype), np.empty(widest, dtype))


def _view(buffer: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """(rows, cols) view of the start of a flat buffer."""
    return buffer[: rows * cols].reshape(rows, cols)


def _view3(buffer: np.ndarray, positions: int, rows: int, cols: int) -> np.ndarray:
    """(positions, rows, cols) view of the start of a flat buffer."""
    return buffer[: positions * rows * cols].reshape(positions, rows, cols)


def _step(
    w: np.ndarray,
    prev: np.ndarray,
    step: ExpansionStep,
    gathers: tuple,
    acc: np.ndarray,
    fermion: bool,
) -> None:
    """acc = the coefficients of a step's rows: each position p takes the
    row of w its weights name times the coefficient of its predecessor (prev)."""
    rows, k = step.weights.shape
    a, b = (_view3(g, k, rows, acc.shape[1]) for g in gathers)
    for p in range(k):
        # the tables are checked once per space (fock._check_predecessors), so no bounds check here
        w.take(step.weights[:, p], axis=0, out=a[p], mode="clip")
        prev.take(step.predecessors[:, p], axis=0, out=b[p], mode="clip")
    if fermion:
        _laplace_signs(a, k)
    _add_products(a, b, acc)


def _laplace_signs(a: np.ndarray, k: int) -> None:
    """Negate, in place, the weights of the positions p of a degree-k step
    whose Laplace sign (-1)^(k-1-p) is negative. (-x) * y rounds to
    -(x * y), and s + (-x) * y to s - x * y, so no coefficient changes a bit."""
    np.negative(a[k % 2 :: 2], out=a[k % 2 :: 2])


def _add_products(a: Sequence[np.ndarray], b: Sequence[np.ndarray], acc: np.ndarray) -> None:
    """acc = sum over positions p of a[p] * b[p], added in order of p, for
    (rows, block) arrays b[p] and a[p] (or one row of weights for all); b is
    overwritten but for its last array. The last b[p] may have fewer rows:
    it adds to the first rows of acc. Each product goes to the slot of b
    that the one before it has spent, never to one of its inputs.
    """
    np.multiply(a[0], b[0], out=acc)
    for p in range(1, len(a)):
        product = b[p - 1]
        if len(b[p]) < len(acc):  # the last term, over the first rows only
            product, acc = product[: len(b[p])], acc[: len(b[p])]
        np.multiply(a[p], b[p], out=product)
        np.add(acc, product, out=acc)


def _expand(
    weights: np.ndarray,
    columns: np.ndarray,
    tables: ColexTables,
    fermion: bool = False,
    workspace: ScanWorkspace | None = None,
) -> np.ndarray:
    """Coefficient of x^r in prod_k (sum_i weights[i, c_k] x_i) for every
    last-degree row r of `tables` and every column list c in `columns`;
    shape (rows, block).

    Degree k is built from degree k - 1 by one term per distinct mode m of
    each row, weights[m, c_{k-1}] times the coefficient of the row without
    m. With `fermion` the placements anticommute: the photon at sorted
    position p of a degree-k row carries the Laplace sign (-1)^(k-1-p), so
    over rows of distinct modes the coefficient is det(weights[r, c]).

    Every term gathers a weight and a predecessor's coefficient, one index
    column per position, and the products are summed in order of position.
    One rule drops the term of a repeated mode: a position that repeats the
    one before it weighs row M of `w`, the zero weight (`fock.ExpansionStep`),
    and still reads a row of the degree below. Degrees 1..N - 1 and the head
    of degree N (its rows that end in the first modes) run through their
    tables in one loop. The rest of degree N is built one last mode m at a
    time, from the degree-(N - 1) prefix rows i of that block
    (`fock.ColexTables`). Position N - 1 takes weights[m] times row i
    itself, for the rows i < below[m] that do not end in m. Position
    p < N - 1 takes the degree-(N - 1) step's weight of row i, gathered once
    for every block, and row i's predecessor offset to the rows that end in
    m. Each product goes to a buffer that is not one of its inputs
    (`_add_products`).

    Calls, not arithmetic, bound narrow blocks: at (18,4) the head takes
    modes 0-9 and leaves 8 blocked modes of 3 N - 2 calls each, so a block
    of seeds makes 121 numpy calls that compute. Fewer, longer calls also
    mean fewer hand-offs of the GIL between scan threads.

    No (size, N) index table exists, and no buffer spans the last degree but
    its coefficients: one (60,4) boson seed runs in 28 bytes per outcome, one
    (18,4) scan thread in 227 KB per seed of width (`ScanWorkspace`).

    The steps run into `workspace`'s buffers, or ones sized for this call,
    and the result is a view of them. Each column is computed on its own by
    elementwise steps in a fixed order, so it depends on neither the rest of
    the block nor the buffers.
    """
    modes = tables.modes
    if modes > len(weights):  # the gathers below clip their indices
        raise ValueError(f"steps over {modes} modes, weights over {len(weights)}")
    block = len(columns)
    if workspace is None:
        coefs, gathers = _expansion_buffers(tables, block, weights.dtype)
    else:
        coefs, gathers = workspace.coefs, workspace.gathers
    a_buf, b_buf = gathers
    w = np.zeros((modes + 1, block), dtype=weights.dtype)  # row M is the zero weight
    coef = [np.ones((1, block), dtype=weights.dtype)]  # degree 0
    # degrees 1..N - 1, then the rows of the first last modes of degree N
    for k, step in enumerate((*tables.steps[1:], tables.head), start=1):
        w[:modes] = weights[:modes, columns[:, k - 1]]
        coef.append(_view(coefs[k - 1], len(step.weights), block))
        _step(w, coef[k - 1], step, gathers, coef[k], fermion)
    # the rest of degree N, one block per last mode
    prev, out = coef[-2], _view(coefs[-1], tables.size, block)
    last = tables.steps[-1].weights
    positions = last.shape[1]  # the prefix positions; position N - 1 is the last mode itself
    # every prefix position's weight for all degree-(N - 1) rows at once: a
    # block's weights are their first rows, whatever its last mode
    a = _view3(a_buf, positions, len(last), block)
    for p in range(positions):
        w.take(last[:, p], axis=0, out=a[p], mode="clip")
    if fermion:
        _laplace_signs(a, positions + 1)
    for m, start, stop, below, preds in tables.blocks:
        count = stop - start
        b = _view3(b_buf, positions, count, block)
        for p, pred in enumerate(preds):
            # the degree-(N - 1) rows that end in m come first
            prev[below:].take(pred, axis=0, out=b[p], mode="clip")
        # position N - 1: weights[m] times the first below[m] prefix rows themselves
        _add_products([*a[:, :count], w[m : m + 1]], [*b, prev[:below]], out[start:stop])
    return out


def _batch_probabilities(
    matrix: np.ndarray,
    seed_indices: np.ndarray,
    space: FockSpace,
    statistics: ParticleStatistics,
    workspace: ScanWorkspace | None = None,
) -> np.ndarray:
    """Probabilities for a block of seeds, one row per seed: a C-contiguous
    (block, size) array.

    Seed-major, so each seed's bin sums (`binning.bin_masses`) run along a
    contiguous row with `np.add.reduce`, which releases the GIL.
    `np.add.reduceat` down the columns of a (size, block) array held it and
    got slower as blocks got wider: the (18,4) sums of one unitary at 2..5
    bins took 0.18 s at 16 seeds and 0.84 s at 64, against 0.08 and 0.09 s
    along rows. The expansion itself stays outcome-major.

    Every step runs into `workspace` (made for this space and statistics, at
    least a block wide) or one sized for this block. The result is a view of
    it, valid until its next call; its bits do not depend on the workspace.

    Raises RuntimeError if a seed's row misses normalization by more than
    NORMALIZATION_GUARD.
    """
    seed_indices = np.asarray(seed_indices, dtype=np.intp)
    columns = space.expansion.rows(seed_indices)
    block = len(columns)
    matrix = np.asarray(matrix)
    fermion = statistics is ParticleStatistics.FERMION
    if fermion and (columns[:, 1:] == columns[:, :-1]).any():
        raise ValueError("fermion seeds must be collision-free")
    if statistics is ParticleStatistics.BOSON:
        fp = space.factorial_products  # cached; built before the buffers, its temporaries add no peak
    if workspace is None:
        workspace = ScanWorkspace(space, statistics, block)
    probs = _view(workspace.probs, block, space.size)
    if statistics is ParticleStatistics.DISTINGUISHABLE:
        np.copyto(probs, _expand(np.abs(matrix) ** 2, columns, space.expansion, workspace=workspace).T)
    else:
        weights = matrix.astype(np.complex128, copy=False)
        tables = space.fermion_expansion if fermion else space.expansion
        coef = _expand(weights, columns, tables, fermion, workspace).view(np.float64)
        np.square(coef, out=coef)  # re^2 and im^2, interleaved
        if fermion:
            probs.fill(0.0)
            probs[:, space.collision_free_indices] = np.add(coef[:, 0::2], coef[:, 1::2], out=coef[:, 0::2]).T
        else:
            np.add(coef[:, 0::2], coef[:, 1::2], out=probs.T)
            # the squares are spent, so their buffer takes the factorial ratios
            ratio = _view(workspace.coefs[-1].view(np.float64), block, space.size)
            probs *= np.divide(fp, fp[seed_indices, None], out=ratio)
    _check_normalization(probs.sum(axis=1), columns, space.modes, statistics)
    return probs


def _check_normalization(
    totals: np.ndarray, columns: np.ndarray, modes: int, statistics: ParticleStatistics
) -> None:
    """Raise RuntimeError naming the first seed (row of `columns`, its sorted
    photon modes) whose total mass misses 1 by more than NORMALIZATION_GUARD."""
    bad = np.flatnonzero(~(np.abs(totals - 1.0) <= NORMALIZATION_GUARD))
    if len(bad):
        seed = tuple(int(v) for v in np.bincount(columns[bad[0]], minlength=modes))
        raise RuntimeError(
            f"distribution failed to normalize: sum={float(totals[bad[0]])!r} "
            f"(seed {seed}, statistics {statistics.value})"
        )


@dataclass(eq=False)
class BSDistribution:
    """Exact output distribution for one (unitary, seed, statistics) triple."""

    space: FockSpace
    seed: tuple[int, ...]
    statistics: ParticleStatistics
    probabilities: np.ndarray
    unitary_tag: str = ""

    def to_csv(self, path: str) -> None:
        """Write the distribution with enough header context to re-derive it."""
        buf = stringio.StringIO()
        buf.write("# bosonbin distribution v1\n")
        buf.write(f"# modes={self.space.modes}\n")
        buf.write(f"# photons={self.space.photons}\n")
        buf.write(f"# statistics={self.statistics.value}\n")
        buf.write(f"# unitary_tag={self.unitary_tag}\n")
        buf.write(f"# seed={format_configuration(self.seed)}\n")
        writer = csv.writer(buf)
        writer.writerow(["index", "integer_code", "occupancy", "probability"])
        for i in range(self.space.size):
            writer.writerow(
                [
                    i,
                    self.space.codes[i],
                    format_configuration(self.space.occupations[i]),
                    repr(float(self.probabilities[i])),
                ]
            )
        atomic_write_text(path, buf.getvalue())


def full_distribution(
    unitary: Any,
    seed: Sequence[int],
    statistics: "str | ParticleStatistics" = ParticleStatistics.BOSON,
    space: FockSpace | None = None,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> BSDistribution:
    """Exact probabilities for every outcome of the configuration space.

    The kernel behind the scans, run on a block of one seed: the result is
    bit-identical to that seed's row of any block, and reproducible for
    fixed inputs because every step runs in a fixed order.
    """
    stats = ParticleStatistics.from_string(statistics)
    matrix = _as_matrix(unitary)
    modes = matrix.shape[0]
    photons = int(sum(int(v) for v in seed))
    if space is None:
        space = enumerate_configurations(modes, photons, limit=limit)
    if space.modes != modes:
        raise ValueError(f"space has {space.modes} modes but unitary has {modes}")
    seed_t = validate_configuration(seed, space.modes, space.photons)
    probs = _batch_probabilities(matrix, [space.index_of(seed_t)], space, stats)[0]
    return BSDistribution(
        space=space,
        seed=seed_t,
        statistics=stats,
        probabilities=probs,
        unitary_tag=getattr(unitary, "tag", ""),
    )


def amplitude(unitary: Any, seed: Sequence[int], outcome: Sequence[int]) -> complex:
    """Bosonic transition amplitude Per(U_{s,r}) / sqrt(prod s_j! prod r_i!)."""
    matrix = _as_matrix(unitary)
    s = [int(v) for v in seed]
    r = [int(v) for v in outcome]
    sub = submatrix(matrix, s, r)
    norm = 1.0
    for v in s:
        norm *= math.factorial(v)
    for v in r:
        norm *= math.factorial(v)
    return permanent_ryser(sub) / math.sqrt(norm)


def transition_probability(
    unitary: Any,
    seed: Sequence[int],
    outcome: Sequence[int],
    statistics: "str | ParticleStatistics" = ParticleStatistics.BOSON,
) -> float:
    """Single-outcome probability via the direct (per-submatrix) route.

    Independent of the vectorized kernel behind `full_distribution`, which
    makes it a useful cross-check of that kernel.
    """
    stats = ParticleStatistics.from_string(statistics)
    matrix = _as_matrix(unitary)
    if stats is ParticleStatistics.BOSON:
        return abs(amplitude(matrix, seed, outcome)) ** 2
    if stats is ParticleStatistics.DISTINGUISHABLE:
        q = np.abs(matrix) ** 2
        sub = submatrix(q, seed, outcome)
        norm = 1.0
        for v in outcome:
            norm *= math.factorial(int(v))
        return float(permanent_ryser(sub).real) / norm
    if not is_collision_free(seed):
        raise ValueError("fermion seeds must be collision-free")
    if not is_collision_free(outcome):
        return 0.0
    sub = submatrix(matrix, seed, outcome)
    return abs(determinant(sub)) ** 2
