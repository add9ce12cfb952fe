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
# seeds per kernel call in scans over many seeds
SCAN_BLOCK = 16


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
    """

    def __init__(self, space: FockSpace, statistics: ParticleStatistics, width: int = SCAN_BLOCK):
        distinguishable = statistics is ParticleStatistics.DISTINGUISHABLE
        steps = space.fermion_steps if statistics is ParticleStatistics.FERMION else space.expansion_steps
        dtype = np.float64 if distinguishable else np.complex128
        self.coefs, self.gathers = _expansion_buffers(steps, width, dtype)
        # distinguishable particles' probabilities are their last coefficients, transposed into a gather
        self.probs = None if distinguishable else np.empty(space.size * width)


def _expansion_buffers(steps: Sequence[ExpansionStep], width: int, dtype: np.dtype) -> tuple:
    """`_expand`'s flat buffers: each degree's coefficients and zero row, and two gathers."""
    rows = [len(step.modes) for step in steps]
    widest = max(rows) * width  # over sets of distinct modes the widest degree is not always the last
    gathers = (np.empty(widest, dtype), np.empty(widest, dtype))
    return [np.empty((r + 1) * width, dtype) for r in rows], gathers


def _view(buffer: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """(rows, cols) view of the start of a flat buffer."""
    return buffer[: rows * cols].reshape(rows, cols)


def _expand(
    weights: np.ndarray,
    columns: np.ndarray,
    steps: Sequence[ExpansionStep],
    fermion: bool = False,
    workspace: ScanWorkspace | None = None,
) -> np.ndarray:
    """Coefficient of x^r in prod_k (sum_i weights[i, c_k] x_i) for every
    last-degree row r of `steps` and every column list c in `columns`;
    shape (rows, block).

    Degree k is built from degree k - 1 by one term per distinct mode m of
    each row, weights[m, c_{k-1}] times the coefficient of the row without
    m. With `fermion` the placements anticommute: the photon at sorted
    position p of a degree-k row carries the Laplace sign (-1)^(k-1-p), so
    over rows of distinct modes the coefficient is det(weights[r, c]). The
    steps run into `workspace`'s buffers, or ones sized for this call, and
    the result is a view of them. Each column is computed on its own by
    elementwise steps in a fixed order, so it depends on neither the rest of
    the block nor the buffers.
    """
    if len(steps[0].modes) > len(weights):  # the gathers below clip their indices
        raise ValueError(f"steps over {len(steps[0].modes)} modes, weights over {len(weights)}")
    block = len(columns)
    if workspace is None:
        coefs, (a_buf, b_buf) = _expansion_buffers(steps, block, weights.dtype)
    else:
        coefs, (a_buf, b_buf) = workspace.coefs, workspace.gathers
    prev = np.zeros((2, block), dtype=weights.dtype)  # degree 0 and its zero row
    prev[0] = 1
    for k, step in enumerate(steps, start=1):
        rows = len(step.modes)
        w = weights[:, columns[:, k - 1]]
        # a zero row after every degree but the last: the next degree gathers it for repeated modes
        coef = _view(coefs[k - 1], rows + (k < len(steps)), block)
        coef[rows:] = 0
        acc = coef[:rows]
        a, b = _view(a_buf, rows, block), _view(b_buf, rows, block)
        for p in range(k):
            # the tables are checked once per space (fock._check_predecessors), so no bounds check here
            np.take(w, step.modes[:, p], axis=0, out=a, mode="clip")
            np.take(prev, step.predecessors[:, p], axis=0, out=b, mode="clip")
            negate = fermion and (k - 1 - p) % 2 == 1
            if p == 0:
                np.multiply(a, b, out=acc)
                if negate:
                    np.negative(acc, out=acc)
            else:
                np.multiply(a, b, out=a)
                (np.subtract if negate else np.add)(acc, a, out=acc)
        prev = coef
    return prev


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
    columns = space.mode_combos[seed_indices]
    block = len(columns)
    matrix = np.asarray(matrix)
    if statistics is ParticleStatistics.BOSON:
        fp = space.factorial_products  # cached; built before the buffers, its temporaries add no peak
    if workspace is None:
        workspace = ScanWorkspace(space, statistics, block)
    # float scratch: the gather buffers are free once the expansion is done
    a_buf, b_buf = (g.view(np.float64) for g in workspace.gathers)
    if statistics is ParticleStatistics.BOSON:
        weights = matrix.astype(np.complex128, copy=False)
        coef = _expand(weights, columns, space.expansion_steps, workspace=workspace).view(np.float64)
        np.square(coef, out=coef)  # re^2 and im^2, interleaved
        probs = _view(workspace.probs, block, space.size)
        np.add(coef[:, 0::2], coef[:, 1::2], out=probs.T)
        probs *= np.divide(fp, fp[seed_indices, None], out=_view(b_buf, block, space.size))
    elif statistics is ParticleStatistics.DISTINGUISHABLE:
        coef = _expand(np.abs(matrix) ** 2, columns, space.expansion_steps, workspace=workspace)
        probs = _view(a_buf, block, space.size)
        np.copyto(probs, coef.T)
    else:
        if (columns[:, 1:] == columns[:, :-1]).any():
            raise ValueError("fermion seeds must be collision-free")
        weights = matrix.astype(np.complex128, copy=False)
        coef = _expand(weights, columns, space.fermion_steps, fermion=True, workspace=workspace)
        cf = len(coef)
        mass = np.square(coef.real, out=_view(a_buf, cf, block))
        mass += np.square(coef.imag, out=_view(b_buf, cf, block))
        probs = _view(workspace.probs, block, space.size)
        probs.fill(0.0)
        probs[:, space.collision_free_indices] = mass.T
    totals = probs.sum(axis=1)
    bad = np.flatnonzero(~(np.abs(totals - 1.0) <= NORMALIZATION_GUARD))
    if len(bad):
        raise RuntimeError(
            f"distribution failed to normalize: sum={float(totals[bad[0]])!r} "
            f"(seed {space.configuration(int(seed_indices[bad[0]]))}, statistics {statistics.value})"
        )
    return probs


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
