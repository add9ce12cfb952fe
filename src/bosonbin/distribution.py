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


def _expand(
    weights: np.ndarray, columns: np.ndarray, steps: Sequence[ExpansionStep], fermion: bool = False
) -> np.ndarray:
    """Coefficient of x^r in prod_k (sum_i weights[i, c_k] x_i) for every
    last-degree row r of `steps` and every column list c in `columns`;
    shape (rows, block).

    Degree k is built from degree k - 1 by one term per distinct mode m of
    each row, weights[m, c_{k-1}] times the coefficient of the row without
    m. With `fermion` the placements anticommute: the photon at sorted
    position p of a degree-k row carries the Laplace sign (-1)^(k-1-p), so
    over rows of distinct modes the coefficient is det(weights[r, c]). Each
    column is computed on its own by elementwise steps in a fixed order, so
    it does not depend on the rest of the block.
    """
    block = len(columns)
    coef = np.ones((1, block), dtype=weights.dtype)
    for k, step in enumerate(steps, start=1):
        w = weights[:, columns[:, k - 1]]
        prev = np.concatenate([coef, np.zeros((1, block), dtype=coef.dtype)])
        for p in range(k):
            term = w[step.modes[:, p]] * prev[step.predecessors[:, p]]
            negate = fermion and (k - 1 - p) % 2 == 1
            if p == 0:
                coef = -term if negate else term
            elif negate:
                coef -= term
            else:
                coef += term
    return coef


def _batch_probabilities(
    matrix: np.ndarray,
    seed_indices: np.ndarray,
    space: FockSpace,
    statistics: ParticleStatistics,
) -> np.ndarray:
    """Probabilities for a block of seeds, one column per seed; (size, block).

    Raises RuntimeError if a seed's column misses normalization by more
    than NORMALIZATION_GUARD.
    """
    seed_indices = np.asarray(seed_indices, dtype=np.intp)
    columns = space.mode_combos[seed_indices]
    matrix = np.asarray(matrix)
    if statistics is ParticleStatistics.BOSON:
        coef = _expand(matrix.astype(np.complex128, copy=False), columns, space.expansion_steps)
        probs = (coef.real**2 + coef.imag**2) * (
            space.factorial_products[:, None] / space.factorial_products[seed_indices]
        )
    elif statistics is ParticleStatistics.DISTINGUISHABLE:
        probs = _expand(np.abs(matrix) ** 2, columns, space.expansion_steps)
    else:
        if (columns[:, 1:] == columns[:, :-1]).any():
            raise ValueError("fermion seeds must be collision-free")
        coef = _expand(matrix.astype(np.complex128, copy=False), columns, space.fermion_steps, fermion=True)
        probs = np.zeros((space.size, len(columns)))
        probs[space.collision_free_indices] = coef.real**2 + coef.imag**2
    totals = probs.sum(axis=0)
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

    @property
    def normalization_error(self) -> float:
        return abs(float(self.probabilities.sum()) - 1.0)

    def probability_of(self, outcome: Sequence[int]) -> float:
        return float(self.probabilities[self.space.index_of(outcome)])

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
    bit-identical to that seed's column of any block, and reproducible for
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
    probs = _batch_probabilities(matrix, [space.index_of(seed_t)], space, stats)[:, 0]
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
