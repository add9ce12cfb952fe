"""Contiguous binning of configuration spaces and most-probable-bin results.

Bins partition the code-ordered space into d contiguous index ranges whose
widths differ by at most one: with q = size mod d, the first q bins get
floor(size / d) + 1 entries and the rest floor(size / d).

Bin masses come by two routes, each the other's oracle: per-outcome values
summed per bin (`bin_masses`, over the kernel's distributions or over drawn
outcome counts), and `exact_bin_masses`, which sums classes of outcomes
without enumerating the space. The kernel's work grows with the space size,
the class route's with the photon and bin counts; `kernel_is_cheaper` picks
one from the shape of the problem. Every route reads its label off its
masses by one rule, `top_two`: the heaviest bin, the smallest label on ties.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import groupby
from typing import Any, Sequence

import numpy as np

from .distribution import NORMALIZATION_GUARD, ParticleStatistics, _expand
from .fock import (
    DEFAULT_ENUMERATION_LIMIT,
    CapacityError,
    _colex_steps,
    is_collision_free,
    space_size,
    unrank,
    validate_configuration,
)
from .linalg import _as_matrix

# Fixed cost of one class of `exact_bin_masses` (two `_expand` calls and
# their setup), counted in kernel outcomes: about 0.1 ms against about
# 2e-7 s per outcome of the kernel, measured on a 2-core Xeon.
CLASS_COST = 500


@dataclass(frozen=True)
class BinPartition:
    num_bins: int
    space_size: int
    widths: tuple[int, ...]
    offsets: tuple[int, ...]  # length num_bins + 1; offsets[0] = 0, offsets[-1] = space_size


def make_partition(space_size: int, num_bins: int) -> BinPartition:
    if not isinstance(space_size, (int, np.integer)) or not isinstance(num_bins, (int, np.integer)):
        raise ValueError("space_size and num_bins must be integers")
    if num_bins < 2:
        raise ValueError(f"need at least 2 bins, got {num_bins}")
    if num_bins > space_size:
        raise ValueError(f"cannot split {space_size} outcomes into {num_bins} nonempty bins")
    base, extra = divmod(int(space_size), int(num_bins))
    widths = tuple(base + 1 if j < extra else base for j in range(num_bins))
    offsets = [0]
    for w in widths:
        offsets.append(offsets[-1] + w)
    return BinPartition(
        num_bins=int(num_bins),
        space_size=int(space_size),
        widths=widths,
        offsets=tuple(offsets),
    )


def bin_masses(values: np.ndarray, partition: BinPartition) -> np.ndarray:
    """Per-bin sums of per-outcome values (probabilities or draw counts), of
    one vector or of each row of a (seeds, size) block; shape (..., bins).

    The first bins are one outcome wider than the rest, so each group of
    equal widths is one reshaped view, and a bin is its first value plus
    `np.add.reduce` of the others: the order `np.add.reduceat` sums in (the
    first element, then a pairwise sum of the rest), bit for bit, so a row
    gets the same bits alone as in a block. Rows and `np.add.reduce`, because
    `reduceat` holds the GIL, and down the columns of a (size, seeds) block
    its cost grows with the block width (see `distribution._batch_probabilities`).
    """
    values = np.asarray(values)
    size = values.shape[-1]
    if size != partition.space_size:
        raise ValueError(f"partition covers {partition.space_size} outcomes, values have {size}")
    base, extra = divmod(size, partition.num_bins)
    split = extra * (base + 1)
    lead = values.shape[:-1]
    out = np.empty(lead + (partition.num_bins,), dtype=values.dtype)
    for lo, hi, width, bins in ((0, split, base + 1, out[..., :extra]), (split, size, base, out[..., extra:])):
        v = values[..., lo:hi].reshape(lead + (-1, width))
        np.add(v[..., 0], np.add.reduce(v[..., 1:], axis=-1), out=bins)
    return out


def top_two(binned: np.ndarray) -> tuple:
    """Label (smallest on ties), top mass and runner-up mass along the last
    axis of per-bin masses: one per seed of a (seeds, bins) block, scalars
    for one vector."""
    return np.argmax(binned, axis=-1), binned.max(axis=-1), np.partition(binned, -2, axis=-1)[..., -2]


def exact_bin_masses(
    unitary: Any,
    seed: Sequence[int],
    num_bins: int,
    statistics: "str | ParticleStatistics" = ParticleStatistics.BOSON,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> np.ndarray:
    """Exact masses of the num_bins bins of one seed's output distribution,
    without enumerating the space: the work grows with the photon and bin
    counts, not with the space size (see `kernel_is_cheaper`).

    A bin's mass is the difference of the prefix masses at its offsets. The
    outcomes ranked below an outcome with sorted modes b form at most N
    classes: class j keeps b's modes above position j (the multiset F of f
    photons) and puts the other N - f photons anywhere in the modes S below
    b_j. Every mode of S lies below every mode of F, so r! = F! r_S!. With
    A the seed's photon columns of U, a Laplace expansion along the rows F
    and the Binet-Cauchy theorem for the rows in S (Minc, Permanents, 1978)
    give the boson class mass

        sum over f-subsets T, T' of the seed photons of
        conj(e_T') Per(G[T'^c, T^c]) e_T / (F! s!),
        with e_T = Per(A[F, T]) and G = A_S^H A_S.

    Fermions take determinants and the Laplace sign (-1)^(sum T).
    Distinguishable particles take A = |U|^2 columns and need no G: their
    class mass is sum_T e_T prod_{c not in T} (sum_{i in S} A[i, c]) / F!.
    The e_T of a class are one `_expand` call, and so are all Gram
    permanents.

    Raises CapacityError before any work when num_bins or the largest
    `_expand` table exceeds `limit`, and RuntimeError when the total mass
    misses 1 by more than NORMALIZATION_GUARD (a matrix that is not unitary).
    """
    stats = ParticleStatistics.from_string(statistics)
    matrix = _as_matrix(unitary)
    modes = matrix.shape[0]
    seed_t = validate_configuration(seed, modes, sum(int(v) for v in seed))
    photons = sum(seed_t)
    if num_bins > limit:
        raise CapacityError(f"{num_bins} bins exceed the limit of {limit}")
    fermion = stats is ParticleStatistics.FERMION
    gram = stats is not ParticleStatistics.DISTINGUISHABLE
    if fermion and not is_collision_free(seed_t):
        raise ValueError("fermion seeds must be collision-free")
    prefixes = _route_classes(modes, photons, num_bins)
    largest = max(_table_entries(photons, len(fixed), gram) for classes in prefixes for fixed, _ in classes)
    if largest > limit:
        raise CapacityError(
            f"exact bin masses of {photons} photons need a table of {largest} entries, "
            f"exceeding the limit of {limit}"
        )
    columns = matrix[:, np.repeat(np.arange(modes), seed_t)]
    if gram:
        columns = columns.astype(np.complex128, copy=False)
        norm = math.prod(math.factorial(v) for v in seed_t)
    else:
        columns, norm = np.abs(columns) ** 2, 1
    steps = cache(lambda n, k: _colex_steps(n, k, distinct=True))
    prefix = [
        sum(_class_mass(columns, fixed, bound, steps, stats) for fixed, bound in classes) / norm
        for classes in prefixes
    ]
    if not abs(prefix[-1] - 1.0) <= NORMALIZATION_GUARD:
        raise RuntimeError(
            f"distribution failed to normalize: sum={prefix[-1]!r} "
            f"(seed {seed_t}, statistics {stats.value})"
        )
    return np.diff(prefix, prepend=0.0)


def kernel_is_cheaper(
    modes: int,
    photons: int,
    num_bins: int,
    statistics: "str | ParticleStatistics" = ParticleStatistics.BOSON,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> bool:
    """Whether exact bin masses cost less from the kernel over the enumerated
    space than from `exact_bin_masses`.

    The kernel's cost is taken as the space size, the class route's as the
    entries of its `_expand` tables plus CLASS_COST per class. Few photons
    on many modes favour the classes, many photons on few modes the kernel:
    at 4 bins, (60, 4) takes 1.4 ms by classes and 0.13 s by the kernel,
    (4, 12) 0.75 s by classes and 1.1 ms by the kernel. A space above
    `limit` is never enumerated.
    """
    size = space_size(modes, photons)
    if size > limit:
        return False
    if size <= CLASS_COST * num_bins:  # each of the num_bins prefixes has a class
        return True
    gram = ParticleStatistics.from_string(statistics) is not ParticleStatistics.DISTINGUISHABLE
    tables = [
        _table_entries(photons, len(fixed), gram)
        for classes in _route_classes(modes, photons, num_bins)
        for fixed, _ in classes
    ]
    return size <= sum(tables) + CLASS_COST * len(tables)


def _route_classes(modes: int, photons: int, num_bins: int) -> list[list[tuple[tuple[int, ...], int]]]:
    """The classes of every prefix mass: one list per inner offset of the
    partition, then the whole space (the total mass)."""
    partition = make_partition(space_size(modes, photons), num_bins)
    prefixes = [_prefix_classes(unrank(modes, photons, r)) for r in partition.offsets[1:-1]]
    prefixes.append([((), modes)])
    return prefixes


def _prefix_classes(configuration: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """(F, bound) of each nonempty class of the outcomes ranked below
    `configuration`: F its sorted modes above position j, bound its mode at j."""
    b = [m for m, count in enumerate(configuration) for _ in range(count)]
    return [(tuple(b[j + 1 :]), b[j]) for j in range(len(b)) if b[j] > 0]


def _table_entries(photons: int, fixed: int, gram: bool) -> int:
    """Entries of the largest `_expand` array of a class with `fixed`
    photons: one column per subset T, times the most rows of any degree."""
    free = photons - fixed
    rows = math.comb(fixed, fixed // 2)
    if gram:
        rows = max(rows, math.comb(photons, min(free, photons // 2)))
    return math.comb(photons, free) * rows


def _class_mass(
    columns: np.ndarray, fixed: tuple[int, ...], bound: int, steps, stats: ParticleStatistics
) -> float:
    """Mass of one class times the seed's s! (its norm in `exact_bin_masses`)."""
    photons = columns.shape[1]
    f = len(fixed)
    fermion = stats is ParticleStatistics.FERMION
    free_steps = steps(photons, photons - f)
    rest = free_steps[-1].modes  # the complements T^c
    keep = np.ones((len(rest), photons), dtype=bool)
    keep[np.arange(len(rest))[:, None], rest] = False
    subsets = np.nonzero(keep)[1].reshape(len(rest), f)  # the T
    e = _expand(columns[list(fixed)], subsets, steps(f, f), fermion)[0] if f else np.ones(1)
    fixed_factorial = math.prod(math.factorial(len(list(run))) for _, run in groupby(fixed))
    inside = columns[:bound]
    if stats is ParticleStatistics.DISTINGUISHABLE:
        value = e @ inside.sum(axis=0)[rest].prod(axis=1)
    else:
        if fermion:
            e = e * (-1.0) ** subsets.sum(axis=1)
        minors = _expand(inside.conj().T @ inside, rest, free_steps, fermion)  # Per(G[T'^c, T^c])
        value = np.vdot(e, minors @ e).real
    return float(value) / fixed_factorial


@dataclass(frozen=True)
class MPBResult:
    """Most probable bin: label, its mass, the runner-up mass and their gap."""

    label: int
    p0: float
    p1: float
    gap: float
    tie_flag: bool


def mpb_from_vector(probabilities: np.ndarray, tie_epsilon: float = 0.0) -> MPBResult:
    """MPB of a raw per-bin vector (exact masses or empirical frequencies).

    Ties resolve to the smallest label; tie_flag is set when the winner
    leads the runner-up by at most tie_epsilon.
    """
    if tie_epsilon < 0:
        raise ValueError("tie_epsilon must be nonnegative")
    v = np.asarray(probabilities, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 2:
        raise ValueError("need a 1-d vector with at least 2 bins")
    label, top, runner_up = top_two(v)
    p0, p1 = float(top), float(runner_up)
    gap = p0 - p1
    return MPBResult(label=int(label), p0=p0, p1=p1, gap=gap, tie_flag=gap <= tie_epsilon)
