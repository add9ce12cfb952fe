"""Contiguous binning of configuration spaces and most-probable-bin results.

Bins partition the code-ordered space into d contiguous index ranges whose
widths differ by at most one: with q = size mod d, the first q bins get
floor(size / d) + 1 entries and the rest floor(size / d).

Bin masses come by two routes, each the other's oracle: per-outcome values
summed per bin (`bin_masses`, over the kernel's distributions or over drawn
outcome counts), and `class_bin_masses`, which sums classes of outcomes
without enumerating the space, for a block of seeds at once
(`exact_bin_masses` is its one-seed call). The kernel's work grows with the
space size, the class route's with the photon and bin counts;
`kernel_is_cheaper` picks one from the shape of the problem and the number
of seeds that share the classes. Every route reads its label off its masses
by one rule, `top_two`: the heaviest bin, the smallest label on ties.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Any, Sequence

import numpy as np

from .distribution import NORMALIZATION_GUARD, SCAN_BYTES, ParticleStatistics, _expand
from .fock import (
    DEFAULT_ENUMERATION_LIMIT,
    CapacityError,
    _colex_steps,
    space_size,
    unrank,
    validate_configuration,
)
from .linalg import _as_matrix

# Costs of the class route in `kernel_is_cheaper`, counted in kernel steps
# (one outcome times one photon, about 6 ns per seed in a scan block): one
# `_expand` table entry of one seed (about 45 ns), and the fixed cost of one
# class per block of seeds (its `_expand` calls and their setup, about
# 150 us). Measured on a 2-core Xeon, one thread.
TABLE_COST = 8
CLASS_COST = 25_000


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
    without enumerating the space: `class_bin_masses` on a block of one seed.
    The work grows with the photon and bin counts, not with the space size
    (see `ClassPlan` for the method, `kernel_is_cheaper` for the cost).

    Raises CapacityError before any work when num_bins or the largest
    `_expand` table exceeds `limit`, and RuntimeError when the total mass
    misses 1 by more than NORMALIZATION_GUARD (a matrix that is not unitary).
    """
    stats = ParticleStatistics.from_string(statistics)
    matrix = _as_matrix(unitary)
    modes = matrix.shape[0]
    seed_t = validate_configuration(seed, modes, sum(int(v) for v in seed))
    plan = ClassPlan(modes, sum(seed_t), (num_bins,), stats, limit)
    return class_bin_masses(matrix, np.repeat(np.arange(modes), seed_t)[None], plan)[num_bins][0]


class ClassPlan:
    """The classes of every prefix mass of one (modes, photons) shape, for
    each bin count of a list, with the subset tables their masses read:
    built once and shared by every block of seeds (`class_bin_masses`).

    A bin's mass is the difference of the prefix masses at its offsets. The
    outcomes ranked below an outcome with sorted modes b form at most N
    classes: class j keeps b's modes above position j (the multiset F of f
    photons) and puts the other N - f photons anywhere in the modes S below
    b_j (its bound). Every mode of S lies below every mode of F, so
    r! = F! r_S!. With A the seed's photon columns of U, a Laplace expansion
    along the rows F and the Binet-Cauchy theorem for the rows in S (Minc,
    Permanents, 1978) give the boson class mass

        sum over f-subsets T, T' of the seed photons of
        conj(e_T') Per(G[T'^c, T^c]) e_T / (F! s!),
        with e_T = Per(A[F, T]) and G = A_S^H A_S.

    Fermions take determinants and the Laplace sign (-1)^(sum T).
    Distinguishable particles take A = |U|^2 columns and need no G: their
    class mass is sum_T e_T prod_{c not in T} (sum_{i in S} A[i, c]) / F!.

    A class that serves several prefixes, or several bin counts, is one
    class; the total mass (F empty, bound M) serves every bin count. G
    depends on the bound alone and its minors on the bound and f, so the
    classes are grouped by bound, then by f (`bounds`).

    Raises CapacityError when a bin count or the largest `_expand` table
    exceeds `limit`.
    """

    def __init__(
        self,
        modes: int,
        photons: int,
        bin_list: Sequence[int],
        statistics: ParticleStatistics,
        limit: int = DEFAULT_ENUMERATION_LIMIT,
    ):
        if max(bin_list) > limit:
            raise CapacityError(f"{max(bin_list)} bins exceed the limit of {limit}")
        self.modes, self.statistics = modes, statistics
        self.gram = statistics is not ParticleStatistics.DISTINGUISHABLE
        self.classes, self.prefixes = _route_classes(modes, photons, bin_list)
        self.total = self.classes.index(((), modes))
        largest = max(_table_entries(photons, len(fixed), self.gram) for fixed, _ in self.classes)
        if largest > limit:
            raise CapacityError(
                f"exact bin masses of {photons} photons need a table of {largest} entries, "
                f"exceeding the limit of {limit}"
            )
        self.factorials = [
            math.prod(math.factorial(len(list(run))) for _, run in groupby(fixed)) for fixed, _ in self.classes
        ]
        groups: dict[int, dict[int, list[int]]] = {}
        for c, (fixed, bound) in enumerate(self.classes):
            groups.setdefault(bound, {}).setdefault(len(fixed), []).append(c)
        self.bounds = [(bound, sorted(by_f.items())) for bound, by_f in sorted(groups.items())]
        # per f: the tables of e_T and of the minors, the complements T^c
        # (the minors' rows, in their order), the subsets T and their signs
        self.tables = {}
        for f in {len(fixed) for fixed, _ in self.classes}:
            free = _colex_steps(photons, photons - f, distinct=True)
            rest = free.rows()
            keep = np.ones((len(rest), photons), dtype=bool)
            keep[np.arange(len(rest))[:, None], rest] = False
            subsets = np.nonzero(keep)[1].reshape(len(rest), f)
            fixed_steps = _colex_steps(f, f, distinct=True) if f else None
            self.tables[f] = (fixed_steps, free, rest, subsets, (-1.0) ** subsets.sum(axis=1))
        self.width = _class_width(modes, photons, len(self.classes), largest)


def class_bin_masses(matrix: np.ndarray, columns: np.ndarray, plan: ClassPlan) -> dict[int, np.ndarray]:
    """Exact bin masses of many seeds under one matrix, {d: (seeds, d)} for
    every bin count of `plan`, from a (seeds, N) array of each seed's sorted
    photon modes.

    Seeds run in blocks of plan.width, so a block's arrays stay within
    SCAN_BYTES. Within a block every seed's columns sit side by side, offset
    by seed x N: one `_expand` call gives every seed's e_T of a class, one
    more every seed's Gram minors of a (bound, f) group, and one stacked
    matmul every seed's G of a bound. Each of those is computed per seed in
    a fixed order, so a seed's bits depend on neither its block's width nor
    its place in it.

    Raises ValueError for a fermion seed with a repeated mode, and
    RuntimeError naming the first seed whose total mass misses 1 by more
    than NORMALIZATION_GUARD (a matrix that is not unitary).
    """
    matrix, columns = np.asarray(matrix), np.asarray(columns, dtype=np.intp)
    if plan.statistics is ParticleStatistics.FERMION and (columns[:, 1:] == columns[:, :-1]).any():
        raise ValueError("fermion seeds must be collision-free")
    out = {d: np.empty((len(columns), d)) for d in plan.prefixes}
    for lo in range(0, len(columns), plan.width):
        block = columns[lo : lo + plan.width]
        masses = _class_masses(matrix, block, plan)
        total = masses[plan.total]
        bad = np.flatnonzero(~(np.abs(total - 1.0) <= NORMALIZATION_GUARD))
        if len(bad):
            seed = tuple(int(v) for v in np.bincount(block[bad[0]], minlength=plan.modes))
            raise RuntimeError(
                f"distribution failed to normalize: sum={float(total[bad[0]])!r} "
                f"(seed {seed}, statistics {plan.statistics.value})"
            )
        for d, prefixes in plan.prefixes.items():
            prefix = np.stack([sum(masses[c] for c in classes) for classes in prefixes], axis=1)
            out[d][lo : lo + len(block)] = np.diff(prefix, axis=1, prepend=0.0)
    return out


def _class_masses(matrix: np.ndarray, block: np.ndarray, plan: ClassPlan) -> np.ndarray:
    """(classes, seeds) masses of every class of `plan` for a block of seeds."""
    seeds, photons = block.shape
    fermion = plan.statistics is ParticleStatistics.FERMION
    at = matrix.T[block]  # (seeds, N, M): each seed's A^T
    at = at.astype(np.complex128, copy=False) if plan.gram else np.abs(at) ** 2
    offsets = np.arange(seeds)[:, None, None] * photons
    masses = np.empty((len(plan.classes), seeds))
    norm = _seed_factorials(block) if plan.gram else 1.0  # distinguishable masses carry no s!
    for bound, groups in plan.bounds:
        inside = at[:, :, :bound]
        if plan.gram:
            gram = np.matmul(inside.conj(), inside.transpose(0, 2, 1))  # (seeds, N, N): each seed's G
            w = gram.transpose(1, 0, 2).reshape(photons, seeds * photons)
        else:
            sums = np.add.reduce(inside, axis=-1)  # (seeds, N)
        for f, members in groups:
            fixed_steps, free_steps, rest, subsets, signs = plan.tables[f]
            count = len(rest)
            if plan.gram:
                cols = (rest + offsets).reshape(-1, photons - f)
                # `_expand` multiplies a lone column of a one-entry table in
                # place, which rounds unlike a wider block: it gets a twin
                twin = np.concatenate([cols, cols]) if len(cols) == 1 else cols
                minors = _expand(w, twin, free_steps, fermion)[:, : len(cols)].reshape(count, seeds, count)
            else:
                products = np.multiply.reduce(sums[:, rest], axis=-1)  # (seeds, C)
            for c in members:
                if f:
                    weights = at[:, :, list(plan.classes[c][0])].transpose(2, 0, 1).reshape(f, -1)
                    cols = (subsets + offsets).reshape(-1, f)
                    e = _expand(weights, cols, fixed_steps, fermion).reshape(seeds, count)
                else:
                    e = np.ones((seeds, 1))
                if fermion:
                    e = e * signs
                if plan.gram:
                    inner = np.add.reduce(minors * e, axis=-1)  # (C, seeds): sum_T Per(G[T'^c, T^c]) e_T
                    value = np.add.reduce(e.conj() * inner.T, axis=-1).real
                else:
                    value = np.add.reduce(e * products, axis=-1)
                masses[c] = value / (plan.factorials[c] * norm)
    return masses


def _seed_factorials(block: np.ndarray) -> np.ndarray:
    """s! of each seed of a (seeds, N) block of sorted photon modes."""
    run = np.ones(len(block))
    norm = np.ones(len(block))
    for p in range(1, block.shape[1]):
        run = np.where(block[:, p] == block[:, p - 1], run + 1, 1.0)
        norm *= run
    return norm


def kernel_is_cheaper(
    modes: int,
    photons: int,
    num_bins: "int | Sequence[int]",
    statistics: "str | ParticleStatistics" = ParticleStatistics.BOSON,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
    seeds: int = 1,
) -> bool:
    """Whether exact bin masses of `seeds` seeds under one unitary cost less
    from the kernel over the enumerated space than from the class route
    (`class_bin_masses`). num_bins is one bin count or every bin count of a
    scan: one distribution serves them all, while each adds classes.

    Costs are counted per seed, in kernel steps (one outcome times one
    photon): the kernel's is size x N. The class route's is TABLE_COST per
    entry of its `_expand` tables, plus CLASS_COST per class, which the
    seeds of a block share. So few photons on many modes, and scans of many
    seeds, favour the classes; many photons on few modes favour the kernel.
    A space above `limit` is never enumerated. CPU times on a 2-core Xeon,
    one thread, of whole scans of one unitary over every seed at d = 2..5:

    | (modes, photons) | seeds | kernel | classes | picked |
    |---|---|---|---|---|
    | (18, 4) | 5,985 | 0.74 s | 0.21 s | classes |
    | (14, 4) | 2,380 | 0.13 s | 65 ms | classes |
    | (18, 3) | 1,140 | 22 ms | 16 ms | classes |
    | (10, 6) | 5,005 | 1.0 s | 1.2 s | kernel |
    | (8, 8) | 6,435 | 3.2 s | 23 s | kernel |
    | (8, 3) | 120 | 0.4 ms | 2.9 ms | kernel |

    and of single seeds at 4 bins, the kernel with its enumeration: (60, 4)
    16 ms against 2.6 ms by classes, (100, 3) 3.3 against 1.7 ms, (20, 6)
    10 against 5.0 ms; (30, 4) 1.4 against 2.2 ms, (18, 4) 0.7 against
    2.2 ms, (4, 12) 2 ms against 1.1 s.
    """
    size = space_size(modes, photons)
    if size > limit:
        return False
    bin_list = (num_bins,) if isinstance(num_bins, (int, np.integer)) else tuple(num_bins)
    kernel = size * photons
    # every inner offset has a class of its own, so there are max(bin_list) classes or more
    if kernel * seeds <= CLASS_COST * max(bin_list):
        return True
    gram = ParticleStatistics.from_string(statistics) is not ParticleStatistics.DISTINGUISHABLE
    classes, _ = _route_classes(modes, photons, bin_list)
    tables = [_table_entries(photons, len(fixed), gram) for fixed, _ in classes]
    shared = min(seeds, _class_width(modes, photons, len(classes), max(tables)))
    return kernel <= TABLE_COST * sum(tables) + CLASS_COST * len(classes) / shared


def _route_classes(
    modes: int, photons: int, bin_list: Sequence[int]
) -> tuple[list[tuple[tuple[int, ...], int]], dict[int, list[list[int]]]]:
    """The distinct classes (F, bound) of every prefix mass of every bin
    count, in order of first use, and per bin count the classes of each
    prefix: one list per inner offset of the partition, then the total."""
    index: dict[tuple[tuple[int, ...], int], int] = {}
    prefixes = {}
    for d in bin_list:
        offsets = make_partition(space_size(modes, photons), d).offsets[1:-1]
        classes = [_prefix_classes(unrank(modes, photons, r)) for r in offsets] + [[((), modes)]]
        prefixes[d] = [[index.setdefault(c, len(index)) for c in prefix] for prefix in classes]
    return list(index), prefixes


def _class_width(modes: int, photons: int, classes: int, largest: int) -> int:
    """Seeds per block of the class route: as many as SCAN_BYTES holds, and
    at least one. A seed takes its photon columns of U (twice, while they
    are converted), its class masses, and about N + 3 arrays of its largest
    `_expand` table (the expansion's degrees and gathers, the products)."""
    return max(1, SCAN_BYTES // (16 * (2 * modes * photons + (photons + 3) * largest) + 8 * classes))


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
