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
from itertools import combinations, groupby
from typing import Any, Sequence

import numpy as np

from .distribution import NORMALIZATION_GUARD, SCAN_BYTES, ParticleStatistics, _expand
from .fock import (
    DEFAULT_ENUMERATION_LIMIT,
    CapacityError,
    _colex_steps,
    collision_free_count,
    space_size,
    unrank,
    validate_configuration,
)
from .linalg import _as_matrix

# Costs of the class route in `kernel_is_cheaper`, counted in kernel steps
# (one outcome times one photon, about 4.6 ns per seed in a scan block): one
# entry of a seed's minors and group sums (about 2.4 ns), and the fixed cost
# of one class per block of seeds (its share of the numpy calls of a block
# and of the call's plan and mode tables, about 76 us). Fitted to CPU times
# of whole scans on a 2-core Xeon, one thread (`kernel_is_cheaper`).
TABLE_COST = 0.5
CLASS_COST = 16_500


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

    Raises CapacityError before any work when num_bins or the largest array
    of the seed (`ClassPlan`) exceeds `limit`, and RuntimeError when the
    total mass misses 1 by more than NORMALIZATION_GUARD (a matrix that is
    not unitary).
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
    built once and shared by every call and block of seeds
    (`class_bin_masses`).

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
    depends on the bound alone, so the classes are grouped by bound, then by
    f (`bounds`). Each bound's minors come from one pass over subsets
    (`levels`): level k holds the k x k minors of every k-subset of rows
    against the first n_k k-subsets of columns in colex order, the prefixes
    of every (N - f)-subset a group of that bound reads (n_k = C(f + k, k)
    for the largest such f), and the group with f fixed photons reads level
    N - f whole.

    `width` and `chunk` are the seeds of one block and of one call's mode
    tables (`_class_width`, `_chunk_seeds`).

    Raises CapacityError when a bin count or the largest array of one seed
    (a level of minors, or a group's minors times e) exceeds `limit`.
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
        self.modes, self.photons, self.statistics = modes, photons, statistics
        self.gram = statistics is not ParticleStatistics.DISTINGUISHABLE
        self.classes, self.prefixes = _route_classes(modes, photons, bin_list)
        self.total = self.classes.index(((), modes))
        self.bounds, levels, held, self.largest, _ = _class_layout(photons, self.classes, self.gram)
        if self.largest > limit:
            raise CapacityError(
                f"exact bin masses of {photons} photons need a table of {self.largest} entries, "
                f"exceeding the limit of {limit}"
            )
        self.factorials = [
            math.prod(math.factorial(len(list(run))) for _, run in groupby(fixed)) for fixed, _ in self.classes
        ]
        subsets = _colex_subsets(photons)
        terms: dict[tuple[int, int, int], list] = {}  # a level that several bounds read is built once
        self.levels = {}
        for bound, spec in levels.items():
            for key in spec:
                if key not in terms:
                    terms[key] = _minor_terms(subsets, *key)
            self.levels[bound] = [(key[0], terms[key]) for key in spec]
        # per f: the steps of e_T, the complements T^c (the minors' rows and
        # columns, in their order), the subsets T, their signs, and the
        # classes with f fixed photons, one row each of a call's e_T table
        self.tables = {}
        for f in sorted({len(fixed) for fixed, _ in self.classes}):
            rest = subsets[photons - f][0]
            keep = np.ones((len(rest), photons), dtype=bool)
            keep[np.arange(len(rest))[:, None], rest] = False
            chosen = np.nonzero(keep)[1].reshape(len(rest), f)
            members = [c for c, (fixed, _) in enumerate(self.classes) if len(fixed) == f]
            steps = _colex_steps(f, f, distinct=True) if f else None
            self.tables[f] = (steps, rest, chosen, (-1.0) ** chosen.sum(axis=1), members)
        self.slot = {c: i for _, _, _, _, members in self.tables.values() for i, c in enumerate(members)}
        self.width = _class_width(photons, len(self.classes), held, self.largest)
        self.chunk = _chunk_seeds(self)


def class_bin_masses(matrix: np.ndarray, columns: np.ndarray, plan: ClassPlan) -> dict[int, np.ndarray]:
    """Exact bin masses of many seeds under one matrix, {d: (seeds, d)} for
    every bin count of `plan`, from a (seeds, N) array of each seed's sorted
    photon modes.

    What depends on modes alone is built once per call (`_mode_tables`):
    each bound's G over the modes the seeds use, and each f's e_T over the
    seeds' distinct f-mode lists. A call whose tables would not fit a
    quarter of SCAN_BYTES is cut into chunks of plan.chunk seeds whose
    tables do, each with its own (at every default scan cell the whole call
    is one chunk). Each chunk runs in blocks of plan.width seeds, whose
    arrays stay within half of SCAN_BYTES: a block gathers every seed's G
    and e_T from the tables and computes each seed's minors of G
    (`_minors`). No step calls
    BLAS, and every value is computed per seed or per table entry by
    elementwise steps in a fixed order, so a seed's bits depend neither on
    its block or chunk, nor its place in them, nor the other seeds.

    Raises ValueError for a fermion seed with a repeated mode, and
    RuntimeError naming the first seed whose total mass misses 1 by more
    than NORMALIZATION_GUARD (a matrix that is not unitary).
    """
    matrix, columns = np.asarray(matrix), np.asarray(columns, dtype=np.intp)
    if plan.statistics is ParticleStatistics.FERMION and (columns[:, 1:] == columns[:, :-1]).any():
        raise ValueError("fermion seeds must be collision-free")
    out = {d: np.empty((len(columns), d)) for d in plan.prefixes}
    for start in range(0, len(columns), plan.chunk):
        chunk = columns[start : start + plan.chunk]
        tables = _mode_tables(matrix, chunk, plan)
        for lo in range(0, len(chunk), plan.width):
            hi = min(lo + plan.width, len(chunk))
            masses = _class_masses(tables, lo, hi, plan)
            total = masses[plan.total]
            bad = np.flatnonzero(~(np.abs(total - 1.0) <= NORMALIZATION_GUARD))
            if len(bad):
                seed = tuple(int(v) for v in np.bincount(chunk[lo + bad[0]], minlength=plan.modes))
                raise RuntimeError(
                    f"distribution failed to normalize: sum={float(total[bad[0]])!r} "
                    f"(seed {seed}, statistics {plan.statistics.value})"
                )
            for d, prefixes in plan.prefixes.items():
                prefix = np.stack([sum(masses[c] for c in classes) for classes in prefixes], axis=1)
                out[d][start + lo : start + hi] = np.diff(prefix, axis=1, prepend=0.0)
            del masses, total  # spent before the next block's arrays are made
        del tables  # spent before the next chunk's are built
    return out


def _mode_tables(matrix: np.ndarray, columns: np.ndarray, plan: ClassPlan) -> tuple:
    """What a call's seeds read that depends on modes alone: the seeds'
    photon modes as positions among the modes they use, G_b (or the column
    sums of |U|^2) of each bound b over those modes, one flat row per bound,
    and per f the e_T of each class over the seeds' distinct f-mode lists,
    with the list each seed's subset T reads.

    G_b[a, c] = sum over modes m < b of conj(U[m, a]) U[m, c]: a running
    sum, mode by mode in order (`np.add.accumulate` over a slab of modes at
    a time), so an entry's bits depend on (a, c, b) alone.
    """
    used, local = np.unique(columns, return_inverse=True)
    local = local.reshape(columns.shape)
    fermion = plan.statistics is ParticleStatistics.FERMION
    sums = _bound_sums(matrix, used, plan)
    e = {}
    for f, (steps, _, chosen, _, members) in plan.tables.items():
        if not f:
            continue
        lists, inverse = _distinct_rows(local[:, chosen].reshape(-1, f), len(used))
        # `_expand` multiplies a lone column of a one-entry table in place,
        # which rounds unlike a wider block: it gets a twin
        twin = np.concatenate([lists, lists]) if len(lists) == 1 else lists
        values = np.empty((len(members), len(lists)), dtype=sums.dtype)
        for k, c in enumerate(members):  # a class at a time: all of an f at once kept 1.4 MB more resident
            fixed = _weights(matrix[np.array(plan.classes[c][0])][:, used], plan.gram)  # rows F over the used modes
            values[k] = _expand(fixed, twin, steps, fermion)[0, : len(lists)]
        e[f] = (values, inverse.reshape(len(columns), -1).T)
    return local, len(used), sums, e


def _bound_sums(matrix: np.ndarray, used: np.ndarray, plan: ClassPlan) -> np.ndarray:
    """(bounds, U x U) G_b over the `used` modes of each bound b of `plan`,
    flattened (for distinguishable particles, (bounds, U) column sums of
    |U|^2): a running sum over modes in order, a slab of modes at a time."""
    row = len(used) ** 2 if plan.gram else len(used)
    sums = np.empty((len(plan.bounds), row), dtype=np.complex128 if plan.gram else np.float64)
    running = np.zeros((1, row), dtype=sums.dtype)  # row i of a slab's sums: the modes below lo + i
    slab = _slab_modes(row)
    for lo in range(0, plan.modes, slab):
        terms = _weights(matrix[lo : lo + slab, used], plan.gram)
        if plan.gram:
            terms = np.multiply(terms.conj()[:, :, None], terms[:, None, :]).reshape(len(terms), row)
        running = np.add.accumulate(np.concatenate([running, terms]), axis=0)
        for j, (bound, _) in enumerate(plan.bounds):
            if lo < bound <= lo + len(terms):
                sums[j] = running[bound - lo]
        running = running[-1:]
    return sums


def _weights(entries: np.ndarray, gram: bool) -> np.ndarray:
    """Entries of U as the class route weighs them: complex for bosons and
    fermions, |U|^2 for distinguishable particles."""
    return entries.astype(np.complex128, copy=False) if gram else np.abs(entries) ** 2


def _slab_modes(row: int) -> int:
    """Modes per slab of the running sums in `_mode_tables`: a slab's terms
    and sums take at most a quarter of SCAN_BYTES, or one mode."""
    return max(1, SCAN_BYTES // (4 * 3 * 16 * row))


def _distinct_rows(rows: np.ndarray, values: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an (n, f) array of integers in range(values),
    and the index of each row among them. Ranked one column at a time, so
    no code exceeds n x values."""
    distinct = np.zeros((1, 0), dtype=rows.dtype)
    rank = np.zeros(len(rows), dtype=np.intp)
    for column in rows.T:
        codes, rank = np.unique(rank * values + column, return_inverse=True)
        distinct = np.column_stack([distinct[codes // values], codes % values])
    return distinct, rank


def _class_masses(tables: tuple, lo: int, hi: int, plan: ClassPlan) -> np.ndarray:
    """(classes, seeds) masses of every class of `plan` for seeds lo:hi of
    a call, from the call's mode tables.

    Every array has one column per seed, so each gather copies whole rows
    and each sum over subsets adds whole rows, one after another. Products
    are `np.multiply` calls, never `x * y`: numpy may compute the product of
    a large temporary in place with its factors swapped, which rounds a
    complex product differently, so the bits would depend on the block's
    width."""
    local, used, sums, e = tables
    block = local[lo:hi]
    seeds, photons = block.shape
    fermion = plan.statistics is ParticleStatistics.FERMION
    masses = np.empty((len(plan.classes), seeds))
    norm = _seed_factorials(block) if plan.gram else 1.0  # distinguishable masses carry no s!
    if plan.gram:  # where each seed's G[a, c] sits in a bound's table, and the gathers and products
        pairs = (block[:, :, None] * used + block[:, None, :]).reshape(seeds, -1).T
        buffers = [np.empty(plan.largest * seeds, dtype=np.complex128) for _ in range(3)]
    for j, (bound, groups) in enumerate(plan.bounds):
        if plan.gram:
            minors = None  # the last bound's minors are spent before this bound's are made
            minors = _minors(sums[j].take(pairs), plan.levels[bound], fermion, buffers)
        else:
            column_sums = sums[j].take(block.T)  # (N, seeds)
        for f, members in groups:
            _, rest, _, signs, _ = plan.tables[f]
            count = len(rest)
            if plan.gram:
                level = minors[photons - f].reshape(count, count, seeds)  # [T'^c, T^c, seed]
            else:  # prod over c in T^c of the column sums
                products = column_sums.take(rest[:, 0], axis=0)
                for p in range(1, photons - f):
                    products = np.multiply(products, column_sums.take(rest[:, p], axis=0))
            for c in members:
                if f:
                    values, inverse = e[f]
                    ec = values[plan.slot[c]].take(inverse[:, lo:hi])  # (C, seeds)
                else:
                    ec = np.ones((1, seeds))
                if fermion:
                    ec = np.multiply(ec, signs[:, None])
                if plan.gram:
                    # sum_T Per(G[T'^c, T^c]) e_T, then sum_T' conj(e_T') times that
                    terms = np.multiply(level, ec, out=buffers[0][: level.size].reshape(level.shape))
                    inner = _sum_rows(terms.transpose(1, 0, 2))
                    value = _sum_rows(np.multiply(ec.conj(), inner)).real
                else:
                    value = _sum_rows(np.multiply(ec, products))
                masses[c] = value / (plan.factorials[c] * norm)
    return masses


def _sum_rows(terms: np.ndarray) -> np.ndarray:
    """terms[0] + terms[1] + ..., added in that order (`np.add.reduce` adds
    along a contiguous axis pairwise, and which axis numpy finds contiguous
    can change with the number of seeds)."""
    total = terms[0].copy()
    for term in terms[1:]:
        np.add(total, term, out=total)
    return total


def _minors(gram: np.ndarray, levels: list, fermion: bool, buffers: list[np.ndarray]) -> dict[int, np.ndarray]:
    """{k: Per (det for fermions) of the k x k minors of each seed's G} for
    level 1 (G itself, an (N x N, seeds) array) and each level of `levels`,
    one row per minor; the gathers and products go to three flat
    `buffers`, each as large as the largest level.

    Each level expands along its minors' last column, as `_expand` does:
    the term of row position p is G[row p, last column] times the minor
    without them, with the Laplace sign (-1)^(k-1-p) for fermions, and the
    terms are added in order of p. No product is written over one of its
    factors (see `_add_products`), so each minor's bits depend on its seed
    alone."""
    found = {1: gram}
    seeds = gram.shape[1]
    for k, terms in levels:
        rows = len(terms[0][0])
        a, b, product = (buffer[: rows * seeds].reshape(rows, seeds) for buffer in buffers)
        level = np.empty((rows, seeds), dtype=gram.dtype)
        for p, (weight, predecessor) in enumerate(terms):
            # the tables are built with the plan, so no bounds check here
            gram.take(weight, axis=0, out=a, mode="clip")
            if fermion and (k - 1 - p) % 2:
                np.negative(a, out=a)
            found[k - 1].take(predecessor, axis=0, out=b, mode="clip")
            if p:
                np.multiply(a, b, out=product)
                np.add(level, product, out=level)
            else:
                np.multiply(a, b, out=level)
        found[k] = level
    return found


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
    photon): the kernel's is size x N, over the collision-free outcomes
    alone for fermions. The class route's is TABLE_COST per entry of a
    seed's minors and group sums (`_class_layout`), plus CLASS_COST per
    class, which the seeds of a block share. So few photons on many modes,
    and scans of many seeds, favour the classes; many photons on few modes
    favour the kernel. A space above `limit` is never enumerated. CPU times
    on a 2-core Xeon, one thread, of whole scans of one unitary over every
    seed (collision-free seeds for fermions) at d = 2..5, plan included:

    | (modes, photons) | statistics | seeds | kernel | classes | picked |
    |---|---|---|---|---|---|
    | (18, 4) | boson | 5,985 | 0.68 s | 43 ms | classes |
    | (14, 4) | boson | 2,380 | 0.11 s | 17 ms | classes |
    | (22, 3) | fermion | 1,540 | 34 ms | 5.4 ms | classes |
    | (18, 3) | boson | 1,140 | 21 ms | 3.7 ms | classes |
    | (10, 6) | boson | 5,005 | 0.99 s | 0.50 s | classes |
    | (10, 6) | fermion | 210 | 6.7 ms | 29 ms | kernel |
    | (8, 8) | boson | 6,435 | 3.0 s | 12 s | kernel |
    | (18, 2) | boson | 171 | 1.1 ms | 2.0 ms | kernel |
    | (8, 3) | boson | 120 | 0.5 ms | 1.6 ms | kernel |

    The fit picks the faster route in 46 of 48 such scans; the two misses
    are fermion near-ties, (12, 4) and (12, 5), where the classes were 10%
    and 30% faster. Single seeds at 4 bins, the kernel with its
    enumeration: (60, 4) 18 ms against 1.6 ms by classes, (100, 3) 4.3
    against 1.0 ms, (20, 6) 8.8 against 4.4 ms; (30, 4) 1.8 against
    2.2 ms, (18, 4) 0.9 against 1.5 ms, (4, 12) 1.6 ms against 0.37 s.
    """
    size = space_size(modes, photons)
    if size > limit:
        return False
    stats = ParticleStatistics.from_string(statistics)
    bin_list = (num_bins,) if isinstance(num_bins, (int, np.integer)) else tuple(num_bins)
    outcomes = collision_free_count(modes, photons) if stats is ParticleStatistics.FERMION else size
    kernel = outcomes * photons
    # every inner offset has a class of its own, so there are max(bin_list) classes or more
    if kernel * seeds <= CLASS_COST * max(bin_list):
        return True
    classes, _ = _route_classes(modes, photons, bin_list)
    _, _, held, largest, work = _class_layout(photons, classes, stats is not ParticleStatistics.DISTINGUISHABLE)
    shared = min(seeds, _class_width(photons, len(classes), held, largest))
    return kernel <= TABLE_COST * work + CLASS_COST * len(classes) / shared


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


def _class_width(photons: int, classes: int, held: int, largest: int) -> int:
    """Seeds per block of the class route: as many as half of SCAN_BYTES
    holds (a quarter is left to the call's mode tables, `_chunk_seeds`; in
    wider blocks a two-thread scan kept more memory and was no faster), and
    at least one. A seed takes one bound's levels of minors (`held`
    entries), three gathers and products as large as the largest array and
    one more while a group is read, its gather indices and its class
    masses."""
    return max(1, SCAN_BYTES // 2 // (16 * (held + 4 * largest) + 8 * (photons * (photons + 1) + classes)))


def _table_bytes(plan: ClassPlan, seeds: int) -> tuple[int, int]:
    """Bytes that the mode tables of a call of this many seeds
    (`_mode_tables`) keep, and the most they take at once while built.
    Kept: the seeds' mode positions, the bounds' tables, and per f each
    seed's list indices and the e_T of every distinct list. Built one at a
    time: the positions (while the modes are sorted), a slab of the running
    sums, one f's lists while they are ranked, or one class's `_expand`
    arrays (2^f - 1 coefficients, f + 2 rows of weights and ones, f gathered
    weights and two gathers of k C(f, k) entries per list)."""
    used = min(plan.modes, seeds * plan.photons)
    row = used * used if plan.gram else used
    item = 16 if plan.gram else 8
    kept = 8 * seeds * plan.photons + item * row * len(plan.bounds)
    built = max(4 * 8 * seeds * plan.photons, 3 * item * row * min(plan.modes, _slab_modes(row)))
    for f, (_, rest, _, _, members) in plan.tables.items():
        if f:
            lists = seeds * len(rest)
            distinct = min(lists, math.comb(used + f - 1, f))
            kept += 8 * lists + (8 * f + item * len(members)) * distinct
            gathers = max(k * math.comb(f, k) for k in range(1, f + 1))
            built = max(built, 8 * lists * (f + 4), item * distinct * (2**f + 2 * f + 1 + 2 * gathers))
    return kept, built


def _chunk_seeds(plan: ClassPlan) -> int:
    """Seeds per chunk of a call: as many as keep its mode tables within a
    quarter of SCAN_BYTES, and within SCAN_BYTES while they are built
    (`_table_bytes`), and at least one."""

    def fits(seeds: int) -> bool:
        kept, built = _table_bytes(plan, seeds)
        return kept <= SCAN_BYTES // 4 and kept + built <= SCAN_BYTES

    lo, hi = 1, 2
    while hi < 2**40 and fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def _prefix_classes(configuration: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """(F, bound) of each nonempty class of the outcomes ranked below
    `configuration`: F its sorted modes above position j, bound its mode at j."""
    b = [m for m, count in enumerate(configuration) for _ in range(count)]
    return [(tuple(b[j + 1 :]), b[j]) for j in range(len(b)) if b[j] > 0]


def _class_layout(
    photons: int, classes: Sequence[tuple[tuple[int, ...], int]], gram: bool
) -> tuple[list, dict[int, list[tuple[int, int, int]]], int, int, int]:
    """The classes grouped by bound, then by f; per bound the levels of
    minors its groups read, (k, n_{k-1}, n_k) for k = 2..N - min f (level 1
    is G, all N columns, and level k keeps the first n_k column subsets);
    and per seed the entries of one bound's levels at once, the largest
    array (a level, or a group's minors times e; for distinguishable
    particles a group's column sums per subset) and the products of all
    classes."""
    groups: dict[int, dict[int, list[int]]] = {}
    for c, (fixed, bound) in enumerate(classes):
        groups.setdefault(bound, {}).setdefault(len(fixed), []).append(c)
    bounds = [(bound, sorted(by_f.items())) for bound, by_f in sorted(groups.items())]
    levels, held, largest, work = {}, photons, 0, 0
    for bound, by_f in bounds:
        spec, below = [], photons
        for k in range(2, photons - by_f[0][0] + 1):
            # the column subsets of level k that a group reads, or whose minors the next levels read
            count = math.comb(max(f for f, _ in by_f if f <= photons - k) + k, k)
            spec.append((k, below, count))
            below = count
        levels[bound] = spec
        for f, members in by_f:
            subsets = math.comb(photons, f)
            group = subsets * subsets if gram else subsets * (photons - f)
            largest = max(largest, group)
            work += group + (2 * subsets * subsets if gram else 2 * subsets) * len(members)
        if gram:
            sizes = [photons * photons] + [math.comb(photons, k) * count for k, _, count in spec]
            held, largest = max(held, sum(sizes)), max(largest, *sizes)
            work += photons * photons + sum(k * math.comb(photons, k) * count for k, _, count in spec)
    return bounds, levels, held, largest, work


def _minor_terms(subsets: list[tuple[np.ndarray, np.ndarray]], k: int, below: int, count: int) -> list:
    """Per row position p of level k of `_minors`, the flat indices of each
    minor's weight G[row p, last column] in G and of the minor without them
    in level k - 1: level k holds every k-subset of rows against the first
    `count` k-subsets of columns, level k - 1 the first `below` column
    subsets (level 1, G, all N)."""
    photons = len(subsets) - 1
    rows, preds = subsets[k]
    last, prefix = rows[:count, k - 1], preds[:count, k - 1]
    return [
        ((rows[:, p, None] * photons + last).ravel(), (preds[:, p, None] * below + prefix).ravel())
        for p in range(k)
    ]


def _colex_subsets(photons: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per k = 0..photons, the k-subsets of range(photons) in colex order, a
    (C(N, k), k) array, and the index of each without its position p among
    the (k - 1)-subsets, of the same shape."""
    levels, index = [], {(): 0}
    for k in range(photons + 1):
        rows = sorted(combinations(range(photons), k), key=lambda s: s[::-1])
        preds = [[index[row[:p] + row[p + 1 :]] for p in range(k)] for row in rows] if k else [[]]
        index = {row: i for i, row in enumerate(rows)}
        levels.append((np.array(rows, dtype=np.intp).reshape(len(rows), k), np.array(preds, dtype=np.intp)))
    return levels


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
