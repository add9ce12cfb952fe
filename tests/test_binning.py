import itertools
import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonbin.binning import (
    BinPartition,
    ClassPlan,
    bin_masses,
    class_bin_masses,
    exact_bin_masses,
    kernel_is_cheaper,
    make_partition,
    mpb_from_vector,
)
from bosonbin.distribution import (
    ParticleStatistics,
    _batch_probabilities,
    full_distribution,
    transition_probability,
)
from bosonbin.fock import DEFAULT_ENUMERATION_LIMIT, enumerate_configurations, is_collision_free, space_size
from bosonbin.linalg import haar_unitary_from_seed, identity_unitary


@pytest.mark.parametrize(
    "size,bins,widths",
    [
        (10, 3, (4, 3, 3)),
        (12, 4, (3, 3, 3, 3)),
        (13, 4, (4, 3, 3, 3)),
        (15, 4, (4, 4, 4, 3)),
        (7, 7, (1, 1, 1, 1, 1, 1, 1)),
        (286, 4, (72, 72, 71, 71)),
    ],
)
def test_make_partition_widths(size, bins, widths):
    part = make_partition(size, bins)
    assert part.widths == widths
    assert sum(part.widths) == size
    assert part.offsets[0] == 0
    assert part.offsets[-1] == size
    assert len(part.offsets) == bins + 1
    # widths differ by at most one and never increase left to right
    assert max(widths) - min(widths) <= 1
    assert list(widths) == sorted(widths, reverse=True)


def test_make_partition_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_partition(10, 1)
    with pytest.raises(ValueError):
        make_partition(3, 4)
    with pytest.raises(ValueError):
        make_partition(10.0, 2)
    with pytest.raises(ValueError):
        make_partition(10, "2")


def test_make_partition_accepts_numpy_integers():
    part = make_partition(np.int64(10), np.int64(3))
    assert part.widths == (4, 3, 3)
    assert isinstance(part.num_bins, int)
    assert isinstance(part.space_size, int)


def test_bin_probabilities_matches_explicit_loop():
    u = haar_unitary_from_seed(8, 44)
    dist = full_distribution(u, (1, 1, 1, 0, 0, 0, 0, 0))
    part = make_partition(dist.space.size, 5)
    binned = bin_masses(dist.probabilities, part)
    assert binned.shape == (5,)
    for label in range(5):
        lo, hi = part.offsets[label], part.offsets[label + 1]
        assert binned[label] == pytest.approx(
            float(dist.probabilities[lo:hi].sum()), rel=1e-14
        )
    assert float(binned.sum()) == pytest.approx(1.0, abs=1e-12)


def test_bin_probabilities_size_mismatch():
    u = haar_unitary_from_seed(6, 1)
    dist = full_distribution(u, (1, 1, 0, 0, 0, 0))
    block = np.vstack([dist.probabilities, dist.probabilities])
    for values in (dist.probabilities, block):
        with pytest.raises(ValueError, match="partition covers"):
            bin_masses(values, make_partition(dist.space.size + 1, 3))


def test_bin_masses_of_a_block_are_its_columns_alone():
    # one (b, size) call gives each row the bits of a one-vector call, for a
    # scan block of probabilities and for draw counts
    space = enumerate_configurations(18, 4)
    part = make_partition(space.size, 5)
    seeds = np.arange(0, space.size, space.size // 16)[:16]
    probs = _batch_probabilities(haar_unitary_from_seed(18, 2).matrix, seeds, space, ParticleStatistics.BOSON)
    counts = np.random.default_rng(3).multinomial(10_000, np.full(space.size, 1 / space.size), size=7)
    for block in (probs, counts):
        binned = bin_masses(block, part)
        assert binned.shape == (block.shape[0], 5) and binned.dtype == block.dtype
        for r in range(block.shape[0]):
            assert np.array_equal(binned[r], bin_masses(np.ascontiguousarray(block[r]), part))


@pytest.mark.parametrize(
    "size,num_bins",
    [(5985, d) for d in (2, 3, 4, 5, 7, 64, 512)] + [(37, 36), (37, 37), (595_665, 4)],
)
def test_bin_masses_match_reduceat_bit_for_bit(size, num_bins):
    # bin_masses sums each bin as its first value plus a pairwise sum of the
    # rest; numpy's reduceat sums in that order, so the bits agree for float
    # probabilities and integer counts, as vectors and as rows of a block
    # ((595,665, 4) is (60,4): bins of about 149k outcomes)
    rng = np.random.default_rng(size + num_bins)
    part = make_partition(size, num_bins)
    starts = np.asarray(part.offsets[:-1], dtype=np.intp)
    floats = rng.dirichlet(np.full(size, 0.3), size=3)
    counts = rng.multinomial(10 * size, np.full(size, 1 / size), size=3)
    for block in (floats, counts):
        for values in (block[0], block):
            binned = bin_masses(values, part)
            expected = np.add.reduceat(values, starts, axis=-1)
            assert binned.dtype == values.dtype
            assert np.array_equal(binned, expected)


def test_mpb_from_vector_basics():
    r = mpb_from_vector(np.array([0.1, 0.5, 0.3, 0.1]))
    assert r.label == 1
    assert r.p0 == 0.5
    assert r.p1 == 0.3
    assert r.gap == pytest.approx(0.2)
    assert not r.tie_flag


def test_mpb_tie_resolves_to_smallest_label():
    r = mpb_from_vector(np.array([0.25, 0.25, 0.25, 0.25]))
    assert r.label == 0
    assert r.gap == 0.0
    assert r.tie_flag


def test_mpb_tie_epsilon_threshold():
    v = np.array([0.5, 0.375, 0.125])  # gap is exactly 0.125 in binary
    assert not mpb_from_vector(v, tie_epsilon=0.1).tie_flag
    assert mpb_from_vector(v, tie_epsilon=0.125).tie_flag
    with pytest.raises(ValueError):
        mpb_from_vector(v, tie_epsilon=-0.01)


def test_mpb_from_vector_shape_checks():
    with pytest.raises(ValueError):
        mpb_from_vector(np.array([1.0]))
    with pytest.raises(ValueError):
        mpb_from_vector(np.ones((2, 2)))


def test_most_probable_bin_reads_the_heaviest_bin():
    u = haar_unitary_from_seed(9, 8)
    dist = full_distribution(u, (1, 1, 1, 0, 0, 0, 0, 0, 0))
    binned = bin_masses(dist.probabilities, make_partition(dist.space.size, 4))
    r = mpb_from_vector(binned)
    assert r.label == int(np.argmax(binned))
    assert r.p0 >= r.p1
    assert r.gap == r.p0 - r.p1


def test_pinned_haar_11_3_binned_snapshot():
    u = haar_unitary_from_seed(11, 11)
    dist = full_distribution(u, (1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0))
    binned = bin_masses(dist.probabilities, make_partition(dist.space.size, 4))
    expected = [
        0.18166021247064024,
        0.2457412632690592,
        0.3355184422708135,
        0.2370800819894875,
    ]
    assert binned == pytest.approx(expected, rel=1e-12)
    r = mpb_from_vector(binned)
    assert r.label == 2
    assert r.gap == pytest.approx(0.0897771790017543, rel=1e-12)


def test_partition_is_frozen():
    part = make_partition(10, 2)
    assert isinstance(part, BinPartition)
    with pytest.raises(AttributeError):
        part.num_bins = 3


def draw_unitary(draw, modes):
    """A Haar unitary or a permutation matrix on `modes` modes."""
    if draw(st.booleans()):
        return haar_unitary_from_seed(modes, draw(st.integers(0, 2**16))).matrix
    matrix = np.zeros((modes, modes), dtype=np.complex128)
    matrix[draw(st.permutations(range(modes))), np.arange(modes)] = 1.0
    return matrix


@st.composite
def bin_mass_cases(draw):
    """(matrix, seed, bin count) on 2 <= M <= 6 modes with N <= 4 photons:
    Haar or permutation unitaries, seeds that may bunch, and bin counts from
    2 to the space size, the size itself drawn often."""
    modes = draw(st.integers(2, 6))
    photons = draw(st.integers(1, 4))
    placed = draw(st.lists(st.integers(0, modes - 1), min_size=photons, max_size=photons))
    seed = tuple(placed.count(m) for m in range(modes))
    matrix = draw_unitary(draw, modes)
    size = space_size(modes, photons)
    return matrix, seed, draw(st.one_of(st.just(size), st.integers(2, size)))


@settings(max_examples=150, deadline=None)
@given(bin_mass_cases())
def test_exact_bin_masses_match_the_kernel(case):
    matrix, seed, num_bins = case
    space = enumerate_configurations(len(seed), sum(seed))
    starts = np.asarray(make_partition(space.size, num_bins).offsets[:-1])
    for stats in ParticleStatistics:
        if stats is ParticleStatistics.FERMION and not is_collision_free(seed):
            with pytest.raises(ValueError, match="collision-free"):
                exact_bin_masses(matrix, seed, num_bins, stats)
            continue
        masses = exact_bin_masses(matrix, seed, num_bins, stats)
        probs = _batch_probabilities(matrix, [space.index_of(seed)], space, stats)[0]
        assert np.allclose(masses, np.add.reduceat(probs, starts), rtol=0, atol=1e-13)
        if num_bins == space.size:  # one outcome per bin
            outcomes = [tuple(map(int, r)) for r in space.occupations]
            direct = [transition_probability(matrix, seed, r, stats) for r in outcomes]
            assert np.allclose(masses, direct, rtol=0, atol=1e-13)


@st.composite
def class_block_cases(draw):
    """(matrix, space, seed indices, bin counts, width) on 2 <= M <= 6 modes
    with N <= 4 photons: Haar or permutation unitaries, blocks of seeds that
    may bunch, up to three bin counts from 2 to the space size, and a block
    width from 1 to the seed count."""
    modes = draw(st.integers(2, 6))
    photons = draw(st.integers(1, 4))
    matrix = draw_unitary(draw, modes)
    space = enumerate_configurations(modes, photons)
    seeds = draw(st.lists(st.integers(0, space.size - 1), min_size=1, max_size=12, unique=True))
    bins = draw(st.lists(st.one_of(st.just(space.size), st.integers(2, space.size)), min_size=1, max_size=3, unique=True))
    return matrix, space, np.array(seeds), tuple(bins), draw(st.integers(1, len(seeds)))


@settings(max_examples=150, deadline=None)
@given(class_block_cases())
def test_class_blocks_match_the_kernel_and_keep_each_seeds_bits(case):
    # one batched call against the kernel's bin sums of every seed, and each
    # seed's masses bit for bit alone, in blocks of another width and in
    # reverse order
    matrix, space, seeds, bins, width = case
    for stats in ParticleStatistics:
        picked = seeds
        if stats is ParticleStatistics.FERMION:
            picked = seeds[[is_collision_free(space.configuration(int(i))) for i in seeds]]
            if not len(picked):
                continue
        plan = ClassPlan(space.modes, space.photons, bins, stats)
        columns = space.expansion.rows(picked)
        masses = class_bin_masses(matrix, columns, plan)
        probs = _batch_probabilities(matrix, picked, space, stats)
        for d in bins:
            assert masses[d].shape == (len(picked), d)
            assert np.allclose(masses[d], bin_masses(probs, make_partition(space.size, d)), rtol=0, atol=1e-13)
        plan.width = width
        reversed_masses = class_bin_masses(matrix, columns[::-1], plan)
        for i in range(len(picked)):
            alone = class_bin_masses(matrix, columns[i : i + 1], plan)
            for d in bins:
                assert np.array_equal(alone[d][0], masses[d][i])
                assert np.array_equal(reversed_masses[d][len(picked) - 1 - i], masses[d][i])


def test_class_blocks_at_scan_size_keep_each_seeds_bits():
    # every (18,4) seed in blocks of the plan's width (several blocks, a
    # partial last one), against seeds alone and in odd blocks of 7
    space = enumerate_configurations(18, 4)
    matrix = haar_unitary_from_seed(18, 8).matrix
    plan = ClassPlan(18, 4, (2, 3, 4, 5), ParticleStatistics.BOSON)
    assert 1 < plan.width < space.size
    columns = space.expansion.rows()
    masses = class_bin_masses(matrix, columns, plan)
    picks = np.arange(3, space.size, space.size // 16)
    plan.width = 7
    odd = class_bin_masses(matrix, columns[picks[0] : picks[0] + 30], plan)
    for d in plan.prefixes:
        assert np.array_equal(odd[d], masses[d][picks[0] : picks[0] + 30])
        for i in picks:
            assert np.array_equal(class_bin_masses(matrix, columns[i : i + 1], plan)[d][0], masses[d][i])


def test_class_blocks_refuse_a_bunched_fermion_seed():
    plan = ClassPlan(4, 2, (3,), ParticleStatistics.FERMION)
    with pytest.raises(ValueError, match="collision-free"):
        class_bin_masses(identity_unitary(4).matrix, np.array([[0, 1], [2, 2]]), plan)


def inline_rank(occupation):
    """Canonical rank of a configuration: sum_j C(a_j + j, j + 1) over its
    photons' modes a_0 <= a_1 <= ..., coded apart from fock."""
    sorted_modes = [m for m, count in enumerate(occupation) for _ in range(count)]
    return sum(math.comb(a + j, j + 1) for j, a in enumerate(sorted_modes))


def test_inline_rank_is_the_canonical_order():
    space = enumerate_configurations(7, 3)
    ranks = [inline_rank(tuple(map(int, row))) for row in space.occupations]
    assert ranks == list(range(space.size))


def block_oracle(modes, blocks, num_bins, stats):
    """Bin masses of a unitary that is the identity outside Haar blocks.

    blocks lists (active modes, block unitary seed, photons on each active
    mode). Photons never leave their block, so an outcome's probability is
    the product of each block's kernel probability for its restricted
    outcome, and every outcome with mass is reached from the blocks' own
    small spaces. Returns (unitary, seed, masses)."""
    unitary = np.eye(modes, dtype=np.complex128)
    seed = [0] * modes
    outcomes = []
    for active, haar_seed, photons_on in blocks:
        v = haar_unitary_from_seed(len(active), haar_seed)
        unitary[np.ix_(active, active)] = v.matrix
        for mode, count in zip(active, photons_on):
            seed[mode] = count
        dist = full_distribution(v, photons_on, stats)
        outcomes.append([(active, row, p) for row, p in zip(dist.space.occupations, dist.probabilities)])
    offsets = make_partition(space_size(modes, sum(seed)), num_bins).offsets
    masses = np.zeros(num_bins)
    for combo in itertools.product(*outcomes):
        occupation = [0] * modes
        probability = 1.0
        for active, row, p in combo:
            for mode, count in zip(active, row):
                occupation[mode] = int(count)
            probability *= p
        masses[bisect_right(offsets, inline_rank(occupation)) - 1] += probability
    return unitary, tuple(seed), masses


def scattered_modes(modes, count, seed):
    return sorted(int(m) for m in np.random.default_rng(seed).choice(modes, count, replace=False))


@pytest.mark.parametrize("num_bins", [2, 3, 4, 7, 64, 512])
@pytest.mark.parametrize("stats", list(ParticleStatistics))
def test_exact_bin_masses_above_the_limit_match_a_block_oracle(stats, num_bins):
    # k = 10 active modes of M = 100 with N = 6: 1.6e9 outcomes, 5,005 with mass
    active = scattered_modes(100, 10, 9)
    photons_on = (1, 0, 1, 1, 0, 1, 0, 1, 0, 1)
    unitary, seed, oracle = block_oracle(100, [(active, 4, photons_on)], num_bins, stats)
    assert space_size(100, 6) > 100 * DEFAULT_ENUMERATION_LIMIT
    masses = exact_bin_masses(unitary, seed, num_bins, stats)
    assert np.allclose(masses, oracle, rtol=0, atol=1e-13)
    if num_bins >= 64:  # bins narrower than the support's gaps hold nothing
        assert np.count_nonzero(oracle == 0.0) > num_bins // 2
        assert np.count_nonzero(oracle > 1e-6) > 2


@pytest.mark.parametrize("stats", [ParticleStatistics.BOSON, ParticleStatistics.DISTINGUISHABLE])
def test_exact_bin_masses_above_the_limit_with_bunched_seed(stats):
    active = scattered_modes(100, 10, 11)
    photons_on = (2, 0, 0, 1, 0, 0, 3, 0, 0, 0)
    unitary, seed, oracle = block_oracle(100, [(active, 5, photons_on)], 5, stats)
    assert np.allclose(exact_bin_masses(unitary, seed, 5, stats), oracle, rtol=0, atol=1e-13)


@pytest.mark.parametrize("num_bins", [3, 64])
@pytest.mark.parametrize("stats", list(ParticleStatistics))
def test_exact_bin_masses_above_the_limit_factorize_over_two_blocks(stats, num_bins):
    # two photon groups on disjoint scattered blocks: the distribution is the
    # product of the blocks' distributions
    modes = scattered_modes(100, 11, 13)
    blocks = [(modes[:5], 6, (1, 1, 0, 1, 0)), (modes[5:], 7, (0, 1, 0, 1, 1, 0))]
    unitary, seed, oracle = block_oracle(100, blocks, num_bins, stats)
    assert np.allclose(exact_bin_masses(unitary, seed, num_bins, stats), oracle, rtol=0, atol=1e-13)


@pytest.mark.parametrize("stats", list(ParticleStatistics))
def test_exact_bin_masses_check_normalization(stats):
    matrix = identity_unitary(4).matrix.copy()
    matrix[3, 3] = 1.5  # not unitary: only seeds with a photon in mode 3 lose normalization
    assert np.isclose(exact_bin_masses(matrix, (1, 1, 0, 0), 3, stats).sum(), 1.0)
    with pytest.raises(RuntimeError, match=r"failed to normalize.*0, 1, 0, 1"):
        exact_bin_masses(matrix, (0, 1, 0, 1), 3, stats)


@pytest.mark.parametrize(
    "modes,photons,bins,limit,kernel",
    [
        (60, 4, 4, 2_000_000, False),  # 595,665 outcomes against 13 small classes
        (20, 6, 4, 2_000_000, False),
        (20, 6, 16, 2_000_000, True),  # 80 classes: 11 ms by the kernel against 11-16 ms
        (8, 3, 4, 2_000_000, True),  # 120 outcomes
        (8, 3, 4, 100, False),  # the space is above the limit
        (4, 12, 4, 2_000_000, True),  # 455 outcomes against Gram tables of 853,776 entries
        (3, 18, 2, 2_000_000, True),
        (100, 6, 4, 2_000_000, False),
        (60, 4, 2000, 2_000_000, True),  # 2,000 classes cost more than the space
    ],
)
def test_kernel_is_cheaper_reads_the_shape(modes, photons, bins, limit, kernel):
    assert kernel_is_cheaper(modes, photons, bins, limit=limit) is kernel
