import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonbin.binning import (
    BinPartition,
    bin_masses,
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
from bosonbin.fock import enumerate_configurations, is_collision_free, space_size
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
    block = np.column_stack([dist.probabilities, dist.probabilities])
    for values in (dist.probabilities, block):
        with pytest.raises(ValueError, match="partition covers"):
            bin_masses(values, make_partition(dist.space.size + 1, 3))


def test_bin_masses_of_a_block_are_its_columns_alone():
    # one (size, b) call gives each column the bits of a one-vector call,
    # for a scan block of probabilities and for draw counts
    space = enumerate_configurations(18, 4)
    part = make_partition(space.size, 5)
    seeds = np.arange(0, space.size, space.size // 16)[:16]
    probs = _batch_probabilities(haar_unitary_from_seed(18, 2).matrix, seeds, space, ParticleStatistics.BOSON)
    counts = np.random.default_rng(3).multinomial(10_000, np.full(space.size, 1 / space.size), size=7).T
    for block in (probs, counts):
        binned = bin_masses(block, part)
        assert binned.shape == (5, block.shape[1]) and binned.dtype == block.dtype
        for c in range(block.shape[1]):
            assert np.array_equal(binned[:, c], bin_masses(np.ascontiguousarray(block[:, c]), part))


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


@st.composite
def bin_mass_cases(draw):
    """(matrix, seed, bin count) on 2 <= M <= 6 modes with N <= 4 photons:
    Haar or permutation unitaries, seeds that may bunch, and bin counts from
    2 to the space size, the size itself drawn often."""
    modes = draw(st.integers(2, 6))
    photons = draw(st.integers(1, 4))
    placed = draw(st.lists(st.integers(0, modes - 1), min_size=photons, max_size=photons))
    seed = tuple(placed.count(m) for m in range(modes))
    if draw(st.booleans()):
        matrix = haar_unitary_from_seed(modes, draw(st.integers(0, 2**16))).matrix
    else:
        matrix = np.zeros((modes, modes), dtype=np.complex128)
        matrix[draw(st.permutations(range(modes))), np.arange(modes)] = 1.0
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
        probs = _batch_probabilities(matrix, [space.index_of(seed)], space, stats)[:, 0]
        assert np.allclose(masses, np.add.reduceat(probs, starts), rtol=0, atol=1e-13)
        if num_bins == space.size:  # one outcome per bin
            outcomes = [tuple(map(int, r)) for r in space.occupations]
            direct = [transition_probability(matrix, seed, r, stats) for r in outcomes]
            assert np.allclose(masses, direct, rtol=0, atol=1e-13)


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
        (20, 6, 16, 2_000_000, False),
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
