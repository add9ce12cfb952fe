import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonbin.binning import exact_bin_masses
from bosonbin.distribution import (
    SCAN_BYTES,
    BSDistribution,
    ParticleStatistics,
    ScanWorkspace,
    _batch_probabilities,
    amplitude,
    full_distribution,
    scan_width,
    transition_probability,
)
from bosonbin.fock import enumerate_configurations, is_collision_free
from bosonbin.linalg import (
    UnitaryMatrix,
    determinant,
    haar_unitary_from_seed,
    identity_unitary,
    permanent_naive,
    permanent_ryser,
    submatrix,
)

BEAMSPLITTER = UnitaryMatrix(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))


# Two photons on a 50:50 beamsplitter: bosons bunch, fermions anti-bunch,
# distinguishable particles behave classically.
@pytest.mark.parametrize(
    "statistics,outcome,expected",
    [
        ("boson", (1, 1), 0.0),
        ("boson", (2, 0), 0.5),
        ("boson", (0, 2), 0.5),
        ("fermion", (1, 1), 1.0),
        ("distinguishable", (1, 1), 0.5),
        ("distinguishable", (2, 0), 0.25),
        ("distinguishable", (0, 2), 0.25),
    ],
)
def test_beamsplitter_statistics(statistics, outcome, expected):
    dist = full_distribution(BEAMSPLITTER, (1, 1), statistics)
    assert float(dist.probabilities[dist.space.index_of(outcome)]) == pytest.approx(expected, abs=1e-12)
    direct = transition_probability(BEAMSPLITTER, (1, 1), outcome, statistics)
    assert direct == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("statistics", ["boson", "fermion", "distinguishable"])
def test_full_distribution_normalizes(statistics):
    u = haar_unitary_from_seed(7, 21)
    dist = full_distribution(u, (1, 1, 1, 0, 0, 0, 0), statistics)
    assert abs(float(dist.probabilities.sum()) - 1.0) < 1e-10
    assert np.all(dist.probabilities >= -1e-15)


@pytest.mark.parametrize("seed", [(2, 1, 0, 0, 0, 0), (3, 0, 0, 0, 0, 0), (2, 0, 2, 0, 0, 0)])
@pytest.mark.parametrize("statistics", ["boson", "distinguishable"])
def test_colliding_seeds_normalize(seed, statistics):
    u = haar_unitary_from_seed(6, 99)
    dist = full_distribution(u, seed, statistics)
    assert abs(float(dist.probabilities.sum()) - 1.0) < 1e-10


def test_transition_probability_matches_vectorized_kernel():
    # The direct per-submatrix route and the batched kernel share no code
    # past the submatrix gather, so agreement is a real cross-check.
    u = haar_unitary_from_seed(9, 5)
    space = enumerate_configurations(9, 3)
    for statistics in ("boson", "distinguishable"):
        dist = full_distribution(u, (1, 1, 1, 0, 0, 0, 0, 0, 0), statistics, space=space)
        for idx in range(0, space.size, space.size // 20):
            outcome = space.configuration(idx)
            direct = transition_probability(u, dist.seed, outcome, statistics)
            assert direct == pytest.approx(float(dist.probabilities[dist.space.index_of(outcome)]), rel=1e-10, abs=1e-14)


def test_transition_probability_fermion_route():
    u = haar_unitary_from_seed(8, 13)
    space = enumerate_configurations(8, 2)
    dist = full_distribution(u, (1, 0, 1, 0, 0, 0, 0, 0), "fermion", space=space)
    for idx in range(space.size):
        outcome = space.configuration(idx)
        direct = transition_probability(u, dist.seed, outcome, "fermion")
        assert direct == pytest.approx(float(dist.probabilities[dist.space.index_of(outcome)]), rel=1e-10, abs=1e-14)


def test_fermion_rejects_colliding_seed():
    u = haar_unitary_from_seed(5, 1)
    with pytest.raises(ValueError, match="collision-free"):
        full_distribution(u, (2, 1, 0, 0, 0), "fermion")
    with pytest.raises(ValueError, match="collision-free"):
        transition_probability(u, (2, 1, 0, 0, 0), (1, 1, 1, 0, 0), "fermion")


def test_fermion_colliding_outcomes_are_exactly_zero():
    u = haar_unitary_from_seed(6, 33)
    dist = full_distribution(u, (1, 1, 0, 0, 0, 0), "fermion")
    for idx in range(dist.space.size):
        outcome = dist.space.configuration(idx)
        if max(outcome) > 1:
            assert dist.probabilities[idx] == 0.0


def test_amplitude_squares_to_probability():
    u = haar_unitary_from_seed(7, 4)
    seed = (1, 2, 0, 0, 0, 0, 0)
    for outcome in [(3, 0, 0, 0, 0, 0, 0), (1, 1, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 2, 0)]:
        amp = amplitude(u, seed, outcome)
        assert abs(amp) ** 2 == pytest.approx(
            transition_probability(u, seed, outcome), rel=1e-12
        )


def test_identity_unitary_is_point_mass():
    u = identity_unitary(6)
    seed = (0, 2, 0, 1, 0, 0)
    for statistics in ("boson", "distinguishable"):
        dist = full_distribution(u, seed, statistics)
        assert float(dist.probabilities[dist.space.index_of(seed)]) == pytest.approx(1.0, abs=1e-12)
        assert float(dist.probabilities.sum()) == pytest.approx(1.0, abs=1e-12)


def test_permutation_unitary_relabels_modes():
    perm = [2, 0, 3, 1]
    matrix = np.zeros((4, 4), dtype=np.complex128)
    for src, dst in enumerate(perm):
        matrix[dst, src] = 1.0
    u = UnitaryMatrix(matrix)
    seed = (2, 0, 1, 0)
    image = tuple(int(sum(seed[j] for j in range(4) if perm[j] == i)) for i in range(4))
    dist = full_distribution(u, seed)
    assert float(dist.probabilities[dist.space.index_of(image)]) == pytest.approx(1.0, abs=1e-12)


def test_statistics_parsing():
    assert ParticleStatistics.from_string("boson") is ParticleStatistics.BOSON
    assert ParticleStatistics.from_string("FERMION") is ParticleStatistics.FERMION
    assert (
        ParticleStatistics.from_string(ParticleStatistics.DISTINGUISHABLE)
        is ParticleStatistics.DISTINGUISHABLE
    )
    with pytest.raises(ValueError):
        ParticleStatistics.from_string("anyon")


def test_space_mode_mismatch_rejected():
    u = haar_unitary_from_seed(5, 2)
    space = enumerate_configurations(6, 2)
    with pytest.raises(ValueError, match="modes"):
        full_distribution(u, (1, 1, 0, 0, 0), space=space)


def test_to_csv_round_trippable(tmp_path):
    u = haar_unitary_from_seed(4, 3)
    dist = full_distribution(u, (1, 1, 0, 0))
    path = tmp_path / "dist.csv"
    dist.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "# bosonbin distribution v1"
    assert "# modes=4" in lines
    assert "# photons=2" in lines
    assert "# statistics=boson" in lines
    assert "# unitary_tag=haar-3" in lines
    header_idx = lines.index("index,integer_code,occupancy,probability")
    rows = lines[header_idx + 1 :]
    assert len(rows) == dist.space.size
    total = sum(float(row.split(",")[-1]) for row in rows)
    assert total == pytest.approx(1.0, abs=1e-12)
    # repr round-trip keeps probabilities bit-exact
    first = rows[0].split(",")
    assert float(first[-1]) == float(dist.probabilities[0])


# Frozen regression values for one mid-size Haar instance. Any kernel change
# that shifts these beyond float noise is a real behavior change.
def test_pinned_haar_11_3_snapshot():
    u = haar_unitary_from_seed(11, 11)
    dist = full_distribution(u, (1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0))
    assert dist.space.size == 286
    assert abs(float(dist.probabilities.sum()) - 1.0) < 1e-12
    assert float(dist.probabilities[0]) == pytest.approx(0.023698896120147393, rel=1e-12)
    assert float(dist.probabilities[100]) == pytest.approx(0.0006111188132284646, rel=1e-12)
    assert float(dist.probabilities[-1]) == pytest.approx(0.0007863184049231391, rel=1e-12)
    top = int(np.argmax(dist.probabilities))
    assert dist.space.configuration(top) == (0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0)
    assert float(dist.probabilities[top]) == pytest.approx(0.0306108528191241, rel=1e-12)


@st.composite
def kernel_cases(draw):
    """(unitary matrix, seed, kind) on M <= 6 modes with N <= 4 photons.

    Seeds may bunch. kind "hom" puts a 50:50 beamsplitter on modes 0 and 1
    (identity elsewhere), one seed photon in each of them and the rest in
    other modes.
    """
    kind = draw(st.sampled_from(["haar", "permutation", "hom"]))
    if kind == "hom":
        modes = draw(st.integers(2, 6))
        photons = draw(st.integers(2, 4 if modes > 2 else 2))
        placed = [0, 1] + [draw(st.integers(2, modes - 1)) for _ in range(photons - 2)]
    else:
        modes = draw(st.integers(1, 6))
        photons = draw(st.integers(1, 4))
        placed = draw(st.lists(st.integers(0, modes - 1), min_size=photons, max_size=photons))
    seed = tuple(placed.count(m) for m in range(modes))
    if kind == "haar":
        matrix = haar_unitary_from_seed(modes, draw(st.integers(0, 2**16))).matrix
    elif kind == "permutation":
        perm = draw(st.permutations(range(modes)))
        matrix = np.zeros((modes, modes), dtype=np.complex128)
        matrix[perm, np.arange(modes)] = 1.0
    else:
        matrix = np.eye(modes, dtype=np.complex128)
        matrix[:2, :2] = BEAMSPLITTER.matrix
    return matrix, seed, kind


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_kernel_matches_per_outcome_oracles(case):
    matrix, seed, kind = case
    modes, photons = len(seed), sum(seed)
    space = enumerate_configurations(modes, photons)
    index = space.index_of(seed)
    probs = {
        stats: _batch_probabilities(matrix, [index], space, stats)[0]
        for stats in ParticleStatistics
        if stats is not ParticleStatistics.FERMION or is_collision_free(seed)
    }
    boson = probs[ParticleStatistics.BOSON]
    distinguishable = probs[ParticleStatistics.DISTINGUISHABLE]
    fermion = probs.get(ParticleStatistics.FERMION)
    s_fact = math.prod(math.factorial(v) for v in seed)
    q = np.abs(matrix) ** 2
    for i, outcome in enumerate(tuple(map(int, r)) for r in space.occupations):
        norm = s_fact * math.prod(math.factorial(v) for v in outcome)
        sub = submatrix(matrix, seed, outcome)
        assert boson[i] == pytest.approx(abs(permanent_ryser(sub)) ** 2 / norm, abs=1e-12)
        assert boson[i] == pytest.approx(abs(permanent_naive(sub)) ** 2 / norm, abs=1e-12)
        per_q = permanent_naive(submatrix(q, seed, outcome)).real
        assert distinguishable[i] == pytest.approx(per_q / math.prod(math.factorial(v) for v in outcome), abs=1e-12)
        if fermion is None:
            continue
        if is_collision_free(outcome):
            assert fermion[i] == pytest.approx(abs(determinant(sub)) ** 2, abs=1e-12)
        else:
            assert fermion[i] == 0.0  # Pauli exclusion, exactly
    if kind == "permutation":
        image = tuple(seed[int(np.flatnonzero(matrix[m])[0])] for m in range(modes))
        for column in probs.values():
            assert column[space.index_of(image)] == 1.0
    if kind == "hom":
        bunched = (1, 1) + tuple(seed[2:])
        assert boson[space.index_of(bunched)] < 1e-30  # Hong-Ou-Mandel dip
    if fermion is None:
        with pytest.raises(ValueError, match="collision-free"):
            _batch_probabilities(matrix, [index], space, ParticleStatistics.FERMION)


@pytest.mark.parametrize("statistics", list(ParticleStatistics))
def test_kernel_columns_do_not_depend_on_the_block(statistics):
    u = haar_unitary_from_seed(7, 8)
    space = enumerate_configurations(7, 3)
    seeds = space.collision_free_indices if statistics is ParticleStatistics.FERMION else np.arange(space.size)
    block = _batch_probabilities(u.matrix, seeds[:11], space, statistics)
    again = _batch_probabilities(u.matrix, seeds[:11], space, statistics)
    alone = [
        full_distribution(u, space.configuration(int(index)), statistics, space=space).probabilities
        for index in seeds[:11]
    ]
    # compared after every call: each call without a workspace has buffers of its own
    assert np.array_equal(block, again) and not np.shares_memory(block, again)
    assert block.shape == (11, space.size) and block.flags.c_contiguous  # one row per seed
    for j, probs in enumerate(alone):
        assert np.array_equal(block[j], probs)
        assert not any(np.shares_memory(probs, other) for other in alone[j + 1 :])


@pytest.mark.parametrize("statistics", list(ParticleStatistics))
def test_workspace_blocks_match_single_seed_distributions(statistics):
    # (8,5): 56 collision-free seeds, and over sets the widest degree (4, 70
    # rows) is not the last (5, 56 rows), which sizes the gather buffers
    u = haar_unitary_from_seed(8, 21)
    space = enumerate_configurations(8, 5)
    fermion = statistics is ParticleStatistics.FERMION
    seeds = space.collision_free_indices if fermion else np.arange(0, space.size, 13)
    workspace = ScanWorkspace(space, statistics, 16)
    # full, partial, then full blocks again: one workspace across width changes
    for block in (seeds[:16], seeds[16:21], seeds[21:37], seeds[37:53]):
        probs = _batch_probabilities(u.matrix, block, space, statistics, workspace)
        assert probs.shape == (len(block), space.size) and probs.flags.c_contiguous
        for j, index in enumerate(block):
            alone = full_distribution(u, space.configuration(int(index)), statistics, space=space)
            assert np.array_equal(probs[j], alone.probabilities)


# Bytes per outcome of one seed's peak at (30,4), measured at 32.1, 25.4 and
# 20.4: the last degree's coefficients (16 bytes, 8 for distinguishable
# particles), the probabilities (8 bytes), then the lower degrees and three
# gathers of at most one lower degree each (about 8 bytes, 4 for
# distinguishable particles). A (size, 4) index table would add 32.
SINGLE_SEED_BYTES = {
    ParticleStatistics.BOSON: 36,
    ParticleStatistics.FERMION: 28,
    ParticleStatistics.DISTINGUISHABLE: 23,
}


@pytest.mark.parametrize("statistics", list(ParticleStatistics))
def test_single_seed_kernel_peak_memory(statistics):
    # a call without a workspace makes one sized for its one seed; the
    # gathers copy no index column and no cached table is built beside them
    space = enumerate_configurations(30, 4)
    u = haar_unitary_from_seed(30, 3)
    seeds = [space.configuration(int(i)) for i in space.collision_free_indices[:2]]
    full_distribution(u, seeds[0], statistics, space=space)  # builds the space's cached tables
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        full_distribution(u, seeds[1], statistics, space=space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < SINGLE_SEED_BYTES[statistics] * space.size


@pytest.mark.parametrize("modes,photons", [(18, 4), (25, 3), (16, 2), (8, 5), (60, 4)])
@pytest.mark.parametrize("statistics", list(ParticleStatistics))
def test_scan_width_fills_the_byte_budget(modes, photons, statistics):
    # a scan block is the widest that fits SCAN_BYTES, or one seed
    space = enumerate_configurations(modes, photons)
    width = scan_width(space, statistics)
    assert width == 1 or ScanWorkspace(space, statistics, width).nbytes <= SCAN_BYTES
    assert ScanWorkspace(space, statistics, width + 1).nbytes > SCAN_BYTES


def test_scan_workspace_is_no_larger_than_sixteen_seeds_of_full_tables():
    # 5,703,808 bytes: the 16-wide (18,4) boson workspace of the kernel that
    # kept a degree-4 table and two degree-4 gathers; the blocked last degree
    # fits 25 seeds in it
    space = enumerate_configurations(18, 4)
    width = scan_width(space, ParticleStatistics.BOSON)
    assert width == 25 and ScanWorkspace(space, ParticleStatistics.BOSON, width).nbytes <= 5_703_808


def test_no_route_builds_a_table_of_the_space():
    # one (size, 4) intp table at (60,4) is 19 MB; what each route allocates
    # beyond what it keeps (results, cached arrays) stays below that
    # (`codes` builds Python lists only, and is slow to trace)
    space = enumerate_configurations(60, 4)
    table = space.size * space.photons * np.dtype(np.intp).itemsize
    u = haar_unitary_from_seed(60, 2)
    workspace = ScanWorkspace(space, ParticleStatistics.BOSON, 2)
    routes = [
        lambda: space.collision_free_indices,
        lambda: space.factorial_products,
        lambda: space.configuration(space.size - 1),
        lambda: _batch_probabilities(u.matrix, [3, space.size - 1], space, workspace=workspace,
                                     statistics=ParticleStatistics.BOSON),
    ]
    seed = space.configuration(int(space.collision_free_indices[-1]))
    routes += [lambda s=s: full_distribution(u, seed, s, space=space) for s in ParticleStatistics]
    for route in routes:
        tracemalloc.start()
        try:
            route()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - current < table
    assert not any(isinstance(v, np.ndarray) and v.ndim == 2 for v in vars(space).values())


def _digest(probs):
    return hashlib.sha256(np.ascontiguousarray(probs, dtype="<f8").tobytes()).hexdigest()


# Recorded from the kernel that gathered every degree through full step
# tables; the blocked last degree keeps every bit.
PINNED_DIGESTS = {
    "boson": "1db70755a6cd4d7d36f2845a98a4a5bcfbc32f038c37fb23838936aea9b31857",
    "fermion": "e241723cc5dc970edbe832a0e32a3120e65c45ac78e07bf3b9c49c44d6131551",
    "distinguishable": "132974f6db5f93b1d1ac5f879930614b6366dfc287319daad1fcbbca4c4e4ce7",
    "18x4 boson block": "ff261964b39513b4e7fb75fc7e04bc96b4114f071b7a14eb6ab541c31bc9a878",
    "8x5 fermion block": "dc35263cc88f8bc5fc146f90f2d1f2e576e94e9a951f8d480b6182ee136b3e9c",
    # a last degree of one entry, multiplied in place as the full tables did
    "6x6 fermion": "1401c96fc091bc0d7b721812a2befd2f726be056ea53e785f58c73aa46e9c793",
    # the class route on a block of one seed; re-pinned when the route was
    # batched over seeds (the largest move of a mass: 1.7e-18), and when its
    # Gram and e_T tables were built once per call and its minors in one
    # subset pass (4.4e-16)
    "5x5 fermion exact bin masses": "5bfdabb0e007ae9869c7d508f7f4642a8cc1912cffc02d1de7e322add5cc0e4b",
    # a head of one row: its one-element products are made out of place, as
    # the full tables made them in longer arrays
    "4x2 fermion": "4d7c5acd6094da8654093c6661c4a9fcdf1975bc4a089777c33fe877836c3d94",
}


def test_kernel_bits_are_pinned():
    wide = enumerate_configurations(60, 4)
    u = haar_unitary_from_seed(60, 19)
    seeds = {  # a bunched boson seed, a collision-free fermion seed, three photons in one mode
        "boson": (0,) * 7 + (2,) + (0,) * 20 + (1,) + (0,) * 30 + (1,),
        "fermion": (0,) * 3 + (1,) + (0,) * 10 + (1,) + (0,) * 25 + (1,) + (0,) * 18 + (1,),
        "distinguishable": (0,) * 11 + (3,) + (0,) * 40 + (1,) + (0,) * 7,
    }
    got = {s: _digest(full_distribution(u, seed, s, space=wide).probabilities) for s, seed in seeds.items()}
    space = enumerate_configurations(18, 4)
    seeds = np.arange(1000, 1016)
    block = _batch_probabilities(haar_unitary_from_seed(18, 5).matrix, seeds, space, ParticleStatistics.BOSON)
    got["18x4 boson block"] = _digest(block)
    space = enumerate_configurations(8, 5)
    seeds = space.collision_free_indices[20:36]
    block = _batch_probabilities(haar_unitary_from_seed(8, 6).matrix, seeds, space, ParticleStatistics.FERMION)
    got["8x5 fermion block"] = _digest(block)
    dist = full_distribution(haar_unitary_from_seed(6, 192), (1,) * 6, "fermion")
    got["6x6 fermion"] = _digest(dist.probabilities)
    masses = exact_bin_masses(haar_unitary_from_seed(5, 30), (1,) * 5, 7, "fermion")
    got["5x5 fermion exact bin masses"] = _digest(masses)
    dist = full_distribution(haar_unitary_from_seed(4, 1), (1, 1, 0, 0), "fermion")
    got["4x2 fermion"] = _digest(dist.probabilities)
    assert got == PINNED_DIGESTS


def test_kernel_checks_normalization_of_every_seed():
    space = enumerate_configurations(4, 2)
    matrix = identity_unitary(4).matrix.copy()
    matrix[3, 3] = 1.5  # not unitary: only seeds with a photon in mode 3 lose normalization
    _batch_probabilities(matrix, [0, 1, 2], space, ParticleStatistics.BOSON)
    bad = space.index_of((0, 1, 0, 1))
    with pytest.raises(RuntimeError, match="failed to normalize.*0, 1, 0, 1"):
        _batch_probabilities(matrix, [0, bad], space, ParticleStatistics.DISTINGUISHABLE)
