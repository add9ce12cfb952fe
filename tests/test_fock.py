import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

from bosonbin import rng as rng_policy
from bosonbin.distribution import full_distribution
from bosonbin.fock import (
    CapacityError,
    ExpansionStep,
    FockSpace,
    _check_colex,
    _check_predecessors,
    collision_free_count,
    enumerate_configurations,
    format_configuration,
    integer_code,
    is_collision_free,
    parse_configuration,
    space_size,
    unrank,
    validate_configuration,
)
from bosonbin.linalg import haar_unitary_from_seed

# All ten two-photon states on four modes, in code order.
FOUR_TWO_CONFIGS = [
    (2, 0, 0, 0),
    (1, 1, 0, 0),
    (0, 2, 0, 0),
    (1, 0, 1, 0),
    (0, 1, 1, 0),
    (0, 0, 2, 0),
    (1, 0, 0, 1),
    (0, 1, 0, 1),
    (0, 0, 1, 1),
    (0, 0, 0, 2),
]
FOUR_TWO_CODES = [2, 3, 4, 5, 6, 8, 9, 10, 12, 16]


def configurations(space):
    """Every configuration of the space as a tuple, read off its occupation rows."""
    return [tuple(map(int, r)) for r in space.occupations]


@pytest.mark.parametrize(
    "modes,photons",
    [(1, 1), (2, 2), (4, 2), (6, 3), (10, 4), (18, 2), (13, 5)],
)
def test_space_size_matches_binomial(modes, photons):
    assert space_size(modes, photons) == math.comb(modes + photons - 1, photons)


@pytest.mark.parametrize("modes,photons", [(4, 2), (6, 3), (5, 5)])
def test_collision_free_count(modes, photons):
    assert collision_free_count(modes, photons) == math.comb(modes, photons)


def test_enumeration_order_and_codes(space_4_2):
    assert space_4_2.size == 10
    assert configurations(space_4_2) == FOUR_TWO_CONFIGS
    assert list(space_4_2.codes) == FOUR_TWO_CODES


def test_integer_code_formula():
    # base-N positional value of the occupation list
    assert integer_code((2, 0, 0, 0), 2) == 2
    assert integer_code((0, 0, 0, 2), 2) == 16
    assert integer_code((1, 0, 1, 1), 3) == 1 + 9 + 27


def test_integer_code_rejects_tiny_base():
    with pytest.raises(ValueError):
        integer_code((1,), 1)


@pytest.mark.parametrize("modes,photons", [(4, 2), (7, 3), (6, 4), (9, 2)])
def test_codes_are_injective(modes, photons):
    space = enumerate_configurations(modes, photons)
    assert len(set(space.codes)) == space.size
    assert all(a < b for a, b in zip(space.codes, space.codes[1:]))


def test_collision_free_partition(space_4_2):
    configs = configurations(space_4_2)
    cf = [configs[i] for i in space_4_2.collision_free_indices]
    assert len(cf) == 6
    assert all(max(c) == 1 for c in cf)
    assert all(is_collision_free(c) for c in cf)
    assert not is_collision_free((2, 0, 0, 0))


def test_validate_configuration_errors():
    with pytest.raises(ValueError):
        validate_configuration((1, -1, 0), 3, 0)
    with pytest.raises(ValueError):
        validate_configuration((1, 1, 1), 3, 2)
    with pytest.raises(ValueError):
        validate_configuration((1, 1), 3, 2)
    assert validate_configuration((1, 1, 0), 3, 2) == (1, 1, 0)


def test_index_of_configuration(space_4_2):
    assert space_4_2.index_of((0, 2, 0, 0)) == 2
    assert space_4_2.index_of((0, 0, 0, 2)) == 9


@pytest.mark.parametrize("modes,photons", [(1, 1), (5, 1), (4, 2), (8, 8), (3, 18)])
def test_index_of_round_trips(modes, photons):
    space = enumerate_configurations(modes, photons)
    assert [space.index_of(c) for c in configurations(space)] == list(range(space.size))
    assert [unrank(modes, photons, i) for i in range(space.size)] == configurations(space)
    with pytest.raises(ValueError):
        space.index_of((photons + 1,) + (0,) * (modes - 1))
    for rank in (-1, space.size):
        with pytest.raises(IndexError):
            unrank(modes, photons, rank)


def test_unrank_at_benchmark_size():
    space = enumerate_configurations(60, 4)
    ranks = rng_policy.generator(4).choice(space.size, size=2000, replace=False)
    for rank in [0, space.size - 1, *ranks.tolist()]:
        configuration = unrank(60, 4, rank)
        assert configuration == space.configuration(rank)
        assert space.index_of(configuration) == rank


def _code_order(modes, photons):
    """Photon mode lists sorted by integer code (by mode index for one photon)."""
    combos = list(combinations_with_replacement(range(modes), photons))
    if photons == 1:
        return np.array(combos)

    def code(combo):
        return integer_code(np.bincount(combo, minlength=modes))

    return np.array(sorted(combos, key=code))


@pytest.mark.parametrize(
    "modes,photons",
    [(m, n) for m in range(1, 9) for n in range(1, 7)] + [(3, 18)],
)
def test_mode_combos_follow_integer_code_order(modes, photons):
    assert np.array_equal(enumerate_configurations(modes, photons).mode_combos, _code_order(modes, photons))


@pytest.mark.parametrize("modes,photons", [(7, 4), (9, 3), (6, 6)])
@pytest.mark.parametrize("distinct", [False, True])
def test_step_tables(modes, photons, distinct):
    space = enumerate_configurations(modes, photons)
    steps = space.fermion_steps if distinct else space.expansion_steps
    prev = np.zeros((1, 0), dtype=np.intp)  # degree 0: the empty row
    for k, step in enumerate(steps, start=1):
        degree = enumerate_configurations(modes, k)
        rows = degree.mode_combos[degree.collision_free_indices] if distinct else degree.mode_combos
        assert np.array_equal(step.modes, rows)
        for p in range(k):
            repeat = step.modes[:, p] == step.modes[:, p - 1] if p else np.zeros(len(rows), bool)
            pred = step.predecessors[:, p]
            assert np.array_equal(pred == len(prev), repeat)
            assert np.array_equal(prev[pred[~repeat]], np.delete(rows[~repeat], p, axis=1))
        prev = step.modes


@pytest.mark.parametrize("modes,photons", [(8, 5), (18, 4), (3, 6)])
@pytest.mark.parametrize("distinct", [False, True])
def test_step_table_columns_are_contiguous(modes, photons, distinct):
    # the kernel gathers with one column at a time; np.take copies a strided index array
    space = enumerate_configurations(modes, photons)
    for step in space.fermion_steps if distinct else space.expansion_steps:
        for p in range(step.modes.shape[1]):
            assert step.modes[:, p].flags.c_contiguous
            assert step.predecessors[:, p].flags.c_contiguous


def _colex_rank(row, distinct):
    """Colex rank of one sorted row, from the combinatorial number system."""
    return sum(math.comb(int(a) + (0 if distinct else j), j + 1) for j, a in enumerate(row))


@pytest.mark.parametrize("modes,photons", [(60, 4), (18, 4), (25, 3)])
@pytest.mark.parametrize("distinct", [False, True])
def test_step_tables_at_benchmark_sizes(modes, photons, distinct):
    space = enumerate_configurations(modes, photons)
    steps = space.fermion_steps if distinct else space.expansion_steps
    rng = rng_policy.generator(modes * 10 + photons)
    prev = np.zeros((1, 0), dtype=np.intp)
    for k, step in enumerate(steps, start=1):
        rows = step.modes
        assert len(rows) == (math.comb(modes, k) if distinct else math.comb(modes + k - 1, k))
        sample = rng.choice(len(rows), size=min(1000, len(rows)), replace=False)
        assert [_colex_rank(rows[i], distinct) for i in sample] == sample.tolist()
        if k == photons and not distinct:
            assert [space.index_of(space.configuration(int(i))) for i in sample] == sample.tolist()
        for i in sample:
            for p in range(k):
                pred = step.predecessors[i, p]
                if p and rows[i, p] == rows[i, p - 1]:
                    assert pred == len(prev)
                else:
                    assert np.array_equal(prev[pred], np.delete(rows[i], p))
        prev = rows
    if distinct:
        assert np.array_equal(steps[-1].modes, space.mode_combos[space.collision_free_indices])


def _swap(rows):
    rows[[3, 4]] = rows[[4, 3]]
    return rows


def _repeat(rows):
    rows[5] = rows[4]
    return rows


def _drop_last(rows):
    return rows[:-1]


def _unsort(rows):
    rows[-2] = rows[-2][::-1]
    return rows


def _out_of_range(rows):
    rows[-1, -1] += 1
    return rows


@pytest.mark.parametrize("corrupt", [_swap, _repeat, _drop_last, _unsort, _out_of_range])
@pytest.mark.parametrize("distinct", [False, True])
def test_colex_check_refuses_a_corrupted_table(corrupt, distinct):
    space = enumerate_configurations(7, 3)
    rows = space.fermion_steps[-1].modes if distinct else space.mode_combos
    _check_colex(rows, 7, distinct)
    with pytest.raises(RuntimeError, match="colex"):
        _check_colex(corrupt(rows.copy()), 7, distinct)


@pytest.mark.parametrize("past_zero_row", [False, True])
@pytest.mark.parametrize("distinct", [False, True])
def test_predecessor_check_refuses_rows_outside_the_degree_below(past_zero_row, distinct):
    # the kernel gathers predecessors with clipped indices, so this check is what catches them
    space = enumerate_configurations(7, 3)
    steps = list(space.fermion_steps if distinct else space.expansion_steps)
    _check_predecessors(steps)
    pred = steps[2].predecessors.copy()
    pred[4, 1] = len(steps[1].modes) + 1 if past_zero_row else -1
    steps[2] = ExpansionStep(steps[2].modes, pred)
    with pytest.raises(RuntimeError, match="predecessors outside"):
        _check_predecessors(steps)


def test_occupations_array(space_4_2):
    occ = space_4_2.occupations
    assert occ.shape == (10, 4)
    assert occ.sum(axis=1).tolist() == [2] * 10
    assert occ.dtype == np.uint8


def test_mode_combos_reconstruct_occupations(space_11_3):
    # each row lists the photon positions; scattering them back must
    # reproduce the occupation table
    combos = space_11_3.mode_combos
    assert combos.shape == (space_11_3.size, 3)
    rebuilt = np.zeros((space_11_3.size, 11), dtype=np.uint8)
    for p in range(3):
        np.add.at(rebuilt, (np.arange(space_11_3.size), combos[:, p]), 1)
    assert np.array_equal(rebuilt, space_11_3.occupations)


def test_occupations_built_on_first_access():
    space = FockSpace(6, 3)
    assert "occupations" not in vars(space)
    space.index_of((1, 0, 2, 0, 0, 0))
    space.configuration(7)
    space.collision_free_indices
    u = haar_unitary_from_seed(6, 4)
    full_distribution(u, (1, 1, 1, 0, 0, 0), space=space)
    full_distribution(u, (1, 1, 1, 0, 0, 0), "fermion", space=space)
    assert "occupations" not in vars(space)
    assert space.occupations.shape == (space.size, 6)
    assert "occupations" in vars(space)


@pytest.mark.parametrize("modes,photons", [(1, 1), (1, 3), (5, 1), (4, 2), (11, 3), (7, 7)])
def test_mode_combos_readers_match_occupations(modes, photons):
    space = FockSpace(modes, photons)
    occ = space.occupations
    assert occ.dtype == np.uint8 and occ.shape == (space.size, modes)
    expected = [tuple(int(v) for v in row) for row in occ]
    assert [space.configuration(i) for i in range(space.size)] == expected
    assert np.array_equal(space.collision_free_indices, np.nonzero((occ <= 1).all(axis=1))[0])


def test_factorial_products(space_4_2):
    expected = [math.prod(math.factorial(t) for t in c) for c in configurations(space_4_2)]
    assert space_4_2.factorial_products.tolist() == expected


def test_format_parse_round_trip():
    assert parse_configuration(format_configuration((1, 0, 2))) == (1, 0, 2)
    assert format_configuration((0, 3)) == "0,3"
    with pytest.raises(ValueError):
        parse_configuration("1,x,0")


def test_single_photon_space_orders_by_mode():
    space = enumerate_configurations(5, 1)
    assert space.size == 5
    assert configurations(space)[0] == (1, 0, 0, 0, 0)
    assert configurations(space)[-1] == (0, 0, 0, 0, 1)


def test_capacity_limit():
    with pytest.raises(CapacityError):
        enumerate_configurations(40, 10, limit=10_000)

