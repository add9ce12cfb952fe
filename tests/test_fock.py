import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

from bosonbin import rng as rng_policy
from bosonbin.fock import (
    CapacityError,
    FockSpace,
    collision_free_count,
    enumerate_configurations,
    format_configuration,
    integer_code,
    is_collision_free,
    parse_configuration,
    random_seed,
    space_size,
    validate_configuration,
)

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
    assert list(space_4_2.configurations) == FOUR_TWO_CONFIGS
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
    cf = [space_4_2.configurations[i] for i in space_4_2.collision_free_indices]
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
    assert [space.index_of(c) for c in space.configurations] == list(range(space.size))
    with pytest.raises(ValueError):
        space.index_of((photons + 1,) + (0,) * (modes - 1))


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


def test_factorial_products(space_4_2):
    expected = [math.prod(math.factorial(t) for t in c) for c in space_4_2.configurations]
    assert space_4_2.factorial_products.tolist() == expected


def test_format_parse_round_trip():
    assert parse_configuration(format_configuration((1, 0, 2))) == (1, 0, 2)
    assert format_configuration((0, 3)) == "0,3"
    with pytest.raises(ValueError):
        parse_configuration("1,x,0")


def test_single_photon_space_orders_by_mode():
    space = enumerate_configurations(5, 1)
    assert space.size == 5
    assert space.configurations[0] == (1, 0, 0, 0, 0)
    assert space.configurations[-1] == (0, 0, 0, 0, 1)


def test_capacity_limit():
    with pytest.raises(CapacityError):
        enumerate_configurations(40, 10, limit=10_000)


def test_random_seed_deterministic(space_11_3):
    a = random_seed(space_11_3, rng_policy.generator(7))
    b = random_seed(space_11_3, rng_policy.generator(7))
    assert a.configuration == b.configuration
    assert a.index == b.index
    assert space_11_3.configurations[a.index] == a.configuration


def test_random_seed_collision_free_flag(space_11_3):
    gen = rng_policy.generator(21)
    for _ in range(25):
        draw = random_seed(space_11_3, gen, collision_free_only=True)
        assert is_collision_free(draw.configuration)


def test_random_seed_impossible_subset():
    space = enumerate_configurations(3, 4)
    with pytest.raises(ValueError):
        random_seed(space, rng_policy.generator(0), collision_free_only=True)


def test_random_seed_covers_space(space_4_2):
    gen = rng_policy.generator(100)
    seen = {random_seed(space_4_2, gen).index for _ in range(400)}
    assert seen == set(range(space_4_2.size))
