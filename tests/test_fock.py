import dataclasses
import math
import tracemalloc
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
    _colex_steps,
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
    assert space.codes == [integer_code(c) for c in configurations(space)]


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
    rows = space.expansion.rows([0, space.size - 1, *ranks.tolist()])
    for rank, row in zip([0, space.size - 1, *ranks.tolist()], rows):
        configuration = unrank(60, 4, rank)
        assert configuration == tuple(np.bincount(row, minlength=60).tolist())
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
    assert np.array_equal(enumerate_configurations(modes, photons).expansion.rows(), _code_order(modes, photons))


def _tables(space, distinct):
    return space.fermion_expansion if distinct else space.expansion


def _sorted_rows(modes, k, distinct):
    """Every sorted k-photon row (of distinct modes if `distinct`) in integer-code order."""
    rows = _code_order(modes, k)
    return rows[(rows[:, 1:] > rows[:, :-1]).all(axis=1)] if distinct else rows


def _weights(rows, modes):
    """The rule for `ExpansionStep.weights`: a position weighs M exactly where
    it repeats the position before it, and its own mode otherwise."""
    weights = rows.copy()
    weights[:, 1:][rows[:, 1:] == rows[:, :-1]] = modes
    return weights


def _restore(weights, modes):
    """The sorted rows behind a weights table: a zero weight repeats the mode before it."""
    rows = np.array(weights)
    for p in range(1, rows.shape[1]):
        rows[:, p] = np.where(rows[:, p] == modes, rows[:, p - 1], rows[:, p])
    return rows


@pytest.mark.parametrize("modes,photons", [(7, 4), (9, 3), (6, 6)])
@pytest.mark.parametrize("distinct", [False, True])
def test_step_tables(modes, photons, distinct):
    space = enumerate_configurations(modes, photons)
    tables = _tables(space, distinct)
    assert len(tables.steps) == photons  # degrees 0..N - 1: the last degree has no full table
    prev = np.zeros((1, 0), dtype=np.intp)  # degree 0: the one empty row
    assert tables.steps[0].weights.shape == tables.steps[0].predecessors.shape == prev.shape
    for k, step in enumerate(tables.steps[1:], start=1):
        rows = _sorted_rows(modes, k, distinct)
        assert np.array_equal(step.weights, _weights(rows, modes))
        _check_terms(step, rows, prev)
        prev = rows
    _check_last_degree(space, distinct)


def _check_terms(step, rows, prev):
    """Each term of a tabled degree, weighed or not, reads a row of the
    degree below (`prev`): its row with the term's position removed."""
    assert step.predecessors.shape == rows.shape
    for p in range(rows.shape[1]):
        pred = step.predecessors[:, p]
        assert ((pred >= 0) & (pred < len(prev))).all()
        assert np.array_equal(prev[pred], np.delete(rows, p, axis=1))


def _colex_ranks(rows, distinct):
    """Colex rank of every sorted row, from the combinatorial number system:
    sum_j C(a_j + j, j + 1), or sum_j C(a_j, j + 1) over sets."""
    ranks = np.zeros(len(rows), dtype=np.int64)
    for j in range(rows.shape[1]):
        top = rows[:, j].astype(np.int64) + (0 if distinct else j)
        term = np.ones(len(rows), dtype=np.int64)
        for i in range(j + 1):  # exact: after step i, term is C(top, i + 1)
            term = term * (top - i) // (i + 1)
        ranks += term
    return ranks


def _check_last_degree(space, distinct):
    """The last degree's layout against its definition and an independent
    colex rank: the head table and then each last-mode block list every row
    once, in colex order; each block weighs its prefix rows' own weights;
    and each term's source row is that row with the term's position removed,
    read inside the rows that end in the block's mode."""
    tables = _tables(space, distinct)
    modes, photons = space.modes, space.photons
    rows = tables.rows()
    assert rows.shape == (math.comb(modes, photons) if distinct else space.size, photons)
    _check_colex(rows, modes, distinct)
    assert np.array_equal(_colex_ranks(rows, distinct), np.arange(len(rows)))
    if distinct:
        assert np.array_equal(rows, space.expansion.rows(space.collision_free_indices))
    last = tables.steps[-1]
    prev = _sorted_rows(modes, photons - 1, distinct) if photons > 1 else np.zeros((1, 0), dtype=np.intp)
    assert np.array_equal(last.weights, _weights(prev, modes))
    # the head: the rows of the first last modes, in no more entries than the degree below
    head = len(tables.head.weights)
    assert head in tables.starts and tables.head.weights.size <= prev.size
    assert np.array_equal(tables.head.weights, _weights(rows[:head], modes))
    _check_terms(tables.head, rows[:head], prev)
    with_rows = [m for m in range(modes) if tables.starts[m + 1] > tables.starts[m] >= head]
    assert [block[0] for block in tables.blocks] == with_rows
    assert [(start, stop) for _, start, stop, *_ in tables.blocks] == list(
        zip([head] + [block[2] for block in tables.blocks[:-1]], [block[2] for block in tables.blocks])
    )
    assert (tables.blocks[-1][2] if tables.blocks else head) == len(rows)
    for m, start, stop, below, pred_columns in tables.blocks:
        block, count = rows[start:stop], stop - start
        assert (block[:, -1] == m).all() and np.array_equal(block[:, :-1], prev[:count])
        # position N - 1 reads the prefix row itself, where it does not end in m
        ends_in_m = prev[:count, -1] == m if photons > 1 else np.zeros(count, bool)
        assert np.array_equal(np.arange(count) < below, ~ends_in_m)
        # a prefix position repeats in the block's row exactly where it does in the prefix row
        assert np.array_equal(_weights(block, modes)[:, :-1], last.weights[:count])
        # the degree-(N - 1) rows that end in m, which the block's terms offset into
        ending_in_m = prev[below:][: np.count_nonzero(prev[:, -1:] == m)]
        assert len(pred_columns) == photons - 1
        for p in range(photons - 1):
            assert np.array_equal(pred_columns[p], last.predecessors[:count, p])
            assert ((pred_columns[p] >= 0) & (pred_columns[p] < len(ending_in_m))).all()
            assert np.array_equal(ending_in_m[pred_columns[p]], np.delete(block, p, axis=1))


@pytest.mark.parametrize("modes,photons", [(8, 5), (18, 4), (3, 6)])
@pytest.mark.parametrize("distinct", [False, True])
def test_step_table_columns_are_contiguous(modes, photons, distinct):
    # the kernel gathers with one column at a time; np.take copies a strided index array
    tables = _tables(enumerate_configurations(modes, photons), distinct)
    for step in (*tables.steps, tables.head):
        for p in range(step.weights.shape[1]):
            assert step.weights[:, p].flags.c_contiguous
            assert step.predecessors[:, p].flags.c_contiguous
    for *_, pred_columns in tables.blocks:
        assert all(column.flags.c_contiguous for column in pred_columns)


@pytest.mark.parametrize("modes,photons", [(60, 4), (18, 4), (8, 5), (3, 6), (9, 1), (7, 2)])
@pytest.mark.parametrize("distinct", [False, True])
def test_last_degree_blocks(modes, photons, distinct):
    _check_last_degree(enumerate_configurations(modes, photons), distinct)


def _colex_rank(row, distinct):
    """Colex rank of one sorted row, from the combinatorial number system."""
    return sum(math.comb(int(a) + (0 if distinct else j), j + 1) for j, a in enumerate(row))


@pytest.mark.parametrize("modes,photons", [(60, 4), (18, 4), (25, 3)])
@pytest.mark.parametrize("distinct", [False, True])
def test_step_tables_at_benchmark_sizes(modes, photons, distinct):
    space = enumerate_configurations(modes, photons)
    tables = _tables(space, distinct)
    rng = rng_policy.generator(modes * 10 + photons)
    prev = np.zeros((1, 0), dtype=np.intp)
    for k, step in enumerate([*tables.steps[1:], None], start=1):
        rows = _restore(step.weights, modes) if step else tables.rows()
        assert len(rows) == (math.comb(modes, k) if distinct else math.comb(modes + k - 1, k))
        sample = rng.choice(len(rows), size=min(1000, len(rows)), replace=False)
        assert [_colex_rank(rows[i], distinct) for i in sample] == sample.tolist()
        if k == photons and not distinct:
            assert [space.index_of(space.configuration(int(i))) for i in sample] == sample.tolist()
        if step is None:  # the last degree's terms: _check_last_degree
            break
        assert np.array_equal(step.weights, _weights(rows, modes))
        for i in sample:
            for p in range(k):
                assert np.array_equal(prev[step.predecessors[i, p]], np.delete(rows[i], p))
        prev = rows
    if distinct:
        assert np.array_equal(tables.rows(), space.expansion.rows(space.collision_free_indices))


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
    tables = _tables(space, distinct)
    for rows in (_restore(tables.steps[-1].weights, 7), tables.rows()):
        _check_colex(rows, 7, distinct)
        with pytest.raises(RuntimeError, match="colex"):
            _check_colex(corrupt(rows.copy()), 7, distinct)


def _past_last_row(tables):
    # the first index past the rows of the degree below
    pred = tables.steps[-1].predecessors.copy(order="F")
    pred[4, 1] = len(tables.steps[-2].weights)
    return pred, tables.steps[-1].weights, "outside the modes or rows"


def _negative(tables):
    pred = tables.steps[-1].predecessors.copy(order="F")
    pred[4, 1] = -1
    return pred, tables.steps[-1].weights, "outside the modes or rows"


def _outside_last_mode(tables):
    # a row of the degree below, but not one that ends in the block's last
    # mode: prefix row 4 is first read by the block of mode 2 (mode 4 over
    # sets), which has 3 (4) such rows to offset into
    pred = tables.steps[-1].predecessors.copy(order="F")
    pred[4, 0] = 5
    return pred, tables.steps[-1].weights, "outside the rows of their last mode"


def _weight_past_zero_weight(tables):
    weights = tables.steps[-1].weights.copy(order="F")
    weights[4, 1] = tables.modes + 1
    return tables.steps[-1].predecessors, weights, "outside the modes or rows"


def _negative_weight(tables):
    weights = tables.steps[-1].weights.copy(order="F")
    weights[4, 1] = -1
    return tables.steps[-1].predecessors, weights, "outside the modes or rows"


@pytest.mark.parametrize(
    "corrupt", [_past_last_row, _negative, _outside_last_mode, _weight_past_zero_weight, _negative_weight]
)
@pytest.mark.parametrize("distinct", [False, True])
def test_predecessor_check_refuses_rows_outside_the_degree_below(corrupt, distinct):
    # the kernel gathers predecessors with clipped indices, so this check is what catches them
    tables = _tables(enumerate_configurations(7, 3), distinct)
    _check_predecessors(tables)
    pred, weights, message = corrupt(tables)
    steps = (*tables.steps[:-1], ExpansionStep(weights, pred))
    with pytest.raises(RuntimeError, match=message):
        _check_predecessors(dataclasses.replace(tables, steps=steps))


def test_predecessor_check_covers_repeated_positions():
    # a repeated position weighs zero, but its predecessor is still gathered
    # inside the block, so it is held to the same rows: degree-2 row 2 is
    # (1, 1), first read by the block of mode 1, which has 2 rows to offset into
    tables = enumerate_configurations(7, 3).expansion
    assert tables.steps[-1].weights[2].tolist() == [1, 7]
    pred = tables.steps[-1].predecessors.copy(order="F")
    pred[2, 1] = 2
    steps = (*tables.steps[:-1], ExpansionStep(tables.steps[-1].weights, pred))
    with pytest.raises(RuntimeError, match="outside the rows of their last mode"):
        _check_predecessors(dataclasses.replace(tables, steps=steps))


def test_enumeration_builds_no_table_of_the_space():
    # one (size, 4) intp table at (60,4) is 19 MB; the tables of degrees
    # 0..3 and the head keep 3.5 MiB
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        space = enumerate_configurations(60, 4)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < space.size * 4 * np.dtype(np.intp).itemsize
    assert kept - base <= 3.6 * 2**20


def test_occupations_array(space_4_2):
    occ = space_4_2.occupations
    assert occ.shape == (10, 4)
    assert occ.sum(axis=1).tolist() == [2] * 10
    assert occ.dtype == np.uint8


def test_mode_combos_reconstruct_occupations(space_11_3):
    # each row lists the photon positions; scattering them back must
    # reproduce the occupation table
    combos = space_11_3.expansion.rows()
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


@pytest.mark.parametrize("modes,photons", [(4, 2), (5, 1), (3, 6), (7, 7), (11, 3)])
def test_factorial_products(modes, photons):
    space = enumerate_configurations(modes, photons)
    expected = [math.prod(math.factorial(t) for t in c) for c in configurations(space)]
    assert space.factorial_products.tolist() == expected


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



@pytest.mark.parametrize("distinct", [False, True])
def test_predecessor_check_refuses_a_head_row_outside_the_degree_below(distinct):
    # the head table of the last degree is gathered with clipped indices too
    tables = _tables(enumerate_configurations(7, 3), distinct)
    pred = tables.head.predecessors.copy(order="F")
    pred[1, 0] = len(tables.steps[-1].weights)
    with pytest.raises(RuntimeError, match="outside the modes or rows"):
        _check_predecessors(dataclasses.replace(tables, head=ExpansionStep(tables.head.weights, pred)))
