import itertools
import math

import numpy as np
import pytest

from bosonbin import rng as rng_policy
from bosonbin.distribution import _expand
from bosonbin.fock import CapacityError, _colex_steps
from bosonbin.linalg import (
    NAIVE_MAX_DIM,
    RYSER_MAX_DIM,
    UNITARITY_TOL,
    UnitaryMatrix,
    determinant,
    haar_unitary,
    haar_unitary_from_seed,
    identity_unitary,
    permanent_naive,
    permanent_ryser,
    submatrix,
    unitarity_deviation,
    unitary_from_json,
    unitary_to_json,
)


def reference_permanent(matrix):
    """Permutation-sum definition, written independently of the library."""
    n = matrix.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        term = 1.0 + 0.0j
        for i, j in enumerate(perm):
            term *= matrix[i, j]
        total += term
    return total


@pytest.mark.parametrize("n", range(1, 8))
def test_ryser_matches_permutation_sum(n, random_complex):
    for _ in range(25):
        m = random_complex(n)
        expected = reference_permanent(m)
        got = permanent_ryser(m)
        assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))
        assert abs(permanent_naive(m) - expected) <= 1e-10 * max(1.0, abs(expected))


@pytest.mark.parametrize("n", range(1, 11))
def test_permanent_of_all_ones_is_factorial(n):
    assert permanent_ryser(np.ones((n, n))) == pytest.approx(math.factorial(n), rel=1e-12)


def test_permanent_small_closed_forms():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert permanent_ryser(m) == pytest.approx(1 * 4 + 2 * 3)
    assert permanent_ryser(np.eye(5)) == pytest.approx(1.0)
    diag = np.diag([2.0, 3.0, 5.0])
    # only the identity permutation survives
    assert permanent_ryser(diag) == pytest.approx(30.0)


def test_permanent_of_permutation_matrix():
    p = np.zeros((4, 4))
    for i, j in enumerate([2, 0, 3, 1]):
        p[i, j] = 1.0
    assert permanent_ryser(p) == pytest.approx(1.0)


@pytest.mark.parametrize("fermion", [False, True])
@pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (7, 4), (5, 1), (5, 5)])
def test_expand_gives_every_minor(n, k, fermion, random_complex):
    # one call gives Per (det with fermion) of g[rows, cols] for all k-subsets
    g = random_complex(n)
    tables = _colex_steps(n, k, distinct=True)
    subsets = tables.rows()
    table = _expand(g, subsets, tables, fermion=fermion)
    oracle = determinant if fermion else permanent_ryser
    for i, rows in enumerate(subsets):
        for j, cols in enumerate(subsets):
            assert table[i, j] == pytest.approx(oracle(g[np.ix_(rows, cols)]), rel=1e-11, abs=1e-12)


def test_expand_refuses_tables_over_more_modes_than_the_weights(random_complex):
    # the kernel's gathers clip their indices, so a missing row must be refused up front
    tables = _colex_steps(5, 2, distinct=False)
    with pytest.raises(ValueError, match="5 modes, weights over 4"):
        _expand(random_complex(4), tables.rows([0, 1, 2]), tables)


def test_permanent_dimension_guards(random_complex):
    with pytest.raises(CapacityError):
        permanent_ryser(random_complex(RYSER_MAX_DIM + 1))
    with pytest.raises(CapacityError):
        permanent_naive(random_complex(NAIVE_MAX_DIM + 1))
    with pytest.raises(ValueError):
        permanent_ryser(np.ones((2, 3)))


def test_determinant_sign_structure(random_complex):
    m = random_complex(5)
    expected = 0.0 + 0.0j
    for perm in itertools.permutations(range(5)):
        inversions = sum(
            1 for a, b in itertools.combinations(range(5), 2) if perm[a] > perm[b]
        )
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i, j]
        expected += term
    assert determinant(m) == pytest.approx(expected, rel=1e-10)


def test_haar_unitary_is_unitary(rng):
    for modes in (2, 5, 12, 18):
        u = haar_unitary(modes, rng)
        assert unitarity_deviation(u.matrix) <= UNITARITY_TOL
        assert u.modes == modes


def test_haar_unitary_reproducible():
    a = haar_unitary_from_seed(9, 42)
    b = haar_unitary_from_seed(9, 42)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.tag == "haar-42"
    c = haar_unitary_from_seed(9, 43)
    assert not np.allclose(a.matrix, c.matrix)


def test_haar_phases_are_spread(rng):
    # QR with R-phase correction: diagonal phases should cover the circle
    u = haar_unitary(40, rng)
    angles = np.angle(np.diag(u.matrix))
    assert angles.min() < -2.0 and angles.max() > 2.0


def test_identity_unitary():
    u = identity_unitary(6)
    assert np.array_equal(u.matrix, np.eye(6))
    assert u.tag == "identity"


def test_unitary_matrix_rejects_nonunitary():
    with pytest.raises(ValueError):
        UnitaryMatrix(np.ones((3, 3)))


def test_submatrix_repeats_rows_and_columns(rng):
    u = haar_unitary(4, rng)
    s = (2, 0, 1, 0)
    r = (0, 1, 0, 2)
    m = submatrix(u.matrix, s, r)
    assert m.shape == (3, 3)
    cols = [0, 0, 2]
    rows = [1, 3, 3]
    for a, i in enumerate(rows):
        for b, j in enumerate(cols):
            assert m[a, b] == u.matrix[i, j]


def test_submatrix_collision_free_is_plain_selection(rng):
    u = haar_unitary(5, rng)
    m = submatrix(u.matrix, (1, 0, 1, 0, 0), (0, 0, 1, 0, 1))
    assert np.array_equal(m, u.matrix[np.ix_([2, 4], [0, 2])])


def test_unitary_json_round_trip(rng):
    u = haar_unitary(7, rng)
    payload = unitary_to_json(u)
    v = unitary_from_json(payload)
    assert np.array_equal(u.matrix, v.matrix)
    assert v.tag == u.tag
