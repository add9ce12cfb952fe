"""Unitary generation, permanents, determinants and seed/outcome submatrices."""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import permutations
from typing import Any, Sequence

import numpy as np

from .fock import CapacityError
from . import rng as rng_policy

UNITARITY_TOL = 1e-10
RYSER_MAX_DIM = 30
NAIVE_MAX_DIM = 9


def _as_matrix(matrix: Any) -> np.ndarray:
    """Accept a raw square array or anything carrying one in `.matrix`."""
    m = getattr(matrix, "matrix", matrix)
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def unitarity_deviation(matrix: Any) -> float:
    """Max elementwise deviation of U @ U^dagger from the identity."""
    m = np.asarray(_as_matrix(matrix), dtype=np.complex128)
    eye = np.eye(m.shape[0])
    return float(np.abs(m @ m.conj().T - eye).max())


def _matrix_digest(m: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(m).tobytes()).hexdigest()[:12]


@dataclass(eq=False)
class UnitaryMatrix:
    """A validated unitary with a stable provenance tag.

    `tag` is "haar-<seed>" when the matrix came from a seeded Haar draw,
    otherwise a content digest; it travels into distribution exports and
    experiment reports so outputs can be traced to their interferometer.
    """

    matrix: np.ndarray
    haar_seed: int | None = None
    tag: str = ""

    def __post_init__(self) -> None:
        m = np.ascontiguousarray(_as_matrix(self.matrix), dtype=np.complex128)
        if m.shape[0] < 1:
            raise ValueError("unitary must have at least one mode")
        dev = unitarity_deviation(m)
        if dev > UNITARITY_TOL:
            raise ValueError(
                f"matrix is not unitary within {UNITARITY_TOL:g} "
                f"(max deviation {dev:.3e})"
            )
        self.matrix = m
        if not self.tag:
            if self.haar_seed is not None:
                self.tag = f"haar-{self.haar_seed}"
            else:
                self.tag = "digest-" + _matrix_digest(m)

    @property
    def modes(self) -> int:
        return self.matrix.shape[0]


def haar_unitary(modes: int, rng: np.random.Generator) -> UnitaryMatrix:
    """Draw from the Haar measure on U(modes).

    Complex Ginibre draw, QR decomposition, then the R diagonal phases are
    pushed into Q so the distribution is exactly Haar rather than the raw
    QR output.
    """
    if modes < 1:
        raise ValueError("modes must be >= 1")
    z = rng.standard_normal((modes, modes)) + 1j * rng.standard_normal((modes, modes))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return UnitaryMatrix(q)


def haar_unitary_from_seed(modes: int, seed: int) -> UnitaryMatrix:
    """Seeded Haar draw with a reproducible "haar-<seed>" tag."""
    u = haar_unitary(modes, rng_policy.generator(seed))
    u.haar_seed, u.tag = int(seed), f"haar-{seed}"
    return u


def identity_unitary(modes: int) -> UnitaryMatrix:
    return UnitaryMatrix(np.eye(modes, dtype=np.complex128), tag="identity")


def permanent_ryser(matrix: Any, max_dim: int = RYSER_MAX_DIM) -> complex:
    """Permanent by Ryser's inclusion-exclusion in Gray-code order.

    Runs in O(n * 2^n); one column is added or removed from the running row
    sums per step. Summation order is fixed, so results are bit-reproducible.
    """
    m = _as_matrix(matrix)
    n = m.shape[0]
    if n < 1:
        raise ValueError("matrix must be at least 1x1")
    if n > max_dim:
        raise CapacityError(f"permanent of a {n}x{n} matrix exceeds the {max_dim} limit")
    cols = np.ascontiguousarray(m.T, dtype=np.complex128)
    row_sums = np.zeros(n, dtype=np.complex128)
    total = 0.0 + 0.0j
    sign = 1.0
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1
        if (k ^ (k >> 1)) >> j & 1:
            row_sums += cols[j]
        else:
            row_sums -= cols[j]
        sign = -sign
        total += sign * row_sums.prod()
    if n % 2:
        total = -total
    return complex(total)


_PERMUTATION_CACHE: dict[int, np.ndarray] = {}


def permanent_naive(matrix: Any, max_dim: int = NAIVE_MAX_DIM) -> complex:
    """Permanent straight from the n! definition; oracle for small n."""
    m = _as_matrix(matrix)
    n = m.shape[0]
    if n < 1:
        raise ValueError("matrix must be at least 1x1")
    if n > max_dim:
        raise CapacityError(f"naive permanent is limited to n <= {max_dim}, got {n}")
    perms = _PERMUTATION_CACHE.get(n)
    if perms is None:
        perms = np.asarray(list(permutations(range(n))), dtype=np.intp)
        _PERMUTATION_CACHE[n] = perms
    m = np.asarray(m, dtype=np.complex128)
    return complex(m[np.arange(n), perms].prod(axis=1).sum())


def determinant(matrix: Any) -> complex:
    """Determinant via LAPACK's partially pivoted LU factorization."""
    m = np.asarray(_as_matrix(matrix), dtype=np.complex128)
    return complex(np.linalg.det(m))


def submatrix(
    matrix: Any, seed_configuration: Sequence[int], outcome_configuration: Sequence[int]
) -> np.ndarray:
    """The N x N scattering submatrix for a (seed, outcome) pair.

    Column j of the unitary is repeated seed[j] times; row i is repeated
    outcome[i] times.
    """
    m = _as_matrix(matrix)
    modes = m.shape[0]
    s = np.asarray(seed_configuration, dtype=np.int64)
    r = np.asarray(outcome_configuration, dtype=np.int64)
    if s.shape != (modes,) or r.shape != (modes,):
        raise ValueError(f"configurations must have length {modes}")
    if (s < 0).any() or (r < 0).any():
        raise ValueError("occupations must be nonnegative")
    if s.sum() != r.sum():
        raise ValueError(f"photon totals differ: {int(s.sum())} vs {int(r.sum())}")
    cols = np.repeat(np.arange(modes), s)
    rows = np.repeat(np.arange(modes), r)
    return m[np.ix_(rows, cols)]


def unitary_to_json(unitary: UnitaryMatrix) -> dict:
    """JSON-safe dict; float repr round-trips entries bit-exactly."""
    m = unitary.matrix
    return {
        "schema_version": 1,
        "kind": "unitary",
        "modes": unitary.modes,
        "haar_seed": unitary.haar_seed,
        "tag": unitary.tag,
        "entries": [[[float(v.real), float(v.imag)] for v in row] for row in m],
    }


def unitary_from_json(data: dict) -> UnitaryMatrix:
    if data.get("kind") != "unitary":
        raise ValueError("not a unitary payload")
    modes = int(data["modes"])
    entries = data["entries"]
    if len(entries) != modes or any(len(row) != modes for row in entries):
        raise ValueError("entry grid does not match the declared mode count")
    m = np.array(
        [[complex(re, im) for re, im in row] for row in entries], dtype=np.complex128
    )
    seed = data.get("haar_seed")
    return UnitaryMatrix(m, haar_seed=None if seed is None else int(seed), tag=data.get("tag", ""))
