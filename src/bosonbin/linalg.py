"""Unitary generation, permanents, determinants and seed/outcome submatrices."""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Any, Sequence

import numpy as np

from .fock import CapacityError
from . import rng as rng_policy

UNITARITY_TOL = 1e-10
RYSER_MAX_DIM = 30
# Columns whose subsets `permanent_ryser` tables at once. Building the table
# costs about two steps of the walk, which at 10 columns has only 16 steps at
# n = 14, so `ryser_benchmark`'s n = 15 per-photon ratio read 1.82-1.91 in five
# runs on a 2-vCPU Xeon; at 9 it read 1.89-1.99 in seven, at about 50 ms for
# n = 20 either way.
RYSER_TABLE_COLUMNS = 9
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
    import hashlib  # here, so that importing the package does not load it

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
        if not dev <= UNITARITY_TOL:
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
    rng_policy._check_int("modes", modes, 1)
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


def permanent_ryser(matrix: Any) -> complex:
    """Permanent by Ryser's inclusion-exclusion, blocked over the columns.

    per(A) = (-1)^n sum over column subsets S of (-1)^|S| prod_i r_i(S),
    r(S) the row sums of A over S. The row sums of every subset of the low
    L = min(n, RYSER_TABLE_COLUMNS) columns, and their signs, are tabled
    once by doubling. The high n - L columns are walked in Gray-code order,
    one column added to or removed from their running row sums per step, and
    each step adds the signed sum, over the low subsets, of the products of
    the table's rows plus the running sums. O(n 2^n) in 2^(n - L) steps of
    numpy work; the summation order is fixed, so results are bit-reproducible.
    """
    m = _as_matrix(matrix)
    n = m.shape[0]
    if n < 1:
        raise ValueError("matrix must be at least 1x1")
    if n > RYSER_MAX_DIM:
        raise CapacityError(f"permanent of a {n}x{n} matrix exceeds the {RYSER_MAX_DIM} limit")
    cols = np.ascontiguousarray(m.T, dtype=np.complex128)
    low = min(n, RYSER_TABLE_COLUMNS)
    table = _aligned((n, 1 << low))  # column k: row sums of low subset k
    table[:, 0] = 0.0
    signs = np.ones(1 << low)  # (-1)^|k|
    for j in range(low):
        half = 1 << j
        np.add(table[:, :half], cols[j][:, None], out=table[:, half : 2 * half])
        np.negative(signs[:half], out=signs[half : 2 * half])
    row_sums = np.zeros((n, 1), dtype=np.complex128)  # of the current high subset
    sums, products = _aligned(table.shape), _aligned(table.shape[1:])
    total = 0.0 + 0.0j
    for k in range(1 << (n - low)):
        if k:
            j = (k & -k).bit_length() - 1
            row_sums[:, 0] += cols[low + j] if (k ^ (k >> 1)) >> j & 1 else -cols[low + j]
            np.negative(signs, out=signs)  # one more or one fewer high column
        np.add(table, row_sums, out=sums).prod(axis=0, out=products)
        total += np.multiply(products, signs, out=products).sum()
    return complex(-total if n % 2 else total)


def _aligned(shape: tuple[int, ...]) -> np.ndarray:
    """np.empty of complex128 that starts on a 64-byte boundary. numpy's
    complex add and product ran about 20% slower into a buffer that did not,
    and where malloc puts a buffer depends on what the process allocated
    before, which moved `ryser_benchmark`'s per-photon ratios as much."""
    size = math.prod(shape) * 16
    raw = np.empty(size + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + size].view(np.complex128).reshape(shape)


_PERMUTATION_CACHE: dict[int, np.ndarray] = {}


def permanent_naive(matrix: Any) -> complex:
    """Permanent straight from the n! definition; oracle for small n."""
    m = _as_matrix(matrix)
    n = m.shape[0]
    if n < 1:
        raise ValueError("matrix must be at least 1x1")
    if n > NAIVE_MAX_DIM:
        raise CapacityError(f"naive permanent is limited to n <= {NAIVE_MAX_DIM}, got {n}")
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


# key: (example, least, required) for rng._check_fields; entries hold [re, im] pairs
UNITARY_FIELDS = {
    "schema_version": (1, 1, False),
    "modes": (1, 1, True),
    "haar_seed": (0, 0, None),
    "tag": ("", None, None),
    "entries": ((((0.0,),),), None, True),
}


def unitary_from_json(data: Any) -> UnitaryMatrix:
    """The unitary a payload describes. Refuses a field that does not fit
    UNITARY_FIELDS, instead of rounding it to another unitary, by its key."""
    rng_policy._check("unitary", data, {})
    if data.get("kind") != "unitary":
        raise ValueError(f"unitary.kind must be 'unitary', got {data.get('kind')!r}")
    rng_policy._check_fields(data, UNITARY_FIELDS, "unitary.")
    modes, entries = data["modes"], data["entries"]
    if len(entries) != modes or any(len(row) != modes or any(len(v) != 2 for v in row) for row in entries):
        raise ValueError(f"unitary.entries must be a {modes} x {modes} grid of [re, im] pairs")
    m = np.array([[complex(re, im) for re, im in row] for row in entries], dtype=np.complex128)
    try:
        return UnitaryMatrix(m, haar_seed=data.get("haar_seed"), tag=data.get("tag", ""))
    except ValueError as exc:
        raise ValueError(f"unitary.entries must form a unitary: {exc}") from None
