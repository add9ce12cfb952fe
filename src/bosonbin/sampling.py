"""Finite-run estimation: outcome draws, Chernoff planning and sampled labels."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binning import BinPartition, MPBResult, bin_masses, mpb_from_vector
from .distribution import BSDistribution

ALIAS_METHOD_THRESHOLD = 1 << 16


@dataclass(frozen=True)
class SamplePlan:
    """Sample-size plan for resolving the most probable bin.

    epsilon is the target accuracy on bin masses, delta the systematic-error
    allowance, eta the admissible failure probability and gamma its
    systematic counterpart. n_min draws suffice to separate bins whose
    masses differ by more than epsilon with confidence 1 - eta.
    """

    num_bins: int
    epsilon: float
    delta: float
    eta: float
    gamma: float
    n_min: int


def chernoff_sample_size(
    num_bins: int, epsilon: float, delta: float, eta: float, gamma: float
) -> SamplePlan:
    """n_min = ceil(3 d / (epsilon - delta)^2 * ln(2 (1 - gamma) / (eta - gamma))).

    Depends only on the bin count and the error budget, never on the mode or
    photon numbers.
    """
    if not isinstance(num_bins, (int, np.integer)) or num_bins < 2:
        raise ValueError(f"need an integer bin count >= 2, got {num_bins}")
    if not 0 <= delta < epsilon < 1:
        raise ValueError(f"need 0 <= delta < epsilon < 1, got delta={delta}, epsilon={epsilon}")
    if not 0 <= gamma < eta < 1:
        raise ValueError(f"need 0 <= gamma < eta < 1, got gamma={gamma}, eta={eta}")
    n = 3.0 * num_bins / (epsilon - delta) ** 2 * math.log(2.0 * (1.0 - gamma) / (eta - gamma))
    return SamplePlan(
        num_bins=int(num_bins),
        epsilon=float(epsilon),
        delta=float(delta),
        eta=float(eta),
        gamma=float(gamma),
        n_min=int(math.ceil(n)),
    )


def _draw_cumulative(probs: np.ndarray, runs: int, rng: np.random.Generator) -> np.ndarray:
    cdf = np.cumsum(probs)
    u = rng.random(runs)
    idx = np.searchsorted(cdf, u, side="right")
    np.clip(idx, 0, len(probs) - 1, out=idx)
    return np.bincount(idx, minlength=len(probs)).astype(np.int64)


def _alias_tables(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Vose's method in a fixed order that sampled draws depend on: both index
    # stacks are ascending and consumed from the end. The current large l
    # absorbs smalls while its residual r is >= 1; once r < 1, l is the next
    # small and is paired at once with the next large. This does the float
    # operations of the loop that pops one small and one large per step, in
    # the same order, so the tables are bit-identical to it; the table entries
    # are set after the walk. Indices never paired keep prob 1 and own alias.
    n = len(probs)
    prob = probs * n  # a small keeps its scaled value once it is taken
    smalls = np.flatnonzero(prob < 1.0)[::-1]
    larges = np.flatnonzero(prob >= 1.0)[::-1]
    alias = np.arange(n, dtype=np.int64)
    i = j = 0  # smalls taken, larges demoted
    if len(smalls) and len(larges):
        taken = np.zeros(len(larges), dtype=np.int64)  # smalls taken when large j is left
        residuals = np.zeros(len(larges))  # prob of large j once demoted
        # memoryviews index as fast as typed arrays, without a copy
        d, v = memoryview(1.0 - prob[smalls]), memoryview(prob[larges])  # deficits, values
        t, res = memoryview(taken), memoryview(residuals)
        count, last = len(d), len(v) - 1
        r = v[0]
        while True:
            while r >= 1.0 and i < count:
                r -= d[i]
                i += 1
            t[j] = i
            if r >= 1.0 or j == last:
                break
            res[j] = r
            r = v[j + 1] - (1.0 - r)
            j += 1
        # larges 0..j took smalls 0..i-1
        alias[smalls[:i]] = np.repeat(larges[: j + 1], np.diff(taken[: j + 1], prepend=0))
        alias[larges[:j]] = larges[1 : j + 1]
        prob[larges[:j]] = residuals[:j]
    prob[smalls[i:]] = 1.0
    prob[larges[j:]] = 1.0
    return prob, alias


def _draw_alias(probs: np.ndarray, runs: int, rng: np.random.Generator) -> np.ndarray:
    prob, alias = _alias_tables(probs)
    n = len(probs)
    k = rng.integers(0, n, size=runs)
    u = rng.random(runs)
    out = np.where(u < prob[k], k, alias[k])
    return np.bincount(out, minlength=n).astype(np.int64)


def draw_outcomes(
    dist: BSDistribution, runs: int, rng: np.random.Generator, method: str = "auto"
) -> np.ndarray:
    """Multinomially sample `runs` outcomes; returns per-outcome counts.

    method "auto" switches from inverse-CDF to alias sampling above
    ALIAS_METHOD_THRESHOLD outcomes, where the table setup cost amortizes.
    The method affects how generator output is consumed, so it is part of a
    run's provenance.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if method not in ("auto", "cumulative", "alias"):
        raise ValueError(f"unknown sampling method {method!r}")
    if method == "auto":
        method = "alias" if dist.space.size > ALIAS_METHOD_THRESHOLD else "cumulative"
    if method == "cumulative":
        return _draw_cumulative(dist.probabilities, int(runs), rng)
    return _draw_alias(dist.probabilities, int(runs), rng)


def estimate_mpb(
    dist: BSDistribution,
    partition: BinPartition,
    plan: SamplePlan,
    rng: np.random.Generator,
    method: str = "auto",
) -> tuple[MPBResult, np.ndarray]:
    """Estimate the most probable bin from plan.n_min sampled runs; returns
    the result and the per-bin counts of the draws.

    The label is read off the frequencies counts / plan.n_min. The tie
    threshold on them is epsilon - delta: anything closer than the
    resolvable accuracy is flagged as a tie.
    """
    if partition.num_bins != plan.num_bins:
        raise ValueError(
            f"plan covers {plan.num_bins} bins but partition has {partition.num_bins}"
        )
    counts = bin_masses(draw_outcomes(dist, plan.n_min, rng, method=method), partition)
    return mpb_from_vector(counts / plan.n_min, tie_epsilon=plan.epsilon - plan.delta), counts
