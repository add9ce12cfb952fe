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
    return np.bincount(idx, minlength=len(probs)).astype(np.int64, copy=False)


# Smalls and larges per guessed window: at most 2^16 events, so a window's
# temporaries take a few MB.
_WINDOW = 1 << 15
# Wrong guesses allowed in one walk before the scalar loop finishes it.
_MAX_MISSES = 8


def _alias_tables(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose's alias tables in the fixed order that sampled draws depend on.

    Both index stacks are ascending and consumed from the end. The current
    large absorbs smalls while its value r is >= 1; once r < 1 it is demoted:
    r becomes its prob, and the next large takes over with value
    v - (1 - r). These are the float operations of the stack loop that pops
    one small and one large per step, in the same order, so the tables are
    bit-identical to it. Indices never paired keep prob 1 and their own alias.

    The walk is one chain of subtractions r <- r - x from r = v_0, where x
    is the next small's deficit d = 1 - prob_s or, at a demotion, 1 - v of
    the next large. The chain gives the loop's bits:

    - prob = probs * n. A deficit is a multiple of 2^-53: exact when
      prob_s >= 1/2 (Sterbenz), else rounded onto the 2^-53 grid of (1/2, 1].
    - A large value v >= 1 is a multiple of 2^-52, so for 1 <= v < 2^53 the
      term 1 - v is exact.
    - So every r < 1 the walk reaches is an exact multiple of 2^-53 in
      [0, 1), and 1 - r is exact. The loop's demotion v - (1 - r) then rounds
      the same real number as the chain's r - (1 - v).
    - np.subtract.accumulate does its IEEE subtractions one after another
      (only np.add.reduce sums pairwise), so it rounds as the loop does.

    Only the order of the events needs comparisons. _walk guesses it a
    window at a time and checks every guess.
    """
    n = len(probs)
    prob = probs * n  # a small keeps its scaled value once it is taken
    smalls = np.flatnonzero(prob < 1.0)[::-1]
    larges = np.flatnonzero(prob >= 1.0)[::-1]
    alias = np.arange(n, dtype=np.int64)
    i = j = 0  # smalls taken, larges demoted
    if len(smalls) and len(larges):
        i, j, _ = _walk(prob, alias, smalls, larges)
    prob[smalls[i:]] = 1.0
    prob[larges[j:]] = 1.0
    return prob, alias


def _walk(
    prob: np.ndarray, alias: np.ndarray, smalls: np.ndarray, larges: np.ndarray
) -> tuple[int, int, int]:
    """Vose's walk over the scaled probabilities, in stack order.

    Sets the alias of every small taken and the prob and alias of every
    large demoted. Returns (i, j, steps): larges 0..j took smalls 0..i-1,
    larges below j were demoted, and steps counts the events that the
    scalar loop took.

    The state is (i, j, r). Each window guesses the order of the next events
    (_guess_events), puts the deficits and demotion terms in that order and
    runs the chain over them. Every event is checked against the loop's
    rule: a small is taken exactly when r >= 1, a demotion happens exactly
    when r < 1. The checked prefix is accepted. At the first wrong guess the
    loop takes its own step from the last checked state, and the next window
    guesses again. After _MAX_MISSES wrong guesses, or outside the domain of
    the exactness argument (a deficit above 1 or a value of 2^53 or more),
    the loop finishes the walk.
    """
    count, last = len(smalls), len(larges) - 1
    i = j = misses = steps = 0
    r = float(prob[larges[0]])
    while (i < count) if r >= 1.0 else (j < last):
        d = 1.0 - prob[smalls[i : i + _WINDOW]]
        v = prob[larges[j + 1 : j + 1 + _WINDOW]]
        if misses > _MAX_MISSES or (d > 1.0).any() or (v >= 2.0**53).any():
            i, j, r, s = _vose_loop(prob, alias, smalls, larges, i, j, r, len(prob))
            steps += s
            break
        ns, order = _guess_events(d, v, r, i + len(d) == count)
        events = order < ns  # True where a small is taken, False at a demotion
        chain = np.empty(len(order) + 1)
        chain[0] = r
        np.concatenate((d[:ns], 1.0 - v[: len(order) - ns])).take(order, out=chain[1:])
        np.subtract.accumulate(chain, out=chain)
        wrong = np.flatnonzero(events != (chain[:-1] >= 1.0))
        k = int(wrong[0]) if len(wrong) else len(events)  # events accepted
        at_small = np.flatnonzero(events[:k])
        at_demotion = np.flatnonzero(~events[:k])
        ns, nd = len(at_small), len(at_demotion)
        # a small's large is the current one plus the demotions before it
        alias[smalls[i : i + ns]] = larges[j + at_small - np.arange(ns)]
        alias[larges[j : j + nd]] = larges[j + 1 : j + 1 + nd]
        prob[larges[j : j + nd]] = chain[at_demotion]
        i, j, r = i + ns, j + nd, float(chain[k])
        if len(wrong):
            misses += 1
            i, j, r, s = _vose_loop(prob, alias, smalls, larges, i, j, r, 1)
            steps += s
    return i, j, steps


def _guess_events(d: np.ndarray, v: np.ndarray, r: float, smalls_end: bool) -> tuple[int, np.ndarray]:
    """Guess the order of the walk's next events from value r.

    d holds the next deficits and v the next large values; smalls_end says
    d holds every small left. Returns (ns, order): the events are the first
    ns smalls and the first len(order) - ns demotions, each handing over to
    the next large in v, and order lists them by index into d[:ns] followed
    by v.

    In real numbers the q-th large of the window is left once the deficits
    taken exceed its room r - 1 + sum(v[:q] - 1), so the events are the
    stable merge of the deficits' running sums with the rooms. The float
    sums round differently from the chain, so the order is only a guess.
    """
    spent = np.zeros(len(d))  # deficits taken before each small
    np.cumsum(d[:-1], out=spent[1:])
    room = np.empty(len(v) + 1)
    room[0] = 0.0
    np.cumsum(v - 1.0, out=room[1:])
    room += r - 1.0
    # the window stops where its smalls or its larges run out
    demotions = len(v) if smalls_end else int(np.searchsorted(room[:-1], spent[-1]))
    ns = int(np.searchsorted(spent, room[demotions], side="right"))
    # sorted runs merge in linear time; on equal keys the small goes first
    return ns, np.argsort(np.concatenate((spent[:ns], room[:demotions])), kind="stable")


def _vose_loop(prob, alias, smalls, larges, i: int, j: int, r: float, limit: int):
    """The walk as a scalar loop from state (i, j, r), over the next `limit`
    smalls and larges, setting the tables as _walk does. Returns the new
    state and the number of events taken.
    """
    # memoryviews index as fast as lists, without a copy
    d = memoryview(1.0 - prob[smalls[i : i + limit]])  # deficits
    v = memoryview(prob[larges[j : j + limit + 1]])  # values
    taken = np.zeros(len(v), dtype=np.int64)  # smalls taken when each large is left
    residuals = np.zeros(len(v))  # prob of each large demoted
    t, res = memoryview(taken), memoryview(residuals)
    a = b = 0  # smalls taken, larges demoted
    count, last = len(d), len(v) - 1
    while True:
        while r >= 1.0 and a < count:
            r -= d[a]
            a += 1
        if r >= 1.0 or b == last:
            break
        t[b] = a
        res[b] = r
        r = v[b + 1] - (1.0 - r)
        b += 1
    taken[b] = a
    alias[smalls[i : i + a]] = np.repeat(larges[j : j + b + 1], np.diff(taken[: b + 1], prepend=0))
    alias[larges[j : j + b]] = larges[j + 1 : j + b + 1]
    prob[larges[j : j + b]] = residuals[:b]
    return i + a, j + b, r, a + b


def _draw_alias(probs: np.ndarray, runs: int, rng: np.random.Generator) -> np.ndarray:
    prob, alias = _alias_tables(probs)
    n = len(probs)
    k = rng.integers(0, n, size=runs)
    u = rng.random(runs)
    out = np.where(u < prob[k], k, alias[k])
    return np.bincount(out, minlength=n).astype(np.int64, copy=False)


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
