import hashlib
import math
from decimal import ROUND_CEILING, Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonbin import rng as rng_policy
from bosonbin import sampling
from bosonbin.binning import bin_masses, make_partition
from bosonbin.distribution import full_distribution
from bosonbin.linalg import haar_unitary_from_seed, identity_unitary
from bosonbin.sampling import (
    ALIAS_METHOD_THRESHOLD,
    SamplePlan,
    _alias_tables,
    chernoff_sample_size,
    draw_outcomes,
    estimate_mpb,
)


def decimal_sample_size(num_bins, epsilon, delta, eta, gamma):
    """High-precision reimplementation of the plan formula (50 digits)."""
    getcontext().prec = 50
    eps, dlt, eta_, gam = (Decimal(str(v)) for v in (epsilon, delta, eta, gamma))
    val = 3 * num_bins / (eps - dlt) ** 2 * (2 * (1 - gam) / (eta_ - gam)).ln()
    return int(val.to_integral_value(rounding=ROUND_CEILING))


@pytest.mark.parametrize(
    "num_bins,epsilon,delta,eta,gamma,n_min",
    [
        (2, 0.1, 0.05, 0.05, 0.01, 9365),
        (4, 0.1, 0.05, 0.05, 0.01, 18730),
        (3, 0.2, 0.0, 0.1, 0.0, 675),
        (8, 0.05, 0.01, 0.02, 0.005, 73318),
        (2, 0.1, 0.0, 0.05, 0.0, 2214),
        (16, 0.3, 0.1, 0.2, 0.05, 3047),
    ],
)
def test_chernoff_sample_size_pinned(num_bins, epsilon, delta, eta, gamma, n_min):
    plan = chernoff_sample_size(num_bins, epsilon, delta, eta, gamma)
    assert plan.n_min == n_min
    assert plan.n_min == decimal_sample_size(num_bins, epsilon, delta, eta, gamma)
    assert plan.num_bins == num_bins
    assert plan.epsilon == epsilon


def test_chernoff_scales_linearly_in_bins():
    base = chernoff_sample_size(2, 0.1, 0.05, 0.05, 0.01)
    for d in (4, 6, 8):
        scaled = chernoff_sample_size(d, 0.1, 0.05, 0.05, 0.01)
        assert scaled.n_min == pytest.approx(base.n_min * d / 2, abs=1)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_bins=1, epsilon=0.1, delta=0.0, eta=0.05, gamma=0.0),
        dict(num_bins=2.5, epsilon=0.1, delta=0.0, eta=0.05, gamma=0.0),
        dict(num_bins=2, epsilon=0.1, delta=0.1, eta=0.05, gamma=0.0),
        dict(num_bins=2, epsilon=0.1, delta=0.2, eta=0.05, gamma=0.0),
        dict(num_bins=2, epsilon=1.0, delta=0.0, eta=0.05, gamma=0.0),
        dict(num_bins=2, epsilon=0.1, delta=-0.01, eta=0.05, gamma=0.0),
        dict(num_bins=2, epsilon=0.1, delta=0.0, eta=0.05, gamma=0.05),
        dict(num_bins=2, epsilon=0.1, delta=0.0, eta=0.05, gamma=0.06),
        dict(num_bins=2, epsilon=0.1, delta=0.0, eta=1.0, gamma=0.0),
        dict(num_bins=2, epsilon=0.1, delta=0.0, eta=0.05, gamma=-0.01),
    ],
)
def test_chernoff_rejects_bad_budgets(kwargs):
    with pytest.raises(ValueError):
        chernoff_sample_size(**kwargs)


@pytest.fixture(scope="module")
def haar_dist():
    u = haar_unitary_from_seed(8, 6)
    return full_distribution(u, (1, 1, 0, 0, 0, 0, 0, 0))


def test_draw_outcomes_counts_sum_to_runs(haar_dist):
    counts = draw_outcomes(haar_dist, 5000, rng_policy.generator(1))
    assert counts.shape == (haar_dist.space.size,)
    assert counts.dtype == np.int64
    assert int(counts.sum()) == 5000
    assert np.all(counts >= 0)


@pytest.mark.parametrize("method", ["cumulative", "alias"])
def test_draw_outcomes_counts_are_int64(haar_dist, method):
    counts = draw_outcomes(haar_dist, 1000, rng_policy.generator(4), method=method)
    assert counts.dtype == np.int64


def test_draw_outcomes_deterministic_per_seed(haar_dist):
    a = draw_outcomes(haar_dist, 2000, rng_policy.generator(7))
    b = draw_outcomes(haar_dist, 2000, rng_policy.generator(7))
    c = draw_outcomes(haar_dist, 2000, rng_policy.generator(8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_draw_outcomes_auto_is_cumulative_below_threshold(haar_dist):
    assert haar_dist.space.size < ALIAS_METHOD_THRESHOLD
    a = draw_outcomes(haar_dist, 1000, rng_policy.generator(3), method="auto")
    b = draw_outcomes(haar_dist, 1000, rng_policy.generator(3), method="cumulative")
    assert np.array_equal(a, b)


@pytest.mark.parametrize("method", ["cumulative", "alias"])
def test_draw_outcomes_converges_in_total_variation(haar_dist, method):
    runs = 200_000
    counts = draw_outcomes(haar_dist, runs, rng_policy.generator(11), method=method)
    tv = 0.5 * np.abs(counts / runs - haar_dist.probabilities).sum()
    # expected TV at this run count is about 0.005; 4x headroom
    assert tv < 0.02


def test_draw_outcomes_point_mass():
    dist = full_distribution(identity_unitary(5), (0, 2, 0, 1, 0))
    counts = draw_outcomes(dist, 100, rng_policy.generator(0))
    assert int(counts[dist.space.index_of((0, 2, 0, 1, 0))]) == 100


def test_draw_outcomes_input_checks(haar_dist):
    with pytest.raises(ValueError):
        draw_outcomes(haar_dist, 0, rng_policy.generator(1))
    with pytest.raises(ValueError):
        draw_outcomes(haar_dist, 10, rng_policy.generator(1), method="metropolis")


def _counts_digest(counts):
    return hashlib.sha256(np.ascontiguousarray(counts, dtype="<i8").tobytes()).hexdigest()


def test_alias_draws_match_recorded_stream(haar_dist):
    # Digests recorded with the stack-loop Vose tables; every sampled answer
    # above ALIAS_METHOD_THRESHOLD outcomes depends on this stream.
    wide_dist = full_distribution(haar_unitary_from_seed(40, 3), (1, 1, 1, 1) + (0,) * 36)
    assert wide_dist.space.size > ALIAS_METHOD_THRESHOLD  # so "auto" is alias
    auto = draw_outcomes(wide_dist, 20_000, rng_policy.generator(2024))
    assert _counts_digest(auto) == "99a405809bda49a2273574feef2ee9ded543027227315466f89601c31794a8fc"
    alias = draw_outcomes(haar_dist, 5_000, rng_policy.generator(17), method="alias")
    assert _counts_digest(alias) == "e486d536447963f037292685f6f446172a730f9dd8af7523405faecffadb46a5"


def _vose_reference(probs):
    """Vose's alias method as a plain stack loop: one small and one large
    popped per step, the large pushed back to whichever stack its residual
    belongs on. Test-only oracle for _alias_tables."""
    n = len(probs)
    prob = np.ones(n, dtype=np.float64)
    alias = np.arange(n, dtype=np.int64)
    scaled = probs * n
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        prob[s] = scaled[s]
        alias[s] = l
        scaled[l] -= 1.0 - scaled[s]
        if scaled[l] < 1.0:
            small.append(l)
        else:
            large.append(l)
    return prob, alias


def assert_tables_match_reference(probs):
    prob, alias = _alias_tables(probs)
    ref_prob, ref_alias = _vose_reference(probs)
    assert prob.dtype == np.float64 and alias.dtype == np.int64
    assert np.array_equal(prob.view(np.int64), ref_prob.view(np.int64))
    assert np.array_equal(alias, ref_alias)
    return prob, alias


def table_excess(probs, prob, alias):
    """Scaled mass each outcome gets from the tables, minus n * probs."""
    return prob + np.bincount(alias, weights=1.0 - prob, minlength=len(probs)) - probs * len(probs)


@st.composite
def probability_vectors(draw):
    """Random vectors summing to 1 or 1 +- 1e-7, or dyadic ones, on which
    residuals land exactly on 1.0 and the tie r == 1 decides the stack."""
    if draw(st.booleans()):
        n = 1 << draw(st.integers(0, 6))
        weights = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
        total = 1 << max(sum(weights), 1).bit_length()
        weights[-1] += total - sum(weights)
        return np.asarray(weights) / total
    n = draw(st.integers(1, 300))
    weights = draw(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-12, 1.0)), min_size=n, max_size=n)
    )
    total = math.fsum(weights)
    scale = draw(st.sampled_from([1.0, 1.0 - 1e-7, 1.0 + 1e-7]))
    if total == 0.0:
        weights[draw(st.integers(0, n - 1))] = 1.0
        total = 1.0
    return np.asarray(weights) / total * scale


@settings(max_examples=300, deadline=None)
@given(probability_vectors())
def test_alias_tables_match_vose_reference(probs):
    assert_tables_match_reference(probs)


def test_alias_tables_match_vose_reference_at_benchmark_size():
    # the (60 modes, 4 photons) space; exponential weights are the
    # Porter-Thomas shape of a Haar boson distribution
    weights = rng_policy.generator(595_665).exponential(size=595_665)
    assert_tables_match_reference(weights / weights.sum())


def walk_steps(probs):
    """Events the scalar loop takes in the walk for probs."""
    prob = probs * len(probs)
    smalls = np.flatnonzero(prob < 1.0)[::-1]
    larges = np.flatnonzero(prob >= 1.0)[::-1]
    return sampling._walk(prob, np.arange(len(probs)), smalls, larges)[2]


def test_alias_walk_takes_no_scalar_step_at_benchmark_size():
    # a silent fallback to the loop keeps the bits, so only the step count shows it
    weights = rng_policy.generator(595_665).exponential(size=595_665)
    assert walk_steps(weights / weights.sum()) == 0


def dyadic_vector(n, seed):
    """Integer weights over a power-of-two total: every running sum is exact,
    so residuals can land exactly on 1.0."""
    weights = rng_policy.generator(seed).integers(0, 9, size=n)
    total = 1 << int(weights.sum()).bit_length()
    weights[-1] += total - weights.sum()
    return weights / total


def test_alias_tables_match_reference_on_dyadic_vector_above_threshold():
    probs = dyadic_vector(1 << 17, 17)
    assert len(probs) > ALIAS_METHOD_THRESHOLD
    assert_tables_match_reference(probs)


def mixed_vectors():
    base = rng_policy.generator(5).exponential(size=3000)
    base /= base.sum()
    return [base, base * (1.0 - 1e-7), base * (1.0 + 1e-7), dyadic_vector(1 << 10, 3)]


@pytest.mark.parametrize("window", [1, 2, 7, 64])
@pytest.mark.parametrize("case", range(4))
def test_alias_tables_match_reference_across_windows(monkeypatch, window, case):
    monkeypatch.setattr(sampling, "_WINDOW", window)
    assert_tables_match_reference(mixed_vectors()[case])


@pytest.mark.parametrize("case", range(4))
def test_alias_tables_survive_every_guess_wrong(monkeypatch, case):
    # The first guessed event is always the walk's next one, so flipping it
    # makes the window a miss: the loop takes one step after each window and,
    # after _MAX_MISSES of them, finishes the walk. A flip that asks for one
    # small or demotion more than the window holds drops that kind's last event.
    guess = sampling._guess_events

    def wrong(d, v, r, smalls_end):
        ns, order = guess(d, v, r, smalls_end)
        events = order < ns
        events[0] = ~events[0]
        kind = events[0]
        if np.count_nonzero(events == kind) > (len(d) if kind else len(v)):
            events = np.delete(events, np.flatnonzero(events == kind)[-1])
        ns = int(np.count_nonzero(events))
        order = np.empty(len(events), dtype=np.int64)
        order[events] = np.arange(ns)
        order[~events] = ns + np.arange(len(events) - ns)
        return ns, order

    monkeypatch.setattr(sampling, "_guess_events", wrong)
    probs = mixed_vectors()[case]
    assert_tables_match_reference(probs)
    assert walk_steps(probs) > 0


@pytest.mark.parametrize(
    "probs",
    [
        [1.0],
        [0.3, 0.7],
        [0.5, 0.5],
        [0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.25, 0.0, 0.5, 0.0, 0.25],
        [0.1, 0.0, 0.2, 0.0, 0.3, 0.4],
        [0.125, 0.125, 0.375, 0.375],
    ],
    ids=["n1", "n2", "n2-uniform", "n2-point", "point-mass", "zeros", "zeros-ramp", "residual-1"],
)
def test_alias_tables_explicit_cases(probs):
    probs = np.asarray(probs)
    prob, alias = assert_tables_match_reference(probs)
    assert np.abs(table_excess(probs, prob, alias)).max() < 1e-12


@pytest.mark.parametrize("k", [0, 1, 4, 10])
def test_alias_tables_uniform_power_of_two_is_identity(k):
    # every scaled value is exactly 1.0, so no small exists and no step runs
    probs = np.full(1 << k, 1.0 / (1 << k))
    prob, alias = assert_tables_match_reference(probs)
    assert np.array_equal(prob, np.ones(1 << k))
    assert np.array_equal(alias, np.arange(1 << k))


@pytest.mark.parametrize("n", [7, 1000])
def test_alias_tables_stop_where_either_stack_runs_out(n):
    base = rng_policy.generator(n).random(n)
    base /= base.sum()
    # short of 1: larges run out and a small keeps prob 1, gaining mass
    short = base * (1.0 - 1e-7)
    excess = table_excess(short, *assert_tables_match_reference(short))
    assert excess.max() == pytest.approx(n * 1e-7, rel=1e-6)
    assert excess.min() > -1e-12
    # over 1: smalls run out and a large is left with residual above 1
    over = base * (1.0 + 1e-7)
    excess = table_excess(over, *assert_tables_match_reference(over))
    assert excess.min() == pytest.approx(-n * 1e-7, rel=1e-6)
    assert excess.max() < 1e-12


def test_empirical_binned_aggregates_counts(haar_dist):
    counts = draw_outcomes(haar_dist, 3000, rng_policy.generator(5))
    part = make_partition(haar_dist.space.size, 4)
    binned = bin_masses(counts, part)
    assert binned.sum() == 3000
    for label in range(4):
        lo, hi = part.offsets[label], part.offsets[label + 1]
        assert binned[label] == int(counts[lo:hi].sum())
    assert (binned / 3000).sum() == pytest.approx(1.0, abs=1e-12)


def test_empirical_binned_shape_check():
    part = make_partition(10, 2)
    with pytest.raises(ValueError, match="partition covers"):
        bin_masses(np.zeros(11, dtype=np.int64), part)


def test_estimate_mpb_uses_plan_and_is_deterministic(haar_dist):
    part = make_partition(haar_dist.space.size, 4)
    plan = chernoff_sample_size(4, 0.1, 0.0, 0.05, 0.0)
    r1, counts1 = estimate_mpb(haar_dist, part, plan, rng_policy.generator(42))
    r2, counts2 = estimate_mpb(haar_dist, part, plan, rng_policy.generator(42))
    assert counts1.sum() == plan.n_min
    assert np.array_equal(counts1, counts2)
    assert r1 == r2
    assert r1.p0 == pytest.approx(float((counts1 / plan.n_min).max()), rel=1e-14)


def test_estimate_mpb_matches_exact_winner_when_gap_is_wide():
    # exact gap 0.0898 at 4 bins; a plan resolving 0.02 should hit label 2
    u = haar_unitary_from_seed(11, 11)
    dist = full_distribution(u, (1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0))
    part = make_partition(dist.space.size, 4)
    plan = chernoff_sample_size(4, 0.02, 0.0, 0.05, 0.0)
    result, counts = estimate_mpb(dist, part, plan, rng_policy.generator(12345))
    assert result.label == 2
    assert not result.tie_flag
    assert counts.sum() == plan.n_min


def test_estimate_mpb_tie_threshold_is_resolvable_accuracy(haar_dist):
    part = make_partition(haar_dist.space.size, 4)
    # epsilon - delta = 0.5 exceeds any possible frequency gap here
    plan = chernoff_sample_size(4, 0.6, 0.1, 0.05, 0.0)
    result, _ = estimate_mpb(haar_dist, part, plan, rng_policy.generator(9))
    assert result.tie_flag


def test_estimate_mpb_bin_count_mismatch(haar_dist):
    part = make_partition(haar_dist.space.size, 4)
    plan = chernoff_sample_size(2, 0.1, 0.0, 0.05, 0.0)
    with pytest.raises(ValueError, match="bins"):
        estimate_mpb(haar_dist, part, plan, rng_policy.generator(1))


def test_sample_plan_is_frozen():
    plan = chernoff_sample_size(2, 0.1, 0.0, 0.05, 0.0)
    assert isinstance(plan, SamplePlan)
    with pytest.raises(AttributeError):
        plan.n_min = 1

