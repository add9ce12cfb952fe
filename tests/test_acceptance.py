"""End-to-end acceptance checks, one test per release criterion.

Each test prints one [PASS]/[FAIL] line with the measured numbers before
asserting, so a plain `pytest -v -s tests/test_acceptance.py` reads as a
checklist. Module-scoped fixtures hold the expensive report runs; the whole
file takes several minutes on one core.
"""
import inspect
import math
from decimal import ROUND_CEILING, Decimal, getcontext

import numpy as np
import pytest

from bosonbin import rng as rng_policy
from bosonbin.binning import bin_masses, make_partition, mpb_from_vector
from bosonbin.distribution import full_distribution
from bosonbin.experiments import ExperimentConfig, report_fingerprint, run_experiment
from bosonbin.fock import enumerate_configurations
from bosonbin.linalg import (
    UnitaryMatrix,
    haar_unitary,
    permanent_naive,
    permanent_ryser,
)
from bosonbin.problems import joint_success_probability
from bosonbin.sampling import chernoff_sample_size, draw_outcomes, estimate_mpb

MASTER_SEED = 20260819


def announce(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")


@pytest.fixture(scope="module")
def seed_scan_report():
    return run_experiment(ExperimentConfig(experiment="mpb_seed_scan", master_seed=MASTER_SEED))


@pytest.fixture(scope="module")
def bin_fraction_report():
    return run_experiment(
        ExperimentConfig(experiment="bin_fraction", master_seed=MASTER_SEED, quick=True)
    )


@pytest.fixture(scope="module")
def pmax_report():
    return run_experiment(
        ExperimentConfig(experiment="pmax_histogram", master_seed=MASTER_SEED, quick=True)
    )


@pytest.fixture(scope="module")
def gap_report():
    eps = (0.005,) + tuple(round(0.01 * k, 2) for k in range(1, 11))
    return run_experiment(
        ExperimentConfig(
            experiment="gap_fraction", master_seed=MASTER_SEED, quick=True, epsilon_list=eps
        )
    )


@pytest.fixture(scope="module")
def collision_report():
    return run_experiment(
        ExperimentConfig(experiment="collision", master_seed=MASTER_SEED, quick=True)
    )


@pytest.fixture(scope="module")
def maxprob_report():
    return run_experiment(
        ExperimentConfig(experiment="maxprob_scaling", master_seed=MASTER_SEED, quick=True)
    )


@pytest.fixture(scope="module")
def ryser_report():
    return run_experiment(
        ExperimentConfig(experiment="ryser_benchmark", master_seed=MASTER_SEED)
    )


def rows_of(report, table):
    return [c for c in report.cells if c.get("table") == table]


def test_criterion_01_configuration_space():
    checked = 0
    for photons in range(2, 6):
        for modes in range(1, 21):
            space = enumerate_configurations(modes, photons)
            assert space.size == math.comb(modes + photons - 1, photons)
            assert len(set(space.codes)) == space.size  # codes are injective
            assert space.codes == sorted(space.codes)
            checked += 1
    ten = enumerate_configurations(4, 2)
    expected_codes = [2, 3, 4, 5, 6, 8, 9, 10, 12, 16]
    ok = ten.size == 10 and ten.codes == expected_codes
    announce(1, ok, f"{checked} spaces counted and injective; (4,2) codes {ten.codes}")
    assert ok


def test_criterion_02_permanent_oracle_agreement():
    gen = rng_policy.generator(MASTER_SEED)
    worst = 0.0
    for n in range(1, 9):
        for _ in range(500):
            m = (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))) / math.sqrt(2)
            reference = permanent_naive(m)
            rel = abs(permanent_ryser(m) - reference) / abs(reference)
            worst = max(worst, rel)
        ones = permanent_ryser(np.ones((n, n), dtype=np.complex128))
        assert ones.real == pytest.approx(math.factorial(n), rel=1e-12)
        assert abs(ones.imag) < 1e-9
    ok = worst < 1e-10
    announce(2, ok, f"500 matrices per n in 1..8, worst relative error {worst:.3e}")
    assert ok


def test_criterion_03_normalization_grid():
    gen = rng_policy.generator(MASTER_SEED)
    worst = 0.0
    cells = 0
    for photons in (2, 3, 4):
        for modes in sorted({photons, 6, 12, 18}):
            space = enumerate_configurations(modes, photons)
            partition = make_partition(space.size, min(4, space.size))
            cf_seed = space.configuration(int(space.collision_free_indices[0]))
            bunched = space.configuration(0)  # all photons in one mode
            for _ in range(20):
                u = haar_unitary(modes, gen)
                for statistics, seed in (
                    ("boson", cf_seed),
                    ("boson", bunched),
                    ("distinguishable", cf_seed),
                    ("distinguishable", bunched),
                    ("fermion", cf_seed),
                ):
                    dist = full_distribution(u, seed, statistics, space=space)
                    worst = max(worst, dist.normalization_error)
                    binned = bin_masses(dist.probabilities, partition)
                    worst = max(worst, abs(float(binned.sum()) - 1.0))
            cells += 1
    ok = worst < 1e-9
    announce(3, ok, f"{cells} (modes, photons) cells x 20 unitaries, worst |sum-1| {worst:.3e}")
    assert ok


def test_criterion_04_two_photon_interference():
    bs = UnitaryMatrix(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))
    boson = full_distribution(bs, (1, 1), "boson").probability_of((1, 1))
    fermion = full_distribution(bs, (1, 1), "fermion").probability_of((1, 1))
    classical = full_distribution(bs, (1, 1), "distinguishable").probability_of((1, 1))
    ok = abs(boson) < 1e-12 and abs(fermion - 1.0) < 1e-12 and abs(classical - 0.5) < 1e-12
    announce(4, ok, f"balanced coupler P(1,1): boson {boson:.2e}, fermion {fermion}, "
                    f"distinguishable {classical}")
    assert ok


def test_criterion_05_top_bin_exceeds_uniform(
    seed_scan_report, bin_fraction_report, pmax_report, gap_report
):
    reports = {
        "mpb_seed_scan": seed_scan_report,
        "bin_fraction": bin_fraction_report,
        "pmax_histogram": pmax_report,
        "gap_fraction": gap_report,
    }
    violations = {name: rep.summary["violations"] for name, rep in reports.items()}
    margins = {name: rep.summary["min_margin"] for name, rep in reports.items()}
    ok = all(v == 0 for v in violations.values()) and all(m > 0 for m in margins.values())
    announce(5, ok, f"p0 > 1/d violations {violations}, min margins "
                    f"{ {k: f'{v:.2e}' for k, v in margins.items()} }")
    assert ok


def test_criterion_06_bin_fraction_window(bin_fraction_report):
    worst = 0.0
    for row in rows_of(bin_fraction_report, "fractions"):
        worst = max(worst, abs(row["fraction_mean"] - 1.0 / row["bins"]))
    full = ExperimentConfig(experiment="bin_fraction", master_seed=1).resolved()
    ok = worst <= 0.15 and full["unitary_count"] == 100
    announce(6, ok, f"per-bin mean fractions within {worst:.4f} of 1/d over 18 modes, "
                    f"2..4 photons, 2..5 bins ({bin_fraction_report.summary['unitary_count']} "
                    f"unitaries; full mode uses {full['unitary_count']})")
    assert ok


def test_criterion_07_particle_type_agreement(collision_report):
    rows = rows_of(collision_report, "collision")
    bd = [r for r in rows if r["pair"] == "BD"]
    bd2 = [r["p_col_mean"] for r in bd if r["bins"] == 2]
    bd16 = [r["p_col_mean"] for r in bd if r["bins"] == 16]
    sizes = sorted({r["size_full"] for r in rows})
    cells = sorted({(r["modes"], r["photons"]) for r in bd})
    monotone = True
    spread_ok = True
    for cell in cells:
        series = [r["p_col_mean"] for r in sorted(
            (r for r in bd if (r["modes"], r["photons"]) == cell), key=lambda r: r["bins"]
        )]
        monotone &= all(a >= b - 1e-12 for a, b in zip(series, series[1:]))
    for bins in (2, 4, 8, 16):
        vals = [r["p_col_mean"] for r in bd if r["bins"] == bins]
        spread_ok &= max(vals) - min(vals) <= 0.15
    joint = joint_success_probability(0.8, 5)
    ok = (
        all(v >= 0.9 for v in bd2)
        and all(0.6 <= v <= 0.8 for v in bd16)
        and 100 <= sizes[0] and sizes[-1] <= 3000
        and monotone and spread_ok
        and abs(joint - 0.32768) < 1e-12
    )
    announce(7, ok, f"boson/distinguishable agreement d=2 {['%.3f' % v for v in bd2]}, "
                    f"d=16 {['%.3f' % v for v in bd16]}, sizes {sizes}, "
                    f"0.8^5 = {joint!r}")
    assert ok


def test_criterion_08_small_gap_fraction_window(gap_report):
    fractions = rows_of(gap_report, "fractions")
    at_05 = {r["bins"]: r["fraction_mean"] for r in fractions if r["epsilon"] == 0.05}
    at_005 = {r["bins"]: r["fraction_mean"] for r in fractions if r["epsilon"] == 0.005}
    for bins in sorted(at_05):
        series = [r["fraction_mean"] for r in sorted(
            (r for r in fractions if r["bins"] == bins), key=lambda r: r["epsilon"]
        )]
        assert series == sorted(series), "fractions must be non-decreasing in the gap window"
    ok = all(v <= 0.15 for v in at_05.values())
    announce(8, ok, f"fraction of 18-mode 4-photon seeds with top-gap <= 0.05, by bin count: "
                    f"{ {d: round(v, 3) for d, v in sorted(at_05.items())} } "
                    f"(window <= 0.15; at gap <= 0.005 the same fractions are "
                    f"{ {d: round(v, 3) for d, v in sorted(at_005.items())} })")
    assert ok, (
        "the <= 0.15 window fails at gap threshold 0.05 for every bin count; measured "
        f"{at_05}. The distributions themselves are validated by the other criteria, and "
        "the same statistic does fall under 0.15 at a 10x smaller gap threshold "
        f"({at_005}), so the target as stated appears unattainable for this construction "
        "rather than mis-implemented. Kept failing on purpose instead of widening the bound."
    )


def test_criterion_09_sample_size_planner():
    getcontext().prec = 50
    grid = [
        (2, 0.1, 0.05, 0.05, 0.01),
        (2, 0.1, 0.0, 0.05, 0.0),
        (2, 0.05, 0.0, 0.05, 0.0),
        (2, 0.2, 0.1, 0.1, 0.05),
        (2, 0.3, 0.0, 0.2, 0.1),
        (3, 0.1, 0.05, 0.05, 0.01),
        (3, 0.15, 0.05, 0.1, 0.0),
        (3, 0.2, 0.0, 0.02, 0.01),
        (4, 0.1, 0.05, 0.05, 0.01),
        (4, 0.1, 0.02, 0.05, 0.02),
        (4, 0.25, 0.05, 0.15, 0.1),
        (5, 0.1, 0.0, 0.05, 0.0),
        (5, 0.12, 0.02, 0.08, 0.04),
        (8, 0.05, 0.01, 0.02, 0.005),
        (8, 0.1, 0.05, 0.05, 0.01),
        (10, 0.2, 0.1, 0.1, 0.02),
        (16, 0.3, 0.1, 0.2, 0.05),
        (16, 0.1, 0.0, 0.01, 0.0),
        (32, 0.2, 0.05, 0.1, 0.01),
        (64, 0.5, 0.25, 0.3, 0.15),
    ]
    assert len(grid) == 20
    for num_bins, eps, dlt, eta, gam in grid:
        plan = chernoff_sample_size(num_bins, eps, dlt, eta, gam)
        e, d_, h, g = (Decimal(str(v)) for v in (eps, dlt, eta, gam))
        exact = 3 * num_bins / (e - d_) ** 2 * (2 * (1 - g) / (h - g)).ln()
        assert plan.n_min == int(exact.to_integral_value(rounding=ROUND_CEILING))
    reference = chernoff_sample_size(2, 0.1, 0.05, 0.05, 0.01)
    assert reference.n_min == 9365  # ceil(2400 ln 49.5)
    params = list(inspect.signature(chernoff_sample_size).parameters)
    assert params == ["num_bins", "epsilon", "delta", "eta", "gamma"]  # no mode/photon inputs

    # Monte-Carlo: with n_min draws the estimated top bin matches the exact one
    # in >= 1 - eta of trials whose exact gap exceeds epsilon.
    space = enumerate_configurations(11, 3)
    partition = make_partition(space.size, 2)
    master = rng_policy.generator(424242)
    unambiguous = successes = trials = 0
    while unambiguous < 200:
        trials += 1
        u = haar_unitary(11, master)
        seed = space.configuration(int(master.integers(space.size)))
        dist = full_distribution(u, seed, space=space)
        exact = mpb_from_vector(bin_masses(dist.probabilities, partition))
        if exact.gap <= reference.epsilon:
            continue
        unambiguous += 1
        estimated, _ = estimate_mpb(dist, partition, reference, master.spawn(1)[0])
        successes += estimated.label == exact.label
    rate = successes / unambiguous
    ok = rate >= 1 - reference.eta
    announce(9, ok, f"20-point plan grid matches 50-digit evaluation; n_min(2 bins) = "
                    f"{reference.n_min}; sampled winner correct in {successes}/{unambiguous} "
                    f"unambiguous trials ({trials} total)")
    assert ok


def test_criterion_10_peak_probability_power_law(maxprob_report):
    summary = maxprob_report.summary
    cells = rows_of(maxprob_report, "cells")
    sizes = {(c["modes"], c["photons"]): c for c in cells}
    pair_devs = []
    for (a, b) in (((26, 2), (12, 3)), ((32, 3), (18, 4))):
        va, vb = sizes[a]["maxprob_mean"], sizes[b]["maxprob_mean"]
        pair_devs.append(abs(va - vb) / ((va + vb) / 2))
    size_span = (min(c["size_full"] for c in cells), max(c["size_full"] for c in cells))
    ok = (
        -0.85 <= summary["exponent"] <= -0.55
        and 1.0 <= summary["prefactor"] <= 2.2
        and size_span[0] <= 10 and size_span[1] >= 5900
        and all(dev <= 0.2 for dev in pair_devs)
    )
    announce(10, ok, f"mean peak probability ~ {summary['prefactor']:.3f} * "
                     f"size^{summary['exponent']:.3f} over sizes {size_span[0]}..{size_span[1]}; "
                     f"equal-size cells with different shapes agree to "
                     f"{[f'{d:.1%}' for d in pair_devs]}")
    assert ok


def test_criterion_11_permanent_cost_doubles_per_photon(ryser_report):
    singles = rows_of(ryser_report, "single")
    ratios = [r["ratio_to_prev"] for r in singles if r["ratio_to_prev"] is not None]
    assert [r["n"] for r in singles] == list(range(14, 21))
    ok = all(1.8 <= v <= 2.8 for v in ratios)
    announce(11, ok, f"per-photon time ratios n=15..20: {['%.2f' % v for v in ratios]} "
                     f"(absolute times are hardware-specific and deliberately unchecked)")
    assert ok


def test_criterion_12_reruns_are_bit_identical(maxprob_report):
    again = run_experiment(
        ExperimentConfig(experiment="maxprob_scaling", master_seed=MASTER_SEED, quick=True)
    )
    same_report = report_fingerprint(again) == report_fingerprint(maxprob_report)

    tiny = dict(experiment="collision", master_seed=3, cells=((6, 2),), bin_list=(2, 4),
                pairs=("BD",), unitary_count=3)
    serial = report_fingerprint(run_experiment(ExperimentConfig(**tiny, threads=1)))
    threaded = report_fingerprint(run_experiment(ExperimentConfig(**tiny, threads=4)))
    serial.pop("config")
    threaded.pop("config")
    same_threads = serial == threaded

    u = haar_unitary(8, rng_policy.generator(MASTER_SEED))
    dist = full_distribution(u, (1, 1, 1, 0, 0, 0, 0, 0))
    draws_a = draw_outcomes(dist, 5000, rng_policy.generator(8))
    draws_b = draw_outcomes(dist, 5000, rng_policy.generator(8))
    same_draws = np.array_equal(draws_a, draws_b)

    ok = same_report and same_threads and same_draws
    announce(12, ok, f"report rerun identical: {same_report}; thread count invariant: "
                     f"{same_threads}; repeated draws identical: {same_draws}")
    assert ok
