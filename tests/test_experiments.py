import json
from pathlib import Path

import numpy as np
import pytest

from bosonbin import rng as rng_policy
from bosonbin.binning import bin_of, make_partition
from bosonbin.experiments import (
    EXPERIMENT_DEFAULTS,
    EXPERIMENTS,
    ExperimentConfig,
    _mpb_scan,
    report_fingerprint,
    run_experiment,
)
from bosonbin.fock import enumerate_configurations
from bosonbin.problems import collision_probability

GOLDEN = Path(__file__).parent / "data" / "scan_fingerprints.json"
SCAN_EXPERIMENTS = sorted(set(EXPERIMENTS) - {"ryser_benchmark"})


def tiny_config(experiment, **overrides):
    params = {
        "mpb_seed_scan": dict(modes=8, photons=3, bin_list=(2, 4), seed_limit=10),
        "bin_fraction": dict(modes=7, photon_list=(2, 3), bin_list=(2, 3), unitary_count=2),
        "pmax_histogram": dict(modes=8, photons=3, bin_list=(2,), dp=0.25, unitary_count=2),
        "gap_fraction": dict(
            modes=7, photons=3, bin_list=(2, 3), epsilon_list=(0.05, 0.1), unitary_count=2
        ),
        "collision": dict(cells=((6, 2),), bin_list=(2,), pairs=("BD",), unitary_count=2),
        "maxprob_scaling": dict(cells=((4, 2), (6, 2), (8, 2)), unitary_count=2, seed_sample=10),
        "ryser_benchmark": dict(n_range=(6, 9), repeats=1),
    }[experiment]
    params.update(overrides)
    return ExperimentConfig(experiment=experiment, master_seed=1, **params)


def rows_of(report, table):
    return [c for c in report.cells if c.get("table") == table]


def test_resolved_applies_defaults_and_quick():
    cfg = ExperimentConfig(experiment="bin_fraction", master_seed=5)
    eff = cfg.resolved()
    assert eff["unitary_count"] == 100
    assert eff["modes"] == 18
    assert eff["photon_list"] == [2, 3, 4]
    quick = ExperimentConfig(experiment="bin_fraction", master_seed=5, quick=True)
    assert quick.resolved()["unitary_count"] == 20
    # an explicit count beats the quick default
    pinned = ExperimentConfig(
        experiment="bin_fraction", master_seed=5, quick=True, unitary_count=7
    )
    assert pinned.resolved()["unitary_count"] == 7


def test_resolved_rejects_unknown_experiment():
    with pytest.raises(ValueError, match="known:"):
        ExperimentConfig(experiment="warp_drive", master_seed=1).resolved()
    with pytest.raises(ValueError, match="known:"):
        run_experiment(ExperimentConfig(experiment="warp_drive", master_seed=1))


def test_experiment_registry_matches_defaults():
    assert set(EXPERIMENTS) == set(EXPERIMENT_DEFAULTS)
    for name in EXPERIMENTS:
        assert "quick_unitary_count" in EXPERIMENT_DEFAULTS[name]


def test_config_json_round_trip():
    cfg = tiny_config("gap_fraction", threads=2)
    back = ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json())))
    assert back == cfg
    assert back.bin_list == (2, 3)
    assert back.epsilon_list == (0.05, 0.1)


def test_config_from_json_validation():
    with pytest.raises(ValueError, match="master_seed"):
        ExperimentConfig.from_json({"experiment": "collision"})
    with pytest.raises(ValueError, match="unknown config fields"):
        ExperimentConfig.from_json(
            {"experiment": "collision", "master_seed": 1, "warp": True}
        )


def test_mpb_scan_identity_unitary_reads_off_partition():
    space = enumerate_configurations(7, 3)
    matrix = np.eye(7, dtype=np.complex128)
    scans = _mpb_scan(matrix, space, (2, 5))
    for d, (labels, p0, p1) in scans.items():
        part = make_partition(space.size, d)
        expected = np.array([bin_of(part, i) for i in range(space.size)])
        assert np.array_equal(labels, expected)
        assert np.allclose(p0, 1.0)
        assert np.allclose(p1, 0.0)


def test_mpb_seed_scan_schema():
    report = run_experiment(tiny_config("mpb_seed_scan"))
    scan = rows_of(report, "scan")
    assert len(scan) == 2 * 10  # two bin counts x seed_limit
    for row in scan:
        assert row["bins"] in (2, 4)
        assert 0 <= row["label"] < row["bins"]
        assert row["p0"] >= row["p1"]
        assert row["gap"] == pytest.approx(row["p0"] - row["p1"], rel=1e-12)
    transitions = rows_of(report, "transitions")
    assert len(transitions) == 2
    assert report.summary["space_size"] == enumerate_configurations(8, 3).size
    assert report.summary["violations"] == 0


def test_bin_fraction_schema_and_mass_balance():
    report = run_experiment(tiny_config("bin_fraction"))
    fractions = rows_of(report, "fractions")
    # one row per (photons, bins, label)
    assert len(fractions) == 2 + 3 + 2 + 3
    for photons in (2, 3):
        for bins in (2, 3):
            masses = [
                r["fraction_mean"]
                for r in fractions
                if r["photons"] == photons and r["bins"] == bins
            ]
            assert len(masses) == bins
            assert sum(masses) == pytest.approx(1.0, abs=1e-9)
    bounds = rows_of(report, "bounds")
    assert [r["photons"] for r in bounds] == [2, 3]
    assert report.summary["violations"] == 0
    assert report.summary["min_margin"] > 0


def test_pmax_histogram_schema():
    report = run_experiment(tiny_config("pmax_histogram"))
    hist = rows_of(report, "histogram")
    assert all(r["bins"] == 2 for r in hist)
    assert sum(r["fraction_mean"] for r in hist) == pytest.approx(1.0, abs=1e-9)
    for r in hist:
        assert r["p_high"] == pytest.approx(r["p_low"] + 0.25, abs=1e-12)
    moments = rows_of(report, "moments")
    assert len(moments) == 1
    assert 0.5 <= moments[0]["p0_mean"] <= 1.0  # top bin of two holds at least half
    assert report.summary["violations"] == 0


def test_gap_fraction_monotone_in_epsilon():
    report = run_experiment(tiny_config("gap_fraction"))
    fractions = rows_of(report, "fractions")
    for bins in (2, 3):
        series = sorted(
            (r["epsilon"], r["fraction_mean"]) for r in fractions if r["bins"] == bins
        )
        values = [v for _, v in series]
        assert values == sorted(values)  # larger windows catch at least as many
        assert all(0.0 <= v <= 1.0 for v in values)
    assert rows_of(report, "gaps")


def test_collision_schema():
    report = run_experiment(tiny_config("collision"))
    rows = rows_of(report, "collision")
    assert len(rows) == 1
    row = rows[0]
    assert row["pair"] == "BD"
    assert (row["modes"], row["photons"], row["bins"]) == (6, 2, 2)
    assert 0.0 <= row["p_col_mean"] <= 1.0
    space = enumerate_configurations(6, 2)
    assert row["size_full"] == space.size
    assert row["size_cf"] == len(space.collision_free_indices)
    assert row["seed_count"] == row["size_cf"]


def test_maxprob_scaling_schema():
    report = run_experiment(tiny_config("maxprob_scaling"))
    cells = rows_of(report, "cells")
    assert [c["modes"] for c in cells] == [4, 6, 8]
    sizes = [c["size_full"] for c in cells]
    means = [c["maxprob_mean"] for c in cells]
    assert sizes == sorted(sizes)
    assert means == sorted(means, reverse=True)  # larger spaces dilute the peak
    assert report.summary["exponent"] < 0
    assert report.summary["prefactor"] > 0
    assert report.summary["size_measure"] == "full"


def test_ryser_benchmark_schema():
    report = run_experiment(tiny_config("ryser_benchmark"))
    single = rows_of(report, "single")
    assert [r["n"] for r in single] == [6, 7, 8, 9]
    assert single[0]["ratio_to_prev"] is None
    assert all(r["seconds"] > 0 for r in single)
    assert all(r["ratio_to_prev"] > 0 for r in single[1:])
    grid = rows_of(report, "grid")
    assert {(r["modes"], r["photons"]) for r in grid} == {
        (4, 2), (8, 2), (16, 2), (9, 3), (18, 3), (16, 4)
    }
    assert report.summary["repeats"] == 1


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_runs_are_reproducible(experiment):
    a = run_experiment(tiny_config(experiment))
    b = run_experiment(tiny_config(experiment))
    assert report_fingerprint(a) == report_fingerprint(b)


def test_thread_count_does_not_change_results():
    serial = report_fingerprint(run_experiment(tiny_config("bin_fraction", threads=1)))
    threaded = report_fingerprint(run_experiment(tiny_config("bin_fraction", threads=2)))
    # the recorded config legitimately differs (threads=1 vs 2); the numbers must not
    serial.pop("config")
    threaded.pop("config")
    assert serial == threaded


def test_fingerprint_strips_timing_fields():
    report = run_experiment(tiny_config("ryser_benchmark"))
    payload = report.to_payload()
    fp = report_fingerprint(report)
    assert "wall_seconds" in payload and "wall_seconds" not in fp
    assert "started_at" in payload and "started_at" not in fp
    assert "fit_a" in payload["summary"] and "fit_a" not in fp["summary"]
    for row in fp["cells"]:
        assert "seconds" not in row
        assert "ratio_to_prev" not in row
    # non-timing content survives the strip
    assert fp["experiment"] == "ryser_benchmark"
    assert [r["n"] for r in fp["cells"] if r["table"] == "single"] == [6, 7, 8, 9]


def test_report_write_produces_json_and_csv(tmp_path):
    report = run_experiment(tiny_config("gap_fraction"))
    paths = report.write(tmp_path)
    assert str(tmp_path / "gap_fraction.json") in paths
    payload = json.loads((tmp_path / "gap_fraction.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["experiment"] == "gap_fraction"
    assert len(payload["cells"]) == len(report.cells)
    csv_fractions = (tmp_path / "gap_fraction_fractions.csv").read_text().splitlines()
    assert csv_fractions[0] == "bins,epsilon,fraction_mean,fraction_std"
    assert len(csv_fractions) == 1 + len(rows_of(report, "fractions"))
    csv_gaps = (tmp_path / "gap_fraction_gaps.csv").read_text().splitlines()
    assert len(csv_gaps) == 1 + len(rows_of(report, "gaps"))


def test_report_json_is_strict(tmp_path):
    # NaN/Infinity never reach the report files; strict JSON must parse them
    for experiment in sorted(EXPERIMENTS):
        report = run_experiment(tiny_config(experiment))
        report.write(tmp_path)
        text = (tmp_path / f"{experiment}.json").read_text()
        json.loads(text, parse_constant=lambda s: pytest.fail(f"{experiment}: {s}"))


def assert_matches_golden(actual, expected, where):
    """Labels, counts and strings exactly; floats to rel 1e-12. The absolute
    floor of 1e-15 covers min_margin = p0 - 1/d, which loses about five
    digits to cancellation, so a 1-ulp move of p0 shows as rel ~1e-11."""
    if isinstance(expected, float):
        assert isinstance(actual, float), where
        assert actual == pytest.approx(expected, rel=1e-12, abs=1e-15), where
    elif isinstance(expected, dict):
        assert actual.keys() == expected.keys(), where
        for key in expected:
            assert_matches_golden(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches_golden(a, e, f"{where}[{i}]")
    else:
        assert type(actual) is type(expected) and actual == expected, where


@pytest.mark.parametrize("experiment", SCAN_EXPERIMENTS)
@pytest.mark.parametrize("threads", [1, 2])
def test_scan_report_matches_golden_fingerprint(experiment, threads):
    # Captured before the scan experiments shared one driver; a change here
    # is a change of the published numbers, not a refactor.
    expected = json.loads(GOLDEN.read_text())[experiment]
    actual = report_fingerprint(run_experiment(tiny_config(experiment, threads=threads)))
    actual.pop("config")
    assert_matches_golden(json.loads(json.dumps(actual)), expected, experiment)


@pytest.mark.parametrize("pair,other", [("BD", "distinguishable"), ("BF", "fermion")])
def test_collision_probability_agrees_with_collision_experiment(pair, other):
    config = tiny_config("collision", pairs=(pair,), unitary_count=1)
    [row] = rows_of(run_experiment(config), "collision")
    # child 0 of the master seed is the generator the experiment's only unitary draws from
    result = collision_probability(
        6, 2, 2, ("boson", other), 1, rng=rng_policy.split(config.master_seed, 1)[0]
    )
    assert result.mean == row["p_col_mean"]
    assert result.seed_count == row["seed_count"]


@pytest.mark.parametrize("experiment", SCAN_EXPERIMENTS)
def test_scan_experiments_refuse_zero_unitaries(experiment):
    with pytest.raises(ValueError, match="unitary_count"):
        run_experiment(tiny_config(experiment, unitary_count=0))


def test_collision_refuses_cells_without_collision_free_seeds():
    with pytest.raises(ValueError, match="no collision-free seeds"):
        run_experiment(tiny_config("collision", cells=((6, 2), (2, 3))))
