import json
import math
from pathlib import Path

import numpy as np
import pytest

from bosonbin import binning, distribution
from bosonbin.binning import ClassPlan, make_partition
from bosonbin.distribution import ParticleStatistics, ScanWorkspace, full_distribution, scan_width
from bosonbin.experiments import (
    EXPERIMENT_DEFAULTS,
    EXPERIMENTS,
    RUN_FIELDS,
    ExperimentConfig,
    _fits,
    _mpb_scan,
    report_fingerprint,
    run_experiment,
)
from bosonbin.fock import enumerate_configurations
from bosonbin.io import write_json
from bosonbin.linalg import haar_unitary_from_seed

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


@pytest.mark.parametrize("seed", [-1, 1.0, True, "3"])
def test_resolved_refuses_a_bad_master_seed(seed):
    with pytest.raises(ValueError, match="master_seed must be an integer >= 0"):
        ExperimentConfig(experiment="gap_fraction", master_seed=seed).resolved()


def test_an_int_fits_a_float_default_and_numpy_ints_resolve_as_ints():
    config = tiny_config("pmax_histogram", modes=np.int64(8), dp=1)
    eff = config.resolved()
    assert (type(eff["modes"]), eff["dp"]) == (int, 1)
    assert run_experiment(config).summary["dp"] == 1.0


def test_experiment_registry_matches_defaults():
    assert set(EXPERIMENTS) == set(EXPERIMENT_DEFAULTS)
    for name, defaults in EXPERIMENT_DEFAULTS.items():
        for key, value in defaults.items():
            setting = key.removeprefix("quick_")
            assert setting in defaults and setting not in RUN_FIELDS, (name, key)
            assert _fits(value, defaults[setting]), (name, key)
        timed = name == "ryser_benchmark"
        assert ("unitary_count" in defaults) is not timed, name
        assert ("quick_unitary_count" in defaults) is not timed, name


def settings_of(experiment):
    return [k for k in EXPERIMENT_DEFAULTS[experiment] if not k.startswith("quick_")]


def foreign_setting(experiment):
    """A setting another experiment takes and this one does not, with the
    other experiment's default as its value."""
    for other in sorted(EXPERIMENT_DEFAULTS):
        for key in settings_of(other):
            if key not in settings_of(experiment):
                return key, EXPERIMENT_DEFAULTS[other][key]
    raise AssertionError(experiment)


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_settings_of_another_experiment_are_refused(experiment):
    key, value = foreign_setting(experiment)
    config = tiny_config(experiment, **{key: value})
    with pytest.raises(ValueError, match=f"{experiment} does not take {key}"):
        config.resolved()
    with pytest.raises(ValueError, match=f"{experiment} does not take {key}"):
        run_experiment(config)
    with pytest.raises(ValueError, match=f"{experiment} does not take {key}"):
        ExperimentConfig.from_json(config_payload(config)).resolved()


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_resolved_records_exactly_the_settings(experiment):
    for quick in (False, True):
        eff = ExperimentConfig(experiment=experiment, master_seed=1, quick=quick).resolved()
        assert set(eff) == set(settings_of(experiment)) | set(RUN_FIELDS)


def test_ryser_benchmark_quick_is_smaller():
    eff = ExperimentConfig(experiment="ryser_benchmark", master_seed=1, quick=True).resolved()
    assert eff["n_range"] == [10, 14]
    assert eff["repeats"] == 3
    assert "unitary_count" not in eff
    full = ExperimentConfig(experiment="ryser_benchmark", master_seed=1).resolved()
    assert (full["n_range"], full["repeats"]) == ([14, 20], 8)
    pinned = ExperimentConfig(experiment="ryser_benchmark", master_seed=1, quick=True, repeats=2)
    assert pinned.resolved()["repeats"] == 2


@pytest.mark.parametrize(
    "experiment,overrides,match",
    [
        ("pmax_histogram", dict(dp=0.0), "dp"),
        ("pmax_histogram", dict(dp=-0.1), "dp"),
        ("pmax_histogram", dict(dp=1.5), "dp"),
        ("ryser_benchmark", dict(n_range=(9, 6)), "n_lo <= n_hi"),
        ("ryser_benchmark", dict(n_range=(0, 3)), "1 <= n_lo"),
        ("ryser_benchmark", dict(repeats=0), "repeats"),
        ("mpb_seed_scan", dict(seed_limit=0), "seed_limit must be >= 1"),
        ("maxprob_scaling", dict(seed_sample=0), "seed_sample must be >= 1"),
        ("bin_fraction", dict(photon_list=()), "photon_list must not be empty"),
        ("pmax_histogram", dict(bin_list=()), "bin_list must not be empty"),
        ("gap_fraction", dict(epsilon_list=()), "epsilon_list must not be empty"),
        ("collision", dict(cells=()), "cells must not be empty"),
        ("collision", dict(pairs=()), "pairs must not be empty"),
        ("maxprob_scaling", dict(cells=()), "cells must not be empty"),
        ("gap_fraction", dict(epsilon_list=(0.05, -1.0)), r"epsilon_list must lie in \(0, 1\)"),
        ("gap_fraction", dict(epsilon_list=(0.0,)), r"epsilon_list must lie in \(0, 1\)"),
        ("gap_fraction", dict(epsilon_list=(1.0,)), r"epsilon_list must lie in \(0, 1\)"),
        ("gap_fraction", dict(epsilon_list=(float("nan"),)), r"epsilon_list must lie in \(0, 1\)"),
        ("collision", dict(pairs=("BB",)), "unknown statistics pair"),
        ("mpb_seed_scan", dict(modes=True), "modes must be an integer, got True"),
        ("mpb_seed_scan", dict(seed_limit=10.0), "seed_limit must be an integer"),
        ("pmax_histogram", dict(dp=None), "dp must be a number"),
        ("gap_fraction", dict(epsilon_list=0.1), "epsilon_list must be a list of numbers"),
        ("collision", dict(cells=((6, 2.0),)), "cells must be a list of lists of integers"),
        ("collision", dict(pairs=(1,)), "pairs must be a list of strings"),
        ("maxprob_scaling", dict(size_measure=1), "size_measure must be a string"),
        ("gap_fraction", dict(quick=1), "quick must be true or false"),
        ("gap_fraction", dict(limit=0), "limit must be an integer >= 1"),
    ],
)
def test_out_of_range_settings_are_refused(experiment, overrides, match):
    with pytest.raises(ValueError, match=match):
        run_experiment(tiny_config(experiment, **overrides))


def config_payload(config):
    """A config as a JSON file holds it: run fields, given settings and a schema version."""
    payload = {**{k: getattr(config, k) for k in RUN_FIELDS}, **config.settings}
    payload["schema_version"] = 1
    return json.loads(json.dumps(payload))


def test_config_json_round_trip():
    cfg = tiny_config("gap_fraction", threads=2)
    back = ExperimentConfig.from_json(config_payload(cfg))
    assert back == cfg
    assert back.settings["bin_list"] == [2, 3]
    assert back.settings["epsilon_list"] == [0.05, 0.1]
    assert back.resolved() == cfg.resolved()


def test_config_from_json_validation():
    with pytest.raises(ValueError, match="master_seed"):
        ExperimentConfig.from_json({"experiment": "collision"})
    with pytest.raises(ValueError, match="collision does not take warp"):
        ExperimentConfig.from_json(
            {"experiment": "collision", "master_seed": 1, "warp": True}
        ).resolved()


def test_mpb_scan_identity_unitary_reads_off_partition():
    space = enumerate_configurations(7, 3)
    matrix = np.eye(7, dtype=np.complex128)
    scans = _mpb_scan(matrix, space, (2, 5))
    for d, (labels, p0, p1) in scans.items():
        part = make_partition(space.size, d)
        expected = np.repeat(np.arange(d), part.widths)
        assert np.array_equal(labels, expected)
        assert np.allclose(p0, 1.0)
        assert np.allclose(p1, 0.0)


def _single_seed_scan(unitary, space, bin_list, seed_indices, statistics):
    """_mpb_scan's (labels, p0, p1) from one full_distribution per seed, each
    reduced as a one-column block."""
    out = {d: ([], [], []) for d in bin_list}
    for index in seed_indices:
        seed = space.configuration(int(index))
        probs = full_distribution(unitary, seed, statistics, space=space).probabilities[:, None]
        for d in bin_list:
            starts = np.asarray(make_partition(space.size, d).offsets[:-1], dtype=np.intp)
            binned = np.add.reduceat(probs, starts, axis=0)[:, 0]
            label = int(np.argmax(binned))
            for column, value in zip(out[d], (label, binned[label], np.partition(binned, -2)[-2])):
                column.append(value)
    return {d: tuple(np.asarray(c) for c in cols) for d, cols in out.items()}


def test_scan_calls_the_kernel_through_the_experiments_module(monkeypatch):
    # external tracers time the scan kernel by wrapping this module attribute,
    # so every block of every unitary must go through it, on every thread
    import bosonbin.experiments as experiments

    kernel = experiments._batch_probabilities
    calls = []

    def counting(matrix, seed_indices, *args):
        calls.append((matrix.tobytes(), len(seed_indices)))
        return kernel(matrix, seed_indices, *args)

    monkeypatch.setattr(experiments, "_batch_probabilities", counting)
    run_experiment(tiny_config("gap_fraction", threads=2))
    space = enumerate_configurations(7, 3)
    per_unitary = {}
    for matrix, seeds in calls:
        per_unitary.setdefault(matrix, []).append(seeds)
    assert len(per_unitary) == 2
    for seeds in per_unitary.values():
        blocks = math.ceil(space.size / scan_width(space, ParticleStatistics.BOSON))
        assert len(seeds) == blocks and sum(seeds) == space.size


class _Route(Exception):
    pass


def _scan_route(space, bin_list, seed_indices, statistics):
    """The route `_mpb_scan` takes, stopped before it computes anything."""
    import bosonbin.experiments as experiments

    def stop(route):
        def call(*args, **kwargs):
            raise _Route(route)

        return call

    with pytest.MonkeyPatch.context() as patch, pytest.raises(_Route) as route:
        patch.setattr(experiments, "_scan_blocks", stop("kernel"))
        patch.setattr(experiments, "class_bin_masses", stop("classes"))
        _mpb_scan(np.eye(space.modes, dtype=np.complex128), space, bin_list, seed_indices, statistics)
    return str(route.value)


# The route of every default scan cell, at the seeds its experiment scans:
# the faster one in CPU time on a 2-core Xeon (`binning.kernel_is_cheaper`)
DEFAULT_ROUTES = {
    ("mpb_seed_scan", 15, 3): "kernel",  # its first 50 seeds
    ("bin_fraction", 18, 2): "kernel",
    ("bin_fraction", 18, 3): "classes",
    ("bin_fraction", 18, 4): "classes",
    ("pmax_histogram", 18, 4): "classes",
    ("gap_fraction", 18, 4): "classes",
    ("collision", 16, 2): "kernel",  # every statistics, collision-free seeds
    ("collision", 18, 2): "kernel",
    ("collision", 22, 3): "classes",
    ("collision", 25, 3): "classes",
}


def test_default_scan_cells_take_the_measured_route():
    routes = {}
    for experiment, defaults in EXPERIMENT_DEFAULTS.items():
        if experiment in ("maxprob_scaling", "ryser_benchmark"):  # no label scan
            continue
        cells = defaults.get("cells") or [
            (defaults["modes"], n) for n in defaults.get("photon_list", [defaults.get("photons")])
        ]
        for modes, photons in cells:
            space = enumerate_configurations(modes, photons)
            seeds, stats = np.arange(space.size), [ParticleStatistics.BOSON]
            if experiment == "mpb_seed_scan":
                seeds = seeds[: defaults["seed_limit"]]
            if experiment == "collision":
                seeds, stats = space.collision_free_indices, list(ParticleStatistics)
            found = {_scan_route(space, defaults["bin_list"], seeds, s) for s in stats}
            assert len(found) == 1, (experiment, modes, photons, found)
            routes[(experiment, modes, photons)] = found.pop()
    assert routes == DEFAULT_ROUTES


# (9,7): 2.2 s by the kernel against 2.7 s by classes (CPU time, one
# thread); (10,6) takes the classes, 0.50 s against 0.99 s
@pytest.mark.parametrize("modes,photons", [(9, 7), (8, 8), (7, 3), (8, 3)])
def test_small_or_photon_dense_scans_take_the_kernel(modes, photons):
    space = enumerate_configurations(modes, photons)
    assert _scan_route(space, (2, 3, 4, 5), np.arange(space.size), ParticleStatistics.BOSON) == "kernel"


@pytest.mark.parametrize("statistics", list(ParticleStatistics))
def test_class_scan_checks_normalization_of_every_seed(statistics, monkeypatch):
    # only seeds with a photon in mode 17 lose normalization; the first in
    # code order is named, from inside a scan on the class route
    space = enumerate_configurations(18, 3)
    seeds = space.collision_free_indices if statistics is ParticleStatistics.FERMION else np.arange(space.size)
    monkeypatch.setattr(binning, "SCAN_BYTES", 2**18)  # several class blocks
    assert _scan_route(space, (2, 3), seeds, statistics) == "classes"
    assert ClassPlan(18, 3, (2, 3), statistics).width < len(seeds) // 4
    matrix = np.eye(18, dtype=np.complex128)
    matrix[17, 17] = 1.5
    first = "1, 1" if statistics is ParticleStatistics.FERMION else "2"
    with pytest.raises(RuntimeError, match=rf"failed to normalize.*seed \({first}, 0, .*, 0, 1\)"):
        _mpb_scan(matrix, space, (2, 3), seeds, statistics)


@pytest.mark.parametrize("statistics", list(ParticleStatistics))
def test_mpb_scan_matches_single_seed_reductions(statistics, monkeypatch):
    # (8,5): 56 collision-free seeds in blocks of 16 (a partial last block of
    # 8), and over sets the widest degree is not the last; two scans run in a row
    u = haar_unitary_from_seed(8, 4)
    space = enumerate_configurations(8, 5)
    monkeypatch.setattr(distribution, "SCAN_BYTES", 16 * ScanWorkspace(space, statistics, 1).nbytes)
    assert scan_width(space, statistics) == 16
    fermion = statistics is ParticleStatistics.FERMION
    seeds = space.collision_free_indices if fermion else np.arange(0, space.size, 15)
    bins = (2, 3, 7)
    for picked in (seeds, seeds[3:]):
        scan = _mpb_scan(u.matrix, space, bins, picked, statistics)
        expected = _single_seed_scan(u, space, bins, picked, statistics)
        for d in bins:
            for got, want in zip(scan[d], expected[d]):
                assert np.array_equal(got, want)


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
    # one photon: every particle type has the |U|^2 column distribution, so every label agrees
    single = run_experiment(tiny_config("collision", cells=((5, 1),), pairs=("BD", "BF"), bin_list=(2, 3, 5)))
    assert [(r["pair"], r["bins"], r["p_col_mean"]) for r in rows_of(single, "collision")] == [
        (pair, bins, 1.0) for pair in ("BD", "BF") for bins in (2, 3, 5)
    ]


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


def test_ryser_benchmark_writes_null_fit_below_three_sizes(tmp_path):
    report = run_experiment(tiny_config("ryser_benchmark", n_range=(6, 7), cells=((4, 2),)))
    report.write(tmp_path)
    payload = json.loads((tmp_path / "ryser_benchmark.json").read_text(), parse_constant=pytest.fail)
    assert [payload["summary"][k] for k in ("fit_a", "fit_b", "fit_c")] == [None] * 3


def test_write_json_refuses_nan(tmp_path):
    with pytest.raises(ValueError):
        write_json(tmp_path / "bad.json", {"x": float("nan")})
    assert not (tmp_path / "bad.json").exists()


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


# Grid rows of the quick ryser_benchmark (short single table), recorded while
# the collision-free rows were still read from FockSpace.occupations.
RYSER_QUICK_GRID = [
    {"cf_mass": 0.6728124927854593, "model_seconds_at_reference": 4.8e-08, "modes": 4,
     "photons": 2, "space_size": 10, "table": "grid", "xi": 6},
    {"cf_mass": 0.7787056108921713, "model_seconds_at_reference": 2.24e-07, "modes": 8,
     "photons": 2, "space_size": 36, "table": "grid", "xi": 28},
    {"cf_mass": 0.8672444859705924, "model_seconds_at_reference": 9.6e-07, "modes": 16,
     "photons": 2, "space_size": 136, "table": "grid", "xi": 120},
    {"cf_mass": 0.5269130349194383, "model_seconds_at_reference": 2.016e-06, "modes": 9,
     "photons": 3, "space_size": 165, "table": "grid", "xi": 84},
    {"cf_mass": 0.711786846521974, "model_seconds_at_reference": 1.9584e-05, "modes": 18,
     "photons": 3, "space_size": 1140, "table": "grid", "xi": 816},
    {"cf_mass": 0.45309060234151444, "model_seconds_at_reference": 0.00011648, "modes": 16,
     "photons": 4, "space_size": 3876, "table": "grid", "xi": 1820},
]


def test_ryser_benchmark_grid_matches_recorded_fingerprint():
    config = ExperimentConfig(
        experiment="ryser_benchmark", master_seed=1, quick=True, n_range=(6, 9), repeats=1
    )
    fp = report_fingerprint(run_experiment(config))
    assert fp["summary"] == {"repeats": 1, "reference_flops": 1e9}
    grid = [c for c in fp["cells"] if c["table"] == "grid"]
    assert_matches_golden(json.loads(json.dumps(grid)), RYSER_QUICK_GRID, "ryser_benchmark")


@pytest.mark.parametrize("experiment", SCAN_EXPERIMENTS)
def test_scan_experiments_refuse_zero_unitaries(experiment):
    with pytest.raises(ValueError, match="unitary_count"):
        run_experiment(tiny_config(experiment, unitary_count=0))


def test_collision_refuses_cells_without_collision_free_seeds():
    with pytest.raises(ValueError, match="no collision-free seeds"):
        run_experiment(tiny_config("collision", cells=((6, 2), (2, 3))))
