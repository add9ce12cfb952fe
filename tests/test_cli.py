import csv
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bosonbin
from bosonbin.cli import build_parser, main
from bosonbin.binning import bin_masses, make_partition, mpb_from_vector
from bosonbin.distribution import full_distribution
from bosonbin.fock import (
    DEFAULT_ENUMERATION_LIMIT,
    FockSpace,
    enumerate_configurations,
    integer_code,
    space_size,
    unrank,
)
from bosonbin.linalg import haar_unitary_from_seed, unitary_to_json
from bosonbin.problems import ProblemInstance, instance_to_json

PINNED_SEED = "1,1,1,0,0,0,0,0,0,0,0"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_json(out):
    return json.loads(out)


def write_instance(tmp_path, **overrides):
    params = dict(
        modes=15,
        photons=3,
        num_bins=4,
        seeds=(
            (1, 1, 1) + (0,) * 12,
            (0, 0, 3) + (0,) * 12,
            (0, 1, 0, 1, 0, 1) + (0,) * 9,
            (0, 0, 0, 0, 2, 0, 0, 1) + (0,) * 7,
            (1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0),
        ),
        y=(2,),
        kind="function",
        f_id="max",
        haar_seed=77,
    )
    params.update(overrides)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_json(ProblemInstance(**params))))
    return str(path)


def test_distribution_writes_normalized_csv(tmp_path, capsys):
    out = tmp_path / "dist.csv"
    code, stdout, _ = run_cli(
        capsys,
        "distribution", "--seed-config", "1,1,0,0,0,0", "--haar-seed", "9",
        "--out", str(out),
    )
    assert code == 0
    assert "wrote" in stdout
    lines = out.read_text().splitlines()
    space = enumerate_configurations(6, 2)
    header = lines.index("index,integer_code,occupancy,probability")
    rows = lines[header + 1 :]
    assert len(rows) == space.size
    assert sum(float(r.split(",")[-1]) for r in rows) == pytest.approx(1.0, abs=1e-12)


def test_distribution_identity_point_mass(tmp_path, capsys):
    out = tmp_path / "dist.csv"
    code, _, _ = run_cli(
        capsys,
        "distribution", "--seed-config", "0,2,1,0", "--identity", "--out", str(out),
    )
    assert code == 0
    data_lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    probs = {}
    for row in csv.DictReader(data_lines):
        probs[row["occupancy"]] = float(row["probability"])
    assert probs["0,2,1,0"] == 1.0


def test_mpb_exact_pinned(tmp_path, capsys):
    out = tmp_path / "mpb.json"
    code, stdout, _ = run_cli(
        capsys,
        "mpb", "--seed-config", PINNED_SEED, "--haar-seed", "11", "--bins", "4",
        "--out", str(out),
    )
    assert code == 0
    payload = stdout_json(stdout)
    assert payload["label"] == 2
    assert payload["p0"] == pytest.approx(0.3355184422708135, rel=1e-12)
    assert payload["gap"] == pytest.approx(0.0897771790017543, rel=1e-12)
    assert payload["mode"] == "exact"
    assert payload["unitary_tag"] == "haar-11"
    assert json.loads(out.read_text()) == payload


def test_mpb_sampled_pinned(capsys):
    argv = (
        "mpb", "--seed-config", PINNED_SEED, "--haar-seed", "11", "--bins", "4",
        "--mode", "sampled", "--rng-seed", "3",
        "--epsilon", "0.1", "--delta", "0.05", "--eta", "0.05", "--gamma", "0.01",
    )
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    payload = stdout_json(stdout)
    assert payload["n_min"] == 18730
    assert payload["label"] == 2
    assert payload["p0"] == pytest.approx(0.33534436732514683, rel=1e-12)
    # same seed, same draw
    code2, stdout2, _ = run_cli(capsys, *argv)
    assert code2 == 0
    assert stdout2 == stdout


def test_mpb_sampled_requires_rng_seed(capsys):
    code, _, err = run_cli(
        capsys,
        "mpb", "--seed-config", "1,1,0,0", "--haar-seed", "1", "--bins", "2",
        "--mode", "sampled",
    )
    assert code == 2
    assert "rng-seed" in err


def test_mpb_rejects_conflicting_unitary_sources(capsys):
    with pytest.raises(SystemExit):
        main([
            "mpb", "--seed-config", "1,1,0,0", "--haar-seed", "1", "--identity",
            "--bins", "2",
        ])
    capsys.readouterr()


def test_problem_solve_pinned(tmp_path, capsys):
    path = write_instance(tmp_path)
    code, stdout, _ = run_cli(capsys, "problem", path, "--solve")
    assert code == 0
    payload = stdout_json(stdout)
    assert payload["labels"] == [0, 1, 1, 2, 1]
    assert payload["answer"] == 2
    assert payload["kind"] == "function"
    assert len(payload["diagnostics"]) == 5


def test_problem_decide_pinned(tmp_path, capsys):
    path = write_instance(tmp_path, kind="decision", f_id="max_equals")
    code, stdout, _ = run_cli(capsys, "problem", path, "--decide")
    assert code == 0
    payload = stdout_json(stdout)
    assert payload["answer"] == "YES"
    no_path = tmp_path / "no.json"
    inst = json.loads((tmp_path / "instance.json").read_text())
    inst["y"] = [3]
    no_path.write_text(json.dumps(inst))
    code, stdout, _ = run_cli(capsys, "problem", str(no_path), "--decide")
    assert code == 0
    assert stdout_json(stdout)["answer"] == "NO"


def test_problem_enumerates_its_space_once_at_the_given_limit(tmp_path, capsys, monkeypatch):
    import bosonbin.problems

    calls = []
    spaces = []

    def counting(modes, photons, limit=DEFAULT_ENUMERATION_LIMIT):
        calls.append((modes, photons, limit))
        return enumerate_configurations(modes, photons, limit=limit)

    built = FockSpace.__init__

    def counting_init(self, *args, **kwargs):
        spaces.append(args)
        built(self, *args, **kwargs)

    monkeypatch.setattr(bosonbin.problems, "enumerate_configurations", counting)
    monkeypatch.setattr(FockSpace, "__init__", counting_init)
    seeds = ((1, 1, 1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1, 1, 1))
    path = write_instance(tmp_path, modes=8, seeds=seeds, y=(0, 1), f_id="indexed_outcome")
    # 120 outcomes: the kernel over the enumerated space is cheaper than the classes
    code, out, _ = run_cli(capsys, "problem", path, "--solve", "--limit", "5000")
    assert code == 0
    assert calls == [(8, 3, 5000)] and len(spaces) == 1
    kernel = stdout_json(out)
    assert kernel["answer"] in enumerate_configurations(8, 3).codes
    calls.clear()
    spaces.clear()
    # below the space size the same solve takes the class route: exact labels
    # and indexed_outcome's dereference both work without the space
    code, out, _ = run_cli(capsys, "problem", path, "--solve", "--limit", "100")
    assert code == 0
    assert calls == [] and spaces == []
    classes = stdout_json(out)
    assert (classes["labels"], classes["answer"]) == (kernel["labels"], kernel["answer"])
    for by_kernel, by_classes in zip(kernel["diagnostics"], classes["diagnostics"]):
        assert by_classes["p0"] == pytest.approx(by_kernel["p0"], rel=1e-12)
    path = write_instance(tmp_path, modes=8, seeds=seeds, y=(3,), kind="decision", f_id="sum_greater")
    code, _, _ = run_cli(
        capsys, "problem", path, "--decide", "--mode", "sampled", "--rng-seed", "3", "--limit", "5000"
    )
    assert code == 0
    assert calls == [(8, 3, 5000)] and len(spaces) == 1


def test_exact_problem_and_mpb_run_above_the_enumeration_limit(tmp_path, capsys):
    seeds = tuple(tuple(modes.count(m) for m in range(100)) for modes in (
        (0, 1, 2, 3, 4, 5), (10, 30, 50, 70, 90, 99), (7, 7, 7, 40, 41, 98)))
    # 100 modes and 6 photons: 1.6e9 outcomes, far above the default limit
    path = write_instance(tmp_path, modes=100, photons=6, seeds=seeds, y=(5, 2), f_id="indexed_outcome")
    code, out, err = run_cli(capsys, "problem", path, "--solve")
    assert code == 0, err
    payload = stdout_json(out)
    assert all(0 <= x < 4 for x in payload["labels"])
    assert all(d["p0"] >= d["p1"] > 0 for d in payload["diagnostics"])
    offset = make_partition(space_size(100, 6), 4).offsets[payload["labels"][2]] + 5
    assert payload["answer"] == integer_code(unrank(100, 6, offset))
    config = ",".join(map(str, seeds[1]))
    code, out, err = run_cli(capsys, "mpb", "--seed-config", config, "--haar-seed", "5", "--bins", "3")
    assert code == 0, err
    mpb = stdout_json(out)
    assert (mpb["modes"], mpb["photons"], mpb["bins"]) == (100, 6, 3)
    assert mpb["p0"] >= mpb["p1"] and 0 <= mpb["label"] < 3


@pytest.mark.parametrize("config,bins", [("6,6,6", 2), ("3,3,3,3", 4), ("1,2,3,4", 3)])
def test_exact_mpb_with_many_photons_on_few_modes(capsys, config, bins):
    # (3, 18) and (4, 12): a few hundred outcomes, but Gram tables of up to
    # 2.4e9 entries, so the kernel over the enumerated space gives the label
    code, out, err = run_cli(capsys, "mpb", "--seed-config", config, "--haar-seed", "1", "--bins", str(bins))
    assert code == 0, err
    seed = tuple(int(v) for v in config.split(","))
    dist = full_distribution(haar_unitary_from_seed(len(seed), 1), seed)
    expected = mpb_from_vector(bin_masses(dist.probabilities, make_partition(dist.space.size, bins)))
    payload = stdout_json(out)
    assert (payload["label"], payload["p0"], payload["p1"]) == (expected.label, expected.p0, expected.p1)


@pytest.mark.parametrize(
    "extra,message",
    [
        # the largest Gram table of 6 photons has C(6, 3)^2 = 400 entries
        (("--limit", "399"), "table of 400 entries, exceeding the limit of 399"),
        (("--bins", "5000", "--limit", "4999"), "5000 bins exceed the limit of 4999"),
    ],
)
def test_exact_mpb_refuses_work_above_the_limit(capsys, extra, message):
    argv = ["mpb", "--seed-config", ",".join(["1"] * 6 + ["0"] * 94), "--haar-seed", "5", "--bins", "4"]
    code, _, err = run_cli(capsys, *argv, *extra)
    assert code == 3
    assert message in err
    code, _, err = run_cli(capsys, *argv, "--limit", "400")
    assert code == 0, err


def test_problem_kind_flag_mismatch(tmp_path, capsys):
    path = write_instance(tmp_path)  # function kind
    code, _, err = run_cli(capsys, "problem", path, "--decide")
    assert code == 2
    assert "decision" in err


def test_problem_sampled_requires_rng_seed(tmp_path, capsys):
    path = write_instance(tmp_path)
    code, _, err = run_cli(capsys, "problem", path, "--mode", "sampled")
    assert code == 2
    assert "rng-seed" in err


def test_problem_sampled_deterministic(tmp_path, capsys):
    path = write_instance(tmp_path)
    argv = ("problem", path, "--solve", "--mode", "sampled", "--rng-seed", "17")
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    code2, stdout2, _ = run_cli(capsys, *argv)
    assert stdout2 == stdout
    payload = stdout_json(stdout)
    assert payload["answer"] == 2  # margins are wide enough for sampling to agree
    assert payload["n_min"] > 0


def test_problem_missing_file(capsys):
    code, _, err = run_cli(capsys, "problem", "/nonexistent/instance.json", "--solve")
    assert code == 2
    assert "error" in err


def test_experiment_quick_writes_report(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "modes": 7, "photon_list": [2, 3], "bin_list": [2, 3], "unitary_count": 2,
    }))
    out_dir = tmp_path / "reports"
    out_dir.mkdir()
    code, stdout, _ = run_cli(
        capsys,
        "experiment", "bin_fraction", "--config", str(config),
        "--master-seed", "1", "--out", str(out_dir),
    )
    assert code == 0
    assert (out_dir / "bin_fraction.json").exists()
    assert (out_dir / "bin_fraction_fractions.csv").exists()
    assert (out_dir / "bin_fraction_bounds.csv").exists()
    payload = json.loads((out_dir / "bin_fraction.json").read_text())
    assert payload["config"]["master_seed"] == 1
    assert payload["summary"]["violations"] == 0
    assert "bin_fraction" in stdout


def test_experiment_requires_master_seed(tmp_path, capsys):
    code, _, err = run_cli(capsys, "experiment", "collision", "--out", str(tmp_path))
    assert code == 2
    assert "master-seed" in err


def test_collision_experiment_refuses_cell_without_collision_free_seeds(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cells": [[2, 3]], "bin_list": [2], "pairs": ["BD"]}))
    code, _, err = run_cli(
        capsys,
        "experiment", "collision", "--config", str(config),
        "--master-seed", "1", "--unitary-count", "2", "--out", str(tmp_path),
    )
    assert code == 2
    assert "no collision-free seeds" in err
    assert not (tmp_path / "collision.json").exists()


@pytest.mark.parametrize(
    "experiment,config,argv",
    [
        ("gap_fraction", {"cells": [[9, 3]]}, []),
        ("ryser_benchmark", {}, ["--unitary-count", "3"]),
        ("pmax_histogram", {"dp": 0}, []),
    ],
)
def test_experiment_refuses_bad_settings_before_any_work(tmp_path, capsys, experiment, config, argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "reports"
    code, _, err = run_cli(
        capsys,
        "experiment", experiment, "--config", str(path), "--master-seed", "1",
        "--out", str(out_dir), *argv,
    )
    assert code == 2
    assert err.startswith("error: ")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "experiment,setting,config",
    [
        ("mpb_seed_scan", "seed_limit", {"seed_limit": 0, "modes": 5, "photons": 2}),
        ("maxprob_scaling", "seed_sample", {"seed_sample": 0, "cells": [[4, 2]], "unitary_count": 1}),
        ("bin_fraction", "photon_list", {"photon_list": [], "modes": 5, "unitary_count": 1}),
        ("gap_fraction", "epsilon_list", {"epsilon_list": [], "modes": 5, "photons": 2, "unitary_count": 1}),
        ("collision", "pairs", {"pairs": [], "cells": [[6, 2]], "unitary_count": 1}),
        *(
            ("gap_fraction", "epsilon_list", {"epsilon_list": [e], "modes": 5, "unitary_count": 1})
            for e in (-1.0, 0, 1.0, float("nan"))  # json.dumps writes the NaN literal
        ),
    ],
)
def test_experiment_names_an_empty_or_zero_setting(tmp_path, capsys, experiment, setting, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "reports"
    code, _, err = run_cli(
        capsys,
        "experiment", experiment, "--config", str(path), "--master-seed", "1", "--out", str(out_dir),
    )
    assert code == 2
    assert err.startswith(f"error: {setting} must")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "config,argv",
    [({"threads": "2"}, []), ({"threads": 1.5}, []), ({"threads": True}, []), ({}, ["--threads", "-3"])],
)
def test_experiment_refuses_a_bad_thread_count(tmp_path, capsys, config, argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"modes": 5, "photons": 2, "unitary_count": 1, **config}))
    out_dir = tmp_path / "reports"
    code, _, err = run_cli(
        capsys,
        "experiment", "gap_fraction", "--config", str(path), "--master-seed", "1",
        "--out", str(out_dir), *argv,
    )
    assert code == 2
    assert err.startswith("error: threads must")
    assert not out_dir.exists()


# small runs, so a config that is wrongly accepted still ends fast
SMALL = {
    "gap_fraction": {"modes": 5, "photons": 2, "unitary_count": 1},
    "pmax_histogram": {"modes": 5, "photons": 2, "unitary_count": 1},
    "ryser_benchmark": {"n_range": [6, 8], "repeats": 1, "cells": [[4, 2]]},
}


@pytest.mark.parametrize(
    "experiment,key,config",
    [
        ("gap_fraction", "unitary_count", {"unitary_count": "2"}),
        ("gap_fraction", "limit", {"limit": "500"}),
        ("gap_fraction", "epsilon_list", {"epsilon_list": ["0.1"]}),
        ("ryser_benchmark", "repeats", {"repeats": "2"}),
        ("ryser_benchmark", "n_range", {"n_range": [6.5, 8]}),
        ("gap_fraction", "quick", {"quick": "no"}),
        ("pmax_histogram", "dp", {"dp": "0.5"}),
    ],
)
def test_experiment_refuses_a_setting_of_the_wrong_type(tmp_path, capsys, experiment, key, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**SMALL[experiment], **config}))
    out_dir = tmp_path / "reports"
    code, _, err = run_cli(
        capsys,
        "experiment", experiment, "--config", str(path), "--master-seed", "1", "--out", str(out_dir),
    )
    assert code == 2
    assert err.startswith(f"error: {key} must")
    assert not out_dir.exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_problem_refuses_a_bad_thread_count(tmp_path, capsys, threads):
    code, out, err = run_cli(capsys, "problem", write_instance(tmp_path), "--solve", "--threads", threads)
    assert code == 2
    assert err.startswith("error: threads must")
    assert out == ""


def test_experiment_rejects_unknown_name(capsys):
    with pytest.raises(SystemExit):
        main(["experiment", "warp_drive", "--master-seed", "1", "--out", "/tmp"])
    capsys.readouterr()


def test_capacity_refusal_exit_code(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "distribution",
        "--seed-config", "1,1,1,1,1,1," + ",".join(["0"] * 14),
        "--haar-seed", "1", "--out", str(tmp_path / "big.csv"), "--limit", "1000",
    )
    assert code == 3
    assert "error" in err


def test_unitary_file_mode_mismatch(tmp_path, capsys):
    u_path = tmp_path / "unitary.json"
    u_path.write_text(json.dumps(unitary_to_json(haar_unitary_from_seed(5, 1))))
    code, _, err = run_cli(
        capsys,
        "mpb", "--seed-config", "1,1,0,0", "--unitary-file", str(u_path), "--bins", "2",
    )
    assert code == 2
    assert "modes" in err


def test_parser_covers_all_experiments(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["experiment", "not_an_experiment", "--out", "x"])
    capsys.readouterr()


def test_console_script_smoke(tmp_path):
    # Runs the entry point declared in pyproject.toml the way the installed
    # script would, so the check holds with or without `pip install`.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = tomllib.loads(pyproject.read_text())["project"]["scripts"]["bosonbin"]
    assert declared == "bosonbin.cli:main"
    module, func = declared.split(":")

    env = dict(os.environ)
    checkout = str(Path(bosonbin.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [checkout, env.get("PYTHONPATH")]))
    argv = ["mpb", "--seed-config", "1,1,0,0,0", "--haar-seed", "2", "--bins", "2"]

    def check(command):
        result = subprocess.run(
            command + argv, capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["bins"] == 2
        assert payload["label"] in (0, 1)

    check([sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())"])

    try:
        dist = importlib.metadata.distribution("bosonbin")
    except importlib.metadata.PackageNotFoundError:
        return
    scripts = {ep.name: ep.value for ep in dist.entry_points if ep.group == "console_scripts"}
    assert scripts.get("bosonbin") == declared
    exe = shutil.which("bosonbin")
    assert exe, "console script should be installed with the package"
    check([exe])
