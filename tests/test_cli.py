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
from bosonbin.fock import DEFAULT_ENUMERATION_LIMIT, enumerate_configurations
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

    def counting(modes, photons, limit=DEFAULT_ENUMERATION_LIMIT):
        calls.append((modes, photons, limit))
        return enumerate_configurations(modes, photons, limit=limit)

    monkeypatch.setattr(bosonbin.problems, "enumerate_configurations", counting)
    path = write_instance(
        tmp_path,
        modes=8,
        seeds=((1, 1, 1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1, 1, 1)),
        y=(0, 1),
        f_id="indexed_outcome",
    )
    code, out, _ = run_cli(capsys, "problem", path, "--solve", "--limit", "5000")
    assert code == 0
    # indexed_outcome dereferences bins, so the function needs the space too
    assert calls == [(8, 3, 5000)]
    answer = stdout_json(out)["answer"]
    assert answer in enumerate_configurations(8, 3).codes


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
