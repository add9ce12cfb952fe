import csv
import importlib.metadata
import json
import os
import re
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
    "maxprob_scaling": {"unitary_count": 1, "seed_sample": 2},
    "collision": {"unitary_count": 1, "bin_list": [2]},
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
        # a cell that is not a (modes, photons) pair, and a range that is not a pair
        ("maxprob_scaling", "cells", {"cells": [[4, 2], [6, 2, 1]]}),
        ("collision", "cells", {"cells": [[6, 2], [7]]}),
        ("ryser_benchmark", "cells", {"cells": [[4, 2, 2]]}),
        ("ryser_benchmark", "n_range", {"n_range": [6, 7, 8]}),
        ("ryser_benchmark", "n_range", {"n_range": [6]}),
        # a cell without collision-free outcomes, whose size would be log(0) in the fit
        ("maxprob_scaling", "cells", {"cells": [[2, 3], [4, 2], [6, 2]], "size_measure": "collision_free"}),
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


# np.polyfit's RankWarning is not a RuntimeWarning, so pytest's own filter would let it pass
@pytest.mark.filterwarnings("error")
def test_maxprob_scaling_fits_no_line_through_one_size(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"cells": [[4, 2]]}))
    out_dir = tmp_path / "reports"
    code, _, _ = run_cli(
        capsys,
        "experiment", "maxprob_scaling", "--config", str(path), "--master-seed", "1", "--quick",
        "--out", str(out_dir),
    )
    assert code == 0
    summary = json.loads((out_dir / "maxprob_scaling.json").read_text())["summary"]
    assert summary["exponent"] is None and summary["prefactor"] is None


@pytest.mark.parametrize(
    "key,value",
    [
        ("modes", 15.0),
        ("photons", "3"),
        ("num_bins", 2.5),
        ("haar_seed", True),
        ("y", [2.7]),
        ("y", [True]),
    ],
)
def test_problem_refuses_a_non_integer_field(tmp_path, capsys, key, value):
    # int() would round each of these to another instance and answer that one
    path = Path(write_instance(tmp_path))
    data = json.loads(path.read_text())
    data[key] = value
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "problem", str(path), "--solve")
    assert code == 2
    assert err.startswith(f"error: {key} must")
    assert out == ""


@pytest.mark.parametrize(
    "key,value",
    [
        ("seeds", [[1, 1, 1] + [0] * 12]),
        ("seeds", ["1,1,1" + ",0" * 12, 7]),
        ("seeds", "1,1,1" + ",0" * 12),
        ("seeds", None),
        ("unitary.modes", [15]),
        ("unitary.modes", None),
        ("unitary.modes", 15.0),
        ("unitary.haar_seed", 2.5),
        ("unitary.haar_seed", True),
        ("unitary.haar_seed", [77]),
        ("unitary.haar_seed", -1),
    ],
)
def test_problem_refuses_a_malformed_field_by_name(tmp_path, capsys, key, value):
    # each of these used to exit 4 with an internal error, or to answer
    # another instance (a Haar seed of 2.5 or true read as 2 or 1)
    path = Path(write_instance(tmp_path, haar_seed=None, unitary=haar_unitary_from_seed(15, 77)))
    data = json.loads(path.read_text())
    if key.startswith("unitary."):
        data["unitary"][key.split(".")[1]] = value
    else:
        data[key] = value
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "problem", str(path), "--solve")
    assert code == 2
    assert err.startswith(f"error: {key} must")
    assert out == ""


def test_problem_takes_a_null_nested_haar_seed(tmp_path, capsys):
    unitary = haar_unitary_from_seed(15, 77)
    path = Path(write_instance(tmp_path, haar_seed=None, unitary=unitary))
    data = json.loads(path.read_text())
    data["unitary"]["haar_seed"] = None
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "problem", str(path), "--solve")
    assert code == 0
    assert json.loads(out)["answer"] == json.loads(
        run_cli(capsys, "problem", write_instance(tmp_path), "--solve")[1]
    )["answer"]


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_problem_refuses_a_bad_thread_count(tmp_path, capsys, threads):
    code, out, err = run_cli(capsys, "problem", write_instance(tmp_path), "--solve", "--threads", threads)
    assert code == 2
    assert err.startswith("error: threads must")
    assert out == ""


@pytest.mark.parametrize("command", ["distribution", "mpb", "problem"])
@pytest.mark.parametrize("limit", ["0", "-5"])
def test_a_limit_below_one_is_refused_as_input(tmp_path, capsys, command, limit):
    # a limit is input, checked by name (exit 2), not a capacity refusal (exit 3)
    unitary_args = ["--seed-config", "1,1,0,0", "--haar-seed", "1"]
    argv = {
        "distribution": ["distribution", *unitary_args, "--out", str(tmp_path / "dist.csv")],
        "mpb": ["mpb", *unitary_args, "--bins", "2"],
        "problem": ["problem", write_instance(tmp_path), "--solve"],
    }[command]
    code, out, err = run_cli(capsys, *argv, "--limit", limit)
    assert code == 2
    assert err.startswith("error: --limit must be an integer >= 1")
    assert out == ""


@pytest.mark.parametrize(
    "command,option,value",
    [
        ("mpb", "--haar-seed", "-1"),
        ("distribution", "--haar-seed", "-1"),
        ("mpb", "--rng-seed", "-3"),
        ("problem", "--rng-seed", "-3"),
        ("mpb", "--bins", "0"),
        ("mpb", "--bins", "1"),
    ],
)
def test_an_option_refusal_names_the_option(tmp_path, capsys, command, option, value):
    # these named the library's parameter (seed, num_bins) before; the
    # option given last overrides the valid one given first
    unitary_args = ["--seed-config", "1,1,0,0", "--haar-seed", "1"]
    argv = {
        "distribution": ["distribution", *unitary_args, "--out", str(tmp_path / "dist.csv")],
        "mpb": ["mpb", *unitary_args, "--mode", "sampled", "--rng-seed", "1", "--bins", "2"],
        "problem": ["problem", write_instance(tmp_path), "--solve", "--mode", "sampled"],
    }[command]
    code, out, err = run_cli(capsys, *argv, option, value)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {option} must be an integer >= "), err


@pytest.mark.parametrize("index", [0, 3])
@pytest.mark.parametrize(
    "seed,refusal",
    [("1,1", "has 2 modes, expected 15"), ("1,1" + ",0" * 13, "sums to 2, expected 3")],
)
def test_problem_file_names_a_seed_of_the_wrong_shape(tmp_path, capsys, index, seed, refusal):
    path = Path(write_instance(tmp_path))
    data = json.loads(path.read_text())
    data["seeds"][index] = seed
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "problem", str(path), "--solve")
    assert (code, out) == (2, "")
    assert err == f"error: seeds[{index}] {refusal}\n"


MUTATIONS = (2.5, True, "x", [1], None, -1, {})
# Every field of a problem file, down to a unitary entry's real part:
# field -> (the key its refusals name, the mutations it takes). Each other
# mutation is refused.
COMMON_FIELDS = {
    "schema_version": ("schema_version", ()),
    "kind_of_file": ("kind_of_file", ()),
    "modes": ("modes", ()),
    "photons": ("photons", ()),
    "num_bins": ("num_bins", ()),
    "kind": ("kind", ()),
    "f_id": ("f_id", ()),
    "y": ("y", ([1],)),  # max takes any y
    "y[0]": ("y", (-1,)),
    "seeds": ("seeds", ()),
    "seeds[0]": ("seeds", ()),
}
HAAR_FILE_FIELDS = {**COMMON_FIELDS, "haar_seed": ("haar_seed", ())}
UNITARY_FILE_FIELDS = {
    **COMMON_FIELDS,
    "haar_seed": ("haar_seed", (None,)),  # null beside a unitary
    "unitary": ("unitary", ()),
    "unitary.schema_version": ("unitary.schema_version", ()),
    "unitary.kind": ("unitary.kind", ()),
    "unitary.modes": ("unitary.modes", ()),
    "unitary.haar_seed": ("unitary.haar_seed", (None,)),
    "unitary.tag": ("unitary.tag", ("x", None)),
    "unitary.entries": ("unitary.entries", ()),
    "unitary.entries[0]": ("unitary.entries", ()),
    "unitary.entries[0][0]": ("unitary.entries", ()),
    # 2.5 and -1 are numbers, but the matrix they leave is not unitary
    "unitary.entries[0][0][0]": ("unitary.entries", ()),
}
MUTATION_CASES = [
    pytest.param(source, field, value, id=f"{source}-{field}={json.dumps(value)}")
    for source, fields in (("haar", HAAR_FILE_FIELDS), ("unitary", UNITARY_FILE_FIELDS))
    for field in fields
    for value in MUTATIONS
]


def set_field(data, field, value):
    *path, last = [int(p) if p.isdigit() else p for p in re.findall(r"\w+", field)]
    for key in path:
        data = data[key]
    data[last] = value


def problem_file(tmp_path, source):
    if source == "haar":
        return Path(write_instance(tmp_path))
    return Path(write_instance(tmp_path, haar_seed=None, unitary=haar_unitary_from_seed(15, 77)))


@pytest.mark.parametrize("source,field,value", MUTATION_CASES)
def test_problem_file_mutation_table(tmp_path, capsys, source, field, value):
    key, taken = (HAAR_FILE_FIELDS if source == "haar" else UNITARY_FILE_FIELDS)[field]
    path = problem_file(tmp_path, source)
    data = json.loads(path.read_text())
    set_field(data, field, value)
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "problem", str(mutated), "--solve")
    if any(value == v and type(value) is type(v) for v in taken):
        assert code == 0, err
        expected = json.loads(run_cli(capsys, "problem", str(path), "--solve")[1])
        got = json.loads(out)
        assert (got["labels"], got["answer"]) == (expected["labels"], expected["answer"])
        assert got["unitary_tag"] == (value if field == "unitary.tag" and value else "haar-77")
        return
    if (field, value) == ("unitary", {}):
        key = "unitary.kind"  # an empty unitary lacks its kind
    assert code == 2, err
    assert err.startswith(f"error: {key} must"), err
    assert len(err) < 300, err  # a long value, such as a whole unitary's entries, is abbreviated
    assert out == ""


@pytest.mark.parametrize(
    "source,field,key",
    [
        ("haar", "modes", "modes must be given"),
        ("haar", "photons", "photons must be given"),
        ("haar", "num_bins", "num_bins must be given"),
        ("haar", "kind", "kind must be given"),
        ("haar", "f_id", "f_id must be given"),
        ("haar", "seeds", "seeds must be given"),
        ("haar", "kind_of_file", "kind_of_file must mark"),
        ("haar", "haar_seed", "haar_seed must be given"),
        ("unitary", "unitary.modes", "unitary.modes must be given"),
        ("unitary", "unitary.entries", "unitary.entries must be given"),
        ("unitary", "unitary.kind", "unitary.kind must be 'unitary'"),
    ],
)
def test_problem_file_refuses_a_missing_field_by_name(tmp_path, capsys, source, field, key):
    data = json.loads(problem_file(tmp_path, source).read_text())
    *path, last = field.split(".")
    del (data[path[0]] if path else data)[last]
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "problem", str(mutated), "--solve")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {key}"), err


@pytest.mark.parametrize("text", ["1,x,0,0", "1,-1,1,1"])
def test_a_malformed_seed_config_is_refused_by_name(capsys, text):
    code, out, err = run_cli(capsys, "mpb", "--seed-config", text, "--haar-seed", "1", "--bins", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: --seed-config must"), err


@pytest.mark.parametrize("value", [[1], 2.5, "x"])
def test_a_file_that_is_not_an_object_is_refused_by_name(tmp_path, capsys, value):
    path = tmp_path / "file.json"
    path.write_text(json.dumps(value))
    code, out, err = run_cli(capsys, "problem", str(path), "--solve")
    assert (code, out) == (2, "")
    assert err.startswith("error: problem file must be a JSON object")
    code, out, err = run_cli(capsys, "mpb", "--seed-config", "1,1,0,0", "--unitary-file", str(path), "--bins", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: unitary must be a JSON object")


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


# A command-line run (`python -m bosonbin.cli`, the installed script) flushes
# its output and ends with os._exit instead of interpreter teardown.


def module_env():
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)  # output to a file or pipe stays in the buffer until the end
    checkout = str(Path(bosonbin.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [checkout, env.get("PYTHONPATH")]))
    return env


def run_module(*argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "bosonbin.cli", *argv], env=module_env(), timeout=120, **kwargs
    )


def test_importing_the_cli_loads_no_executor():
    # concurrent.futures would bring logging, queue and more into every call
    code = "import sys, bosonbin.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    result = subprocess.run(
        [sys.executable, "-c", code], env=module_env(), capture_output=True, text=True, timeout=120
    )
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


def test_a_command_line_run_writes_its_whole_output_to_a_file(tmp_path, capsys):
    instance = write_instance(tmp_path)
    expected = run_cli(capsys, "problem", instance, "--solve")[1]
    stdout = tmp_path / "stdout"
    with open(stdout, "wb") as handle:  # a file, so stdout is block-buffered
        result = run_module(
            "problem", instance, "--solve", "--out", str(tmp_path / "report.json"),
            stdout=handle, stderr=subprocess.PIPE,
        )
    assert result.returncode == 0, result.stderr
    assert stdout.read_text() == (tmp_path / "report.json").read_text() == expected
    assert result.stderr == b""


def test_a_command_line_experiment_writes_complete_reports(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SMALL["gap_fraction"], "unitary_count": 3}))
    argv = ["experiment", "gap_fraction", "--config", str(config), "--master-seed", "4", "--quick", "--threads", "2"]
    assert run_cli(capsys, *argv, "--out", str(tmp_path / "in_process"))[0] == 0
    result = run_module(*argv, "--out", str(tmp_path / "module"), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    written = sorted(p.name for p in (tmp_path / "module").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "in_process").iterdir())
    assert [f"wrote {tmp_path / 'module' / name}" for name in written] == sorted(result.stdout.splitlines()[:-1])
    for name in written:
        a, b = ((tmp_path / d / name).read_text() for d in ("in_process", "module"))
        if name.endswith(".json"):  # the reports differ only in their timing
            a, b = ({k: v for k, v in json.loads(t).items() if k not in ("started_at", "wall_seconds")} for t in (a, b))
        assert a == b, name


def test_a_command_line_refusal_keeps_its_exit_code(tmp_path):
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"modes": ')
    refused = run_module("problem", str(malformed), "--solve", capture_output=True, text=True)
    assert (refused.returncode, refused.stdout) == (2, "")
    assert refused.stderr.startswith("error: "), refused.stderr
    too_big = run_module(
        "problem", write_instance(tmp_path), "--solve", "--mode", "sampled", "--rng-seed", "1", "--limit", "100",
        capture_output=True, text=True,
    )
    assert (too_big.returncode, too_big.stdout) == (3, "")
    assert too_big.stderr.startswith("error: "), too_big.stderr


def test_a_command_line_run_that_cannot_flush_does_not_exit_0(tmp_path):
    # the reader is gone before the buffered output is flushed at the end
    proc = subprocess.Popen(
        [sys.executable, "-m", "bosonbin.cli", "problem", write_instance(tmp_path), "--solve"],
        env=module_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.startswith(b"error: [Errno 32] Broken pipe"), err
