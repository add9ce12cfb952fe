"""The benchmark's workloads: inputs from one workload seed, the CLI calls
that make up one round, checks of their outputs and oracle spot checks.

Every input is derived from ``(workload name, seed)`` alone, so the same seed
gives the same files and arguments. The program only ever sees the files
written here and its command-line arguments.
"""
from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

# Fields that vary from run to run; reference comparisons strip them, and
# the report's resolved "config", as the repo's reproducibility criterion does.
TIMING_FIELDS = frozenset(
    {"started_at", "wall_seconds", "seconds", "seconds_per_permanent", "ratio_to_prev",
     "fit_a", "fit_b", "fit_c"}
)
DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
ORACLE_TOLERANCE = 1e-12

SCAN_BINS = (2, 3, 4, 5)
SCAN_EPSILONS = tuple(round(0.01 * k, 2) for k in range(1, 11))
COLLISION_CELLS = ((16, 2), (18, 2), (22, 3), (25, 3))
COLLISION_BINS = (2, 4, 8, 16)
PROBLEM_BINS = 4
PROBLEM_SEEDS = 3
# the README's sampled-mode budget
BUDGET = {"epsilon": 0.1, "delta": 0.05, "eta": 0.05, "gamma": 0.01}


@dataclass
class Op:
    """One CLI call of a round.

    ``report`` names the experiment whose JSON report the call writes into
    the directory passed with ``--out``; without it the answer is the JSON
    the call prints on stdout.
    """

    kind: str
    argv: list[str]
    dists: int
    check: Callable[[dict[str, Any]], list[str]]
    report: str | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    oracle: list[Callable[[], str | None]]
    # program modules whose calls the traced run can see for this workload
    modules: tuple[str, ...]
    reference: dict[str, Any] | None = field(default=None)


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(name.encode()), seed])


def _write_json(path: Path, payload: dict[str, Any]) -> str:
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


def fingerprint(value: Any) -> Any:
    """Output with timing fields and the top-level config removed."""

    def strip(v: Any) -> Any:
        if isinstance(v, dict):
            return {k: strip(x) for k, x in v.items() if k not in TIMING_FIELDS}
        if isinstance(v, list):
            return [strip(x) for x in v]
        return v

    out = strip(value)
    if isinstance(out, dict):
        out.pop("config", None)
    return out


def difference(ref: Any, out: Any, where: str = "") -> str | None:
    """First place where ``out`` departs from ``ref``, or None.

    Labels, answers, counts and strings must match exactly; floats within
    rel 1e-9 (abs 1e-12 near zero). Keys that ``out`` adds are ignored, so a
    program that reports more still matches.
    """
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            return f"{where or '/'}: expected an object"
        for key, value in ref.items():
            if key not in out:
                return f"{where}/{key}: missing"
            found = difference(value, out[key], f"{where}/{key}")
            if found:
                return found
        return None
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return f"{where}: expected a list of {len(ref)}"
        for i, (a, b) in enumerate(zip(ref, out)):
            found = difference(a, b, f"{where}[{i}]")
            if found:
                return found
        return None
    numeric = (int, float)
    if (
        isinstance(ref, float) and isinstance(out, numeric) and not isinstance(out, bool)
        or isinstance(out, float) and isinstance(ref, numeric) and not isinstance(ref, bool)
    ):
        if abs(ref - out) <= max(1e-9 * max(abs(ref), abs(out)), 1e-12):
            return None
        return f"{where}: {out!r} != {ref!r}"
    if type(ref) is not type(out) or ref != out:
        return f"{where}: {out!r} != {ref!r}"
    return None


def reference_path(name: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{name}-seed{seed}.json"


def _spot_check(unitary, seed, statistics: str, space, outcomes) -> str | None:
    """full_distribution against the per-outcome Ryser / determinant route."""
    from bosonbin.distribution import full_distribution, transition_probability

    dist = full_distribution(unitary, seed, statistics=statistics, space=space)
    picks = [int(np.argmax(dist.probabilities)), *outcomes]
    for index in picks:
        outcome = space.configuration(index)
        expected = transition_probability(unitary, seed, outcome, statistics=statistics)
        got = float(dist.probabilities[index])
        if abs(got - expected) > ORACLE_TOLERANCE:
            return (f"{statistics} seed {seed} outcome {outcome}: full_distribution {got!r} "
                    f"vs transition_probability {expected!r}")
    return None


def _experiment_check(cells: int, extra: Callable[[dict], list[str]]) -> Callable[[dict], list[str]]:
    def check(report: dict[str, Any]) -> list[str]:
        got = len(report.get("cells", []))
        problems = [] if got == cells else [f"{got} report cells, expected {cells}"]
        return problems + extra(report)

    return check


def scan_boson(seed: int, workdir: Path, smoke: bool) -> Workload:
    """``experiment gap_fraction`` at its defaults over two unitaries, two threads."""
    from bosonbin.fock import enumerate_configurations
    from bosonbin.linalg import haar_unitary
    from bosonbin.rng import split

    name = "scan_boson_18x4"
    modes, photons = (8, 3) if smoke else (18, 4)
    unitaries = 2
    rng = _rng(name, seed)
    master = int(rng.integers(2**31))
    config: dict[str, Any] = {"experiment": "gap_fraction", "master_seed": master}
    if smoke:
        config.update(modes=modes, photons=photons)
    path = _write_json(workdir / "gap_fraction_config.json", config)
    space = enumerate_configurations(modes, photons)

    def fractions(report: dict[str, Any]) -> list[str]:
        problems = []
        if report.get("summary", {}).get("space_size") != space.size:
            problems.append("summary.space_size does not match the space")
        for d in SCAN_BINS:
            row = [c["fraction_mean"] for c in report["cells"]
                   if c.get("table") == "fractions" and c["bins"] == d]
            if len(row) != len(SCAN_EPSILONS) or any(not 0 <= f <= 1 for f in row):
                problems.append(f"bins={d}: fractions missing or outside [0, 1]")
            elif any(b < a for a, b in zip(row, row[1:])):
                problems.append(f"bins={d}: fraction decreases as epsilon grows")
        return problems

    op = Op(
        kind="gap_fraction",
        argv=["experiment", "gap_fraction", "--config", path,
              "--unitary-count", str(unitaries), "--threads", "2"],
        dists=unitaries * space.size,
        check=_experiment_check(len(SCAN_BINS) * (len(SCAN_EPSILONS) + 1), fractions),
        report="gap_fraction",
    )
    generators = split(master, unitaries)
    oracle = []
    for u_idx in range(unitaries):
        u = haar_unitary(modes, generators[u_idx])
        for s_idx in rng.choice(space.size, size=2, replace=False):
            outcomes = [int(i) for i in rng.choice(space.size, size=8, replace=False)]
            oracle.append(lambda u=u, s=space.configuration(int(s_idx)), o=outcomes:
                          _spot_check(u, s, "boson", space, o))
    return Workload(name, [op], oracle, ("bosonbin.cli", "bosonbin.experiments"))


def collision_cf(seed: int, workdir: Path, smoke: bool) -> Workload:
    """``experiment collision`` at its default cells, one unitary, one thread."""
    from bosonbin.fock import collision_free_count, enumerate_configurations
    from bosonbin.linalg import haar_unitary
    from bosonbin.rng import split

    name = "collision_cf"
    cells = ((6, 2), (7, 3)) if smoke else COLLISION_CELLS
    rng = _rng(name, seed)
    master = int(rng.integers(2**31))
    config: dict[str, Any] = {"experiment": "collision", "master_seed": master}
    if smoke:
        config["cells"] = [list(c) for c in cells]
    path = _write_json(workdir / "collision_config.json", config)
    pairs = 2

    def agreement(report: dict[str, Any]) -> list[str]:
        problems = []
        for c in report["cells"]:
            if not 0 <= c["p_col_mean"] <= 1:
                problems.append(f"cell {c['modes']},{c['photons']}: p_col_mean outside [0, 1]")
            if c["seed_count"] != collision_free_count(c["modes"], c["photons"]):
                problems.append(f"cell {c['modes']},{c['photons']}: wrong seed_count")
        return problems

    op = Op(
        kind="collision",
        argv=["experiment", "collision", "--config", path, "--unitary-count", "1", "--threads", "1"],
        dists=3 * sum(collision_free_count(m, n) for m, n in cells),
        check=_experiment_check(len(cells) * pairs * len(COLLISION_BINS), agreement),
        report="collision",
    )
    generators = split(master, len(cells))
    oracle = []
    for c_idx, (modes, photons) in enumerate(cells):
        space = enumerate_configurations(modes, photons)
        u = haar_unitary(modes, generators[c_idx])
        cf = space.collision_free_indices
        for statistics in ("boson", "fermion", "distinguishable"):
            s = space.configuration(int(cf[rng.integers(len(cf))]))
            outcomes = [int(i) for i in rng.choice(space.size, size=8, replace=False)]
            oracle.append(lambda u=u, s=s, st=statistics, sp=space, o=outcomes:
                          _spot_check(u, s, st, sp, o))
    return Workload(name, [op], oracle, ("bosonbin.cli", "bosonbin.experiments"))


def _sample_size(bins: int) -> int:
    """Chernoff plan, coded here independently of bosonbin.sampling."""
    b = BUDGET
    return math.ceil(3 * bins / (b["epsilon"] - b["delta"]) ** 2
                     * math.log(2 * (1 - b["gamma"]) / (b["eta"] - b["gamma"])))


def problem_wide(seed: int, workdir: Path, smoke: bool) -> Workload:
    """Two instance files on (60 modes, 4 photons): a sampled ``sum_greater``
    decision and an exact ``indexed_outcome`` function."""
    from bosonbin.fock import enumerate_configurations
    from bosonbin.linalg import haar_unitary_from_seed
    from bosonbin.problems import draw_problem_seeds

    name = "problem_wide_60x4"
    modes, photons = (12, 4) if smoke else (60, 4)
    rng = _rng(name, seed)
    space = enumerate_configurations(modes, photons)
    base, extra = divmod(space.size, PROBLEM_BINS)
    offsets = [0]
    for j in range(PROBLEM_BINS):
        offsets.append(offsets[-1] + base + (j < extra))

    def instance(kind: str, f_id: str, y: list[int]) -> tuple[dict[str, Any], list]:
        seeds = draw_problem_seeds(space, PROBLEM_SEEDS, rng)
        payload = {
            "schema_version": 1, "kind_of_file": "problem_instance", "modes": modes,
            "photons": photons, "num_bins": PROBLEM_BINS, "kind": kind, "f_id": f_id, "y": y,
            "seeds": [",".join(str(v) for v in s) for s in seeds],
            "haar_seed": int(rng.integers(2**31)),
        }
        return payload, list(seeds)

    threshold = int(rng.integers(0, PROBLEM_SEEDS * (PROBLEM_BINS - 1) + 1))
    decision, decision_seeds = instance("decision", "sum_greater", [threshold])
    i, j = int(rng.integers(base)), int(rng.integers(PROBLEM_SEEDS))
    function, function_seeds = instance("function", "indexed_outcome", [i, j])
    rng_seed = int(rng.integers(2**31))
    n_min = _sample_size(PROBLEM_BINS)

    def labels_ok(out: dict[str, Any]) -> list[str]:
        labels = out.get("labels", [])
        if len(labels) != PROBLEM_SEEDS or any(not 0 <= x < PROBLEM_BINS for x in labels):
            return [f"labels {labels!r} malformed"]
        if [d["label"] for d in out.get("diagnostics", [])] != labels:
            return ["diagnostics disagree with labels"]
        if any(d["p0"] < d["p1"] for d in out["diagnostics"]):
            return ["a diagnostic has p0 < p1"]
        return []

    def check_decision(out: dict[str, Any]) -> list[str]:
        problems = labels_ok(out)
        if problems:
            return problems
        expected = "YES" if sum(out["labels"]) > threshold else "NO"
        if out.get("answer") != expected:
            problems.append(f"answer {out.get('answer')!r}, labels imply {expected!r}")
        if out.get("n_min") != n_min:
            problems.append(f"n_min {out.get('n_min')!r}, expected {n_min}")
        return problems

    def check_function(out: dict[str, Any]) -> list[str]:
        problems = labels_ok(out)
        if problems:
            return problems
        expected = space.codes[offsets[out["labels"][j]] + i]
        if out.get("answer") != expected:
            problems.append(f"answer {out.get('answer')!r}, labels imply {expected}")
        return problems

    ops = [
        Op(
            kind="decide_sampled",
            argv=["problem", _write_json(workdir / "decision.json", decision), "--decide",
                  "--mode", "sampled", "--rng-seed", str(rng_seed),
                  *[a for k, v in BUDGET.items() for a in (f"--{k}", str(v))]],
            dists=PROBLEM_SEEDS,
            check=check_decision,
        ),
        Op(
            kind="solve_exact",
            argv=["problem", _write_json(workdir / "function.json", function), "--solve"],
            dists=PROBLEM_SEEDS,
            check=check_function,
        ),
    ]
    oracle = []
    for payload, seeds in ((decision, decision_seeds), (function, function_seeds)):
        u = haar_unitary_from_seed(modes, payload["haar_seed"])
        outcomes = [int(x) for x in rng.choice(space.size, size=8, replace=False)]
        oracle.append(lambda u=u, s=seeds[0], o=outcomes: _spot_check(u, s, "boson", space, o))
    return Workload(name, ops, oracle, ("bosonbin.cli", "bosonbin.problems", "bosonbin.sampling"))


WORKLOADS: dict[str, Callable[[int, Path, bool], Workload]] = {
    "scan_boson_18x4": scan_boson,
    "collision_cf": collision_cf,
    "problem_wide_60x4": problem_wide,
}


def build(name: str, seed: int, workdir: Path, smoke: bool = False) -> Workload:
    workload = WORKLOADS[name](seed, workdir, smoke)
    path = reference_path(name, seed)
    if not smoke and path.exists():
        workload.reference = json.loads(path.read_text())
    return workload
