"""Reproducible numerical experiments over Haar-random interferometers.

run_experiment resolves an ExperimentConfig once against its experiment's
defaults, runs the experiment on that one master seed, and returns an
ExperimentReport whose non-timing content is bit-reproducible for a fixed
config (independent of thread count: child generators and result slots are
assigned by index).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from . import rng as rng_policy
from .binning import ClassPlan, bin_masses, class_bin_masses, kernel_is_cheaper, make_partition, top_two
from .distribution import ParticleStatistics, ScanWorkspace, _batch_probabilities, scan_width
from .fock import DEFAULT_ENUMERATION_LIMIT, FockSpace, collision_free_count, enumerate_configurations
from .io import atomic_write_text, write_json
from .linalg import haar_unitary, permanent_ryser, submatrix
from .rng import _check_int, _thread_map

REFERENCE_FLOPS = 1e9

# fields that vary run to run (timings and fits of them);
# reproducibility comparisons strip these
TIMING_FIELDS = frozenset(
    {"started_at", "wall_seconds", "seconds", "seconds_per_permanent", "ratio_to_prev", "fit_a", "fit_b", "fit_c"}
)

EXPERIMENT_DEFAULTS: dict[str, dict[str, Any]] = {
    "mpb_seed_scan": {
        "modes": 15,
        "photons": 3,
        "bin_list": (2, 3, 4, 5),
        "seed_limit": 50,
        "unitary_count": 1,
        "quick_unitary_count": 1,
    },
    "bin_fraction": {
        "modes": 18,
        "photon_list": (2, 3, 4),
        "bin_list": (2, 3, 4, 5),
        "unitary_count": 100,
        "quick_unitary_count": 20,
    },
    "pmax_histogram": {
        "modes": 18,
        "photons": 4,
        "bin_list": (2, 3, 4, 5),
        "dp": 0.01,
        "unitary_count": 100,
        "quick_unitary_count": 10,
    },
    "gap_fraction": {
        "modes": 18,
        "photons": 4,
        "bin_list": (2, 3, 4, 5),
        "epsilon_list": tuple(round(0.01 * k, 2) for k in range(1, 11)),
        "unitary_count": 100,
        "quick_unitary_count": 20,
    },
    "collision": {
        # Dilute cells (modes well above photons**2) spanning sizes ~1e2..3e3;
        # denser cells push the d=16 boson/distinguishable agreement below 0.6.
        "cells": ((16, 2), (18, 2), (22, 3), (25, 3)),
        "bin_list": (2, 4, 8, 16),
        "pairs": ("BD", "BF"),
        "unitary_count": 100,
        "quick_unitary_count": 10,
    },
    "maxprob_scaling": {
        # Sizes span ~10..6000. (26,2)/(12,3) and (32,3)/(18,4) are pairs of
        # near-equal size with different (modes, photons), for the
        # size-not-shape comparison.
        "cells": (
            (4, 2), (6, 2), (8, 2), (10, 2), (13, 2), (16, 2), (20, 2), (26, 2),
            (9, 3), (12, 3), (15, 3), (18, 3), (32, 3),
            (16, 4), (18, 4),
        ),
        "unitary_count": 3,
        "quick_unitary_count": 2,
        "seed_sample": 60,
        "size_measure": "full",
    },
    "ryser_benchmark": {
        "n_range": (14, 20),
        "quick_n_range": (10, 14),
        "repeats": 8,
        "quick_repeats": 3,
        "cells": ((4, 2), (8, 2), (16, 2), (9, 3), (18, 3), (16, 4)),
    },
}

# fields every experiment takes; its other settings are its non-quick_ defaults
RUN_FIELDS = ("experiment", "master_seed", "quick", "threads", "limit")


@dataclass(init=False)
class ExperimentConfig:
    """Knobs for one experiment run: RUN_FIELDS, plus settings that override
    its EXPERIMENT_DEFAULTS entry. resolved() checks them all."""

    experiment: str
    master_seed: int
    quick: bool
    threads: int
    limit: int
    settings: dict[str, Any]

    def __init__(
        self,
        experiment: str,
        master_seed: int,
        quick: bool = False,
        threads: int = 1,
        limit: int = DEFAULT_ENUMERATION_LIMIT,
        **settings: Any,
    ):
        self.experiment = experiment
        self.master_seed = master_seed
        self.quick = quick
        self.threads = threads
        self.limit = limit
        self.settings = _plain(settings)

    def resolved(self) -> dict[str, Any]:
        """Registered defaults (quick_<key> replacing <key> under quick) overridden
        by the given settings, plus the run fields. Refuses an unknown
        experiment, a setting it does not take, a setting without its
        default's type, and a value out of range."""
        if self.experiment not in EXPERIMENT_DEFAULTS:
            known = ", ".join(sorted(EXPERIMENT_DEFAULTS))
            raise ValueError(f"unknown experiment {self.experiment!r}; known: {known}")
        defaults = EXPERIMENT_DEFAULTS[self.experiment]
        settings = [k for k in defaults if not k.startswith("quick_")]
        refused = sorted(set(self.settings) - set(settings))
        if refused:
            raise ValueError(
                f"{self.experiment} does not take {', '.join(refused)}; "
                f"its settings: {', '.join(settings)}"
            )
        for key, value in self.settings.items():
            if not _fits(value, defaults[key]):
                raise ValueError(f"{key} must be {_kind(defaults[key])}, got {value!r}")
        for key, least in (("master_seed", 0), ("threads", 1), ("limit", 1)):
            _check_int(key, getattr(self, key), least)
        if not isinstance(self.quick, bool):
            raise ValueError(f"quick must be true or false, got {self.quick!r}")
        eff = {k: defaults.get(f"quick_{k}" if self.quick else k, defaults[k]) for k in settings}
        eff.update(self.settings)
        for key in ("unitary_count", "seed_limit", "seed_sample"):
            if key in eff and eff[key] < 1:
                raise ValueError(f"{key} must be >= 1, got {eff[key]}")
        for key in ("photon_list", "bin_list", "epsilon_list", "cells", "pairs"):
            if key in eff and len(eff[key]) == 0:
                raise ValueError(f"{key} must not be empty")
        if "epsilon_list" in eff and not all(0 < e < 1 for e in eff["epsilon_list"]):
            raise ValueError(f"epsilon_list must lie in (0, 1), got {list(eff['epsilon_list'])}")
        if any(len(cell) != 2 for cell in eff.get("cells", ())):
            raise ValueError(f"cells must be [modes, photons] pairs, got {_plain(eff['cells'])}")
        if len(eff.get("n_range", (1, 1))) != 2:
            raise ValueError(f"n_range must be a pair [lo, hi], got {_plain(eff['n_range'])}")
        eff.update({k: getattr(self, k) for k in RUN_FIELDS})
        return _plain(eff)

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "ExperimentConfig":
        data = dict(data)
        data.pop("schema_version", None)
        if "experiment" not in data or "master_seed" not in data:
            raise ValueError("experiment config needs 'experiment' and 'master_seed'")
        return cls(**data)


def _fits(value: Any, default: Any) -> bool:
    """Whether a setting has its default's type: no bool anywhere, an int or
    a float for a float, and for a tuple a list or tuple whose items fit its
    first item."""
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_fits(v, default[0]) for v in value)
    kinds = (int, float) if isinstance(default, float) else type(default)
    return isinstance(value, kinds) and not isinstance(value, bool)


def _kind(default: Any, plural: bool = False) -> str:
    """The type _fits asks for, in words: "an integer", "a list of lists of integers"."""
    if isinstance(default, tuple):
        noun = "list" + "s" * plural + " of " + _kind(default[0], True)
    else:
        noun = {int: "integer", float: "number", str: "string"}[type(default)] + "s" * plural
    return noun if plural else ("an " if noun[0] in "aeiou" else "a ") + noun


def _plain(value: Any) -> Any:
    """Tuples to lists, numpy scalars to Python, for JSON-stable payloads."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    return value


@dataclass
class ExperimentReport:
    experiment: str
    config: dict[str, Any]
    started_at: str
    wall_seconds: float
    summary: dict[str, Any]
    cells: list[dict[str, Any]]

    def to_payload(self) -> dict[str, Any]:
        return {
            "schema_version": 1,
            "experiment": self.experiment,
            "config": _plain(self.config),
            "started_at": self.started_at,
            "wall_seconds": self.wall_seconds,
            "summary": _plain(self.summary),
            "cells": _plain(self.cells),
        }

    def write(self, out_dir: str | Path) -> list[str]:
        """JSON envelope plus one CSV per cell table; returns written paths."""
        out_dir = Path(out_dir)
        paths = []
        json_path = out_dir / f"{self.experiment}.json"
        write_json(json_path, self.to_payload())
        paths.append(str(json_path))
        tables: dict[str, list[dict[str, Any]]] = {}
        for cell in self.cells:
            tables.setdefault(cell.get("table", "cells"), []).append(cell)
        import csv
        import io as stringio

        for name, rows in tables.items():
            buf = stringio.StringIO()
            fieldnames = [k for k in rows[0] if k != "table"]
            writer = csv.DictWriter(buf, fieldnames=fieldnames, extrasaction="ignore")
            writer.writeheader()
            for row in rows:
                writer.writerow({k: v for k, v in row.items() if k != "table"})
            path = out_dir / f"{self.experiment}_{name}.csv"
            atomic_write_text(path, buf.getvalue())
            paths.append(str(path))
        return paths


def report_fingerprint(report: ExperimentReport) -> dict[str, Any]:
    """Payload with wall-clock dependent fields removed; equal fingerprints
    mean two runs agree everywhere reproducibility is promised."""

    def strip(value: Any) -> Any:
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k not in TIMING_FIELDS}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    return strip(report.to_payload())


def _scan_blocks(
    matrix: np.ndarray, space: FockSpace, seed_indices: np.ndarray, statistics: ParticleStatistics
) -> Iterator[tuple[int, np.ndarray]]:
    """(lo, probs) per block of up to `scan_width` seeds from seed_indices[lo],
    probs a (seeds, outcomes) array. Every block runs into one workspace, so
    its probs are valid until the next block."""
    width = scan_width(space, statistics)
    workspace = ScanWorkspace(space, statistics, min(width, len(seed_indices)))
    for lo in range(0, len(seed_indices), width):
        block = seed_indices[lo : lo + width]
        yield lo, _batch_probabilities(matrix, block, space, statistics, workspace)


def _mpb_scan(
    matrix: np.ndarray,
    space: FockSpace,
    bin_list: tuple[int, ...],
    seed_indices: np.ndarray | None = None,
    statistics: ParticleStatistics = ParticleStatistics.BOSON,
) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per-seed MPB label, p0 and p1 of the exact output distribution,
    for every requested bin count. Returns {d: (labels, p0, p1)}.

    The masses come by the cheaper route for this many seeds
    (`kernel_is_cheaper`): the kernel's distributions in blocks of
    `scan_width` seeds, summed per bin, or the class route
    (`class_bin_masses`) in blocks of its own width, both within SCAN_BYTES.
    Each kernel block is a (seeds, outcomes) array, so its bin sums run
    along contiguous rows and release the GIL. Down the columns of
    (outcomes, seeds) blocks `np.add.reduceat` held it: two (18,4)
    unitaries' sums took as long on two threads (0.33 s) as on one
    (0.35 s), and the threads' kernels waited on them.
    """
    if seed_indices is None:
        seed_indices = np.arange(space.size)
    count = len(seed_indices)
    out = {
        d: (np.empty(count, dtype=np.int64), np.empty(count), np.empty(count)) for d in bin_list
    }
    if kernel_is_cheaper(space.modes, space.photons, bin_list, statistics, space.size, count):
        partitions = {d: make_partition(space.size, d) for d in bin_list}
        blocks = (
            (lo, {d: bin_masses(probs, partitions[d]) for d in bin_list})
            for lo, probs in _scan_blocks(matrix, space, seed_indices, statistics)
        )
    else:
        plan = ClassPlan(space.modes, space.photons, bin_list, statistics)
        blocks = [(0, class_bin_masses(matrix, space.expansion.rows(seed_indices), plan))]
    for lo, masses in blocks:
        for d in bin_list:
            for column, values in zip(out[d], top_two(masses[d])):
                column[lo : lo + len(values)] = values
    return out


def _margin_bound(scan: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]) -> tuple[float, int]:
    """Smallest margin p0 - 1/d of a scan over its seeds and bin counts, and
    the number of seeds whose top bin is not above uniform (p0 <= 1/d)."""
    worst, bad = math.inf, 0
    for d, (_, p0, _) in scan.items():
        margin = p0 - 1.0 / d
        worst = min(worst, float(margin.min()))
        bad += int((margin <= 0).sum())
    return worst, bad


def _bound_fields(bounds: list[tuple[float, int]]) -> dict[str, Any]:
    """The min_margin and violations fields of several _margin_bound results."""
    return {"min_margin": min(w for w, _ in bounds), "violations": sum(b for _, b in bounds)}


def _sample_std(values: np.ndarray) -> float:
    return float(values.std(ddof=1)) if len(values) > 1 else 0.0


CellResults = list[tuple[FockSpace, list[Any]]]
Outcome = tuple[dict[str, Any], list[dict[str, Any]]]  # a report's summary and cells


def _scan_experiment(
    eff: dict[str, Any],
    grid: list[tuple[int, int]],
    per_unitary: Callable[[FockSpace, np.ndarray, np.random.Generator], Any],
    reduce: Callable[[CellResults], Outcome],
) -> Outcome:
    """The scan behind every Haar experiment.

    For each (modes, photons) cell of the grid, the space is enumerated once
    and per_unitary(space, matrix, child) runs for `unitary_count` Haar
    unitaries. Unitary u of cell c is drawn from child generator
    c * unitary_count + u of the master seed, and its result is kept in slot
    u, so the report does not depend on the thread count. reduce gets
    [(space, results)] in grid order and returns the summary and the cells.
    """
    count = eff["unitary_count"]
    children = rng_policy.split(eff["master_seed"], len(grid) * count)
    results: CellResults = []
    for c_idx, (modes, photons) in enumerate(grid):
        space = enumerate_configurations(modes, photons, limit=eff["limit"])
        outs: list[Any] = [None] * count

        def work(u_idx: int) -> None:
            child = children[c_idx * count + u_idx]
            outs[u_idx] = per_unitary(space, haar_unitary(modes, child).matrix, child)

        _thread_map(work, count, eff["threads"])
        results.append((space, outs))
    return reduce(results)


def run_mpb_seed_scan(eff: dict[str, Any]) -> Outcome:
    """MPB label and margin of every early seed under one fixed unitary.

    Walks the first `seed_limit` seeds in code order and records, per bin
    count, the label trace and where it changes.
    """
    bin_list = tuple(eff["bin_list"])

    def per_unitary(space, matrix, child):
        return _mpb_scan(matrix, space, bin_list, np.arange(min(eff["seed_limit"], space.size)))

    def reduce(results):
        [(space, scans)] = results
        cells: list[dict[str, Any]] = []
        for u_idx, scan in enumerate(scans):
            for d in bin_list:
                labels, p0, p1 = scan[d]
                margins = p0 - 1.0 / d
                for i in range(len(labels)):
                    cells.append(
                        {
                            "table": "scan",
                            "unitary": u_idx,
                            "bins": d,
                            "seed_index": i,
                            "label": int(labels[i]),
                            "p0": float(p0[i]),
                            "p1": float(p1[i]),
                            "gap": float(p0[i] - p1[i]),
                            "margin": float(margins[i]),
                        }
                    )
                transitions = int((labels[1:] != labels[:-1]).sum())
                cells.append(
                    {"table": "transitions", "unitary": u_idx, "bins": d, "transitions": transitions}
                )
        summary = {
            "space_size": space.size,
            "seed_limit": min(eff["seed_limit"], space.size),
            **_bound_fields([_margin_bound(scan) for scan in scans]),
        }
        return summary, cells

    return _scan_experiment(eff, [(eff["modes"], eff["photons"])], per_unitary, reduce)


def run_bin_fraction(eff: dict[str, Any]) -> Outcome:
    """Fraction of seeds mapping to each bin label, across Haar unitaries.

    For each photon count the whole seed space is scanned per unitary; the
    per-label fractions are averaged over unitaries.
    """
    bin_list = tuple(eff["bin_list"])

    def per_unitary(space, matrix, child):
        scan = _mpb_scan(matrix, space, bin_list)
        fractions = {d: np.bincount(scan[d][0], minlength=d) / space.size for d in bin_list}
        return fractions, _margin_bound(scan)

    def reduce(results):
        cells: list[dict[str, Any]] = []
        bound_rows: list[dict[str, Any]] = []
        for space, outs in results:
            for d in bin_list:
                fractions = np.array([f[d] for f, _ in outs])
                for label in range(d):
                    col = fractions[:, label]
                    cells.append(
                        {
                            "table": "fractions",
                            "photons": space.photons,
                            "bins": d,
                            "label": label,
                            "fraction_mean": float(col.mean()),
                            "fraction_std": _sample_std(col),
                        }
                    )
            bound_rows.append(
                {
                    "table": "bounds",
                    "photons": space.photons,
                    "space_size": space.size,
                    **_bound_fields([bound for _, bound in outs]),
                }
            )
        summary = {
            "modes": eff["modes"],
            "unitary_count": eff["unitary_count"],
            **_bound_fields([bound for _, outs in results for _, bound in outs]),
        }
        return summary, cells + bound_rows

    grid = [(eff["modes"], photons) for photons in eff["photon_list"]]
    return _scan_experiment(eff, grid, per_unitary, reduce)


def run_pmax_histogram(eff: dict[str, Any]) -> Outcome:
    """Histogram of the MPB mass p0 over all seeds, per bin count."""
    bin_list = tuple(eff["bin_list"])
    dp = float(eff["dp"])
    if not 0 < dp <= 1:
        raise ValueError(f"dp must be in (0, 1], got {dp}")
    edges = np.arange(0.0, 1.0 + dp, dp)

    def per_unitary(space, matrix, child):
        scan = _mpb_scan(matrix, space, bin_list)
        moments = {}
        for d in bin_list:
            p0 = scan[d][1]
            moments[d] = (np.histogram(p0, bins=edges)[0] / space.size, p0.mean(), p0.std())
        return moments, _margin_bound(scan)

    def reduce(results):
        [(space, outs)] = results
        cells: list[dict[str, Any]] = []
        for d in bin_list:
            hists = np.array([m[d][0] for m, _ in outs])
            p0_mean = np.array([m[d][1] for m, _ in outs])
            p0_std = np.array([m[d][2] for m, _ in outs])
            mean_rows = hists.mean(axis=0)
            std_rows = hists.std(axis=0, ddof=1) if len(hists) > 1 else np.zeros_like(mean_rows)
            for k in np.nonzero(mean_rows > 0)[0]:
                cells.append(
                    {
                        "table": "histogram",
                        "bins": d,
                        "p_low": float(edges[k]),
                        "p_high": float(edges[k + 1]),
                        "fraction_mean": float(mean_rows[k]),
                        "fraction_std": float(std_rows[k]),
                    }
                )
            cells.append(
                {
                    "table": "moments",
                    "bins": d,
                    "p0_mean": float(p0_mean.mean()),
                    "p0_spread": float(p0_std.mean()),
                }
            )
        summary = {
            "modes": space.modes,
            "photons": space.photons,
            "space_size": space.size,
            "dp": dp,
            "unitary_count": eff["unitary_count"],
            **_bound_fields([bound for _, bound in outs]),
        }
        return summary, cells

    return _scan_experiment(eff, [(eff["modes"], eff["photons"])], per_unitary, reduce)


def run_gap_fraction(eff: dict[str, Any]) -> Outcome:
    """Fraction of seeds whose top-two bin gap is at most epsilon."""
    bin_list = tuple(eff["bin_list"])
    eps_list = eff["epsilon_list"]

    def per_unitary(space, matrix, child):
        scan = _mpb_scan(matrix, space, bin_list)
        gap_stats = {}
        for d in bin_list:
            _, p0, p1 = scan[d]
            gaps = p0 - p1
            gap_stats[d] = ([float((gaps <= eps).mean()) for eps in eps_list], gaps.mean())
        return gap_stats, _margin_bound(scan)

    def reduce(results):
        [(space, outs)] = results
        cells: list[dict[str, Any]] = []
        for d in bin_list:
            fractions = np.array([g[d][0] for g, _ in outs])
            mean_gap = np.array([g[d][1] for g, _ in outs])
            for e_idx, eps in enumerate(eps_list):
                col = fractions[:, e_idx]
                cells.append(
                    {
                        "table": "fractions",
                        "bins": d,
                        "epsilon": eps,
                        "fraction_mean": float(col.mean()),
                        "fraction_std": _sample_std(col),
                    }
                )
            cells.append({"table": "gaps", "bins": d, "mean_gap": float(mean_gap.mean())})
        summary = {
            "modes": space.modes,
            "photons": space.photons,
            "space_size": space.size,
            "unitary_count": eff["unitary_count"],
            **_bound_fields([bound for _, bound in outs]),
        }
        return summary, cells

    return _scan_experiment(eff, [(eff["modes"], eff["photons"])], per_unitary, reduce)


_PAIR_STATS = {
    "BD": (ParticleStatistics.BOSON, ParticleStatistics.DISTINGUISHABLE),
    "BF": (ParticleStatistics.BOSON, ParticleStatistics.FERMION),
}


def run_collision(eff: dict[str, Any]) -> Outcome:
    """Label agreement between bosons and fermions/distinguishable particles.

    For each (modes, photons) cell, all collision-free seeds are scanned per
    unitary under both particle types of each pair; the per-unitary match
    fraction is aggregated over unitaries, per bin count.
    """
    bin_list = tuple(eff["bin_list"])
    pairs = eff["pairs"]
    for p in pairs:
        if p not in _PAIR_STATS:
            raise ValueError(f"unknown statistics pair {p!r}; known: BD, BF")
    if any(photons > modes for modes, photons in eff["cells"]):
        raise ValueError("no collision-free seeds available")
    needed = {ParticleStatistics.BOSON} | {_PAIR_STATS[p][1] for p in pairs}

    def per_unitary(space, matrix, child):
        seed_idx = space.collision_free_indices
        labels = {s: _mpb_scan(matrix, space, bin_list, seed_idx, s) for s in needed}
        match = {}
        for p in pairs:
            a, b = _PAIR_STATS[p]
            for d in bin_list:
                match[(p, d)] = float((labels[a][d][0] == labels[b][d][0]).mean())
        return match

    def reduce(results):
        cells: list[dict[str, Any]] = []
        for space, outs in results:
            for p in pairs:
                for d in bin_list:
                    col = np.array([match[(p, d)] for match in outs])
                    cells.append(
                        {
                            "table": "collision",
                            "modes": space.modes,
                            "photons": space.photons,
                            "pair": p,
                            "bins": d,
                            "p_col_mean": float(col.mean()),
                            "p_col_std": _sample_std(col),
                            "seed_count": int(len(space.collision_free_indices)),
                            "size_full": space.size,
                            "size_cf": int(collision_free_count(space.modes, space.photons)),
                        }
                    )
        return {"unitary_count": eff["unitary_count"], "pairs": pairs}, cells

    return _scan_experiment(eff, eff["cells"], per_unitary, reduce)


def run_maxprob_scaling(eff: dict[str, Any]) -> Outcome:
    """Largest single-outcome probability versus space size, with a power-law fit.

    Samples seeds per cell, records max_r P(r|s), and fits
    log(mean) = log(a) + b log(size) over the grid; exponent b and
    prefactor a are null when the cells give fewer than two distinct sizes.
    """
    seed_sample = eff["seed_sample"]
    size_measure = eff["size_measure"]
    if size_measure not in ("full", "collision_free"):
        raise ValueError(f"size_measure must be 'full' or 'collision_free', got {size_measure!r}")
    bad = [[modes, photons] for modes, photons in eff["cells"] if photons > modes]
    if size_measure == "collision_free" and bad:
        raise ValueError(f"cells must have photons <= modes under size_measure 'collision_free', got {bad}")

    def per_unitary(space, matrix, child):
        if seed_sample < space.size:
            picks = np.sort(child.choice(space.size, size=seed_sample, replace=False))
        else:
            picks = np.arange(space.size)
        maxima = np.empty(len(picks))
        for lo, probs in _scan_blocks(matrix, space, picks, ParticleStatistics.BOSON):
            maxima[lo : lo + len(probs)] = probs.max(axis=1)
        return maxima

    def reduce(results):
        cells: list[dict[str, Any]] = []
        sizes = []
        means = []
        for space, outs in results:
            pooled = np.concatenate(outs)
            size_cf = collision_free_count(space.modes, space.photons)
            cells.append(
                {
                    "table": "cells",
                    "modes": space.modes,
                    "photons": space.photons,
                    "size_full": space.size,
                    "size_cf": size_cf,
                    "samples": int(len(pooled)),
                    "maxprob_mean": float(pooled.mean()),
                    "maxprob_std": _sample_std(pooled),
                }
            )
            sizes.append(space.size if size_measure == "full" else size_cf)
            means.append(pooled.mean())
        exponent = prefactor = None  # a line through fewer than two sizes is not fitted
        if len(set(sizes)) >= 2:
            slope, intercept = np.polyfit(np.log(np.asarray(sizes, dtype=float)), np.log(means), 1)
            exponent, prefactor = float(slope), float(math.exp(intercept))
        summary = {
            "size_measure": size_measure,
            "exponent": exponent,
            "prefactor": prefactor,
            "unitary_count": eff["unitary_count"],
            "seed_sample": seed_sample,
        }
        return summary, cells

    return _scan_experiment(eff, eff["cells"], per_unitary, reduce)


def _fit_cost_model(ns: list[int], seconds: list[float]) -> dict[str, float]:
    """Least-squares fit of seconds = a n 2^(b n) + c.

    For a fixed b the model is linear in (a, c), which np.linalg.lstsq
    solves; b minimizes the squared residual by golden-section search on
    [0, 3]. Raises np.linalg.LinAlgError when a solve does not converge.
    """
    n = np.asarray(ns, dtype=float)
    t = np.asarray(seconds)

    def solve(b: float) -> tuple[float, float, float]:
        design = np.column_stack((n * np.exp2(b * n), np.ones_like(n)))
        (a, c), *_ = np.linalg.lstsq(design, t, rcond=None)
        return float(a), float(c), float(np.sum((design @ (a, c) - t) ** 2))

    lo, hi = 0.0, 3.0
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(60):
        left, right = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
        if solve(left)[2] <= solve(right)[2]:
            hi = right
        else:
            lo = left
    b = (lo + hi) / 2.0
    a, c, _ = solve(b)
    return {"fit_a": a, "fit_b": b, "fit_c": c}


def run_ryser_benchmark(eff: dict[str, Any]) -> Outcome:
    """Cost scaling of the permanent kernel and of brute-force scans.

    Single permanents are timed with time.thread_time(), the CPU time of the
    calling thread, so time the host gives to other processes is not
    counted. Each size's time is the fastest of `repeats` interleaved timing
    passes (one untimed warmup pass first), and T = a n 2^(b n) + c is
    fitted to those times by _fit_cost_model. The kernel is deterministic,
    so any excess over the fastest run is interference; interleaving the
    passes keeps one interference burst from biasing every repeat of a
    single size. The per-added-photon ratio is the median over passes of
    t(n) / t(n - 1) within one pass, where the two calls run back to back.
    Passes alternate between ascending and descending n, so a drift in
    machine speed across a pass raises the ratios of one direction and
    lowers those of the other instead of biasing them all; a ratio of two
    fastest runs taken seconds apart does not cancel such drift. Grid:
    wall-clock time to evaluate every collision-free outcome of one seed by
    per-outcome Ryser calls, reported against the xi * N * 2^N operation
    count at a reference rate. Timings are machine-dependent; only their
    ratios are meaningful across machines. Always runs sequentially so
    timings are not distorted by contention.
    """
    n_lo, n_hi = eff["n_range"]
    repeats = eff["repeats"]
    if not (1 <= n_lo <= n_hi and repeats >= 1):
        raise ValueError(f"need 1 <= n_lo <= n_hi and repeats >= 1, got {[n_lo, n_hi]} and {repeats}")
    rng = rng_policy.generator(eff["master_seed"])
    cells: list[dict[str, Any]] = []
    ns = list(range(n_lo, n_hi + 1))
    matrices = {
        n: (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(n)
        for n in ns
    }
    for n in ns:
        permanent_ryser(matrices[n])  # warmup pass, untimed
    times: dict[int, list[float]] = {n: [] for n in ns}
    for rep in range(repeats):
        for n in ns if rep % 2 == 0 else ns[::-1]:
            t_start = time.thread_time()
            permanent_ryser(matrices[n])
            times[n].append(time.thread_time() - t_start)
    best_times = [float(min(times[n])) for n in ns]
    for i, n in enumerate(ns):
        ratio = float(np.median(np.divide(times[n], times[ns[i - 1]]))) if i else None
        cells.append({"table": "single", "n": n, "seconds": best_times[i], "ratio_to_prev": ratio})
    fit: dict[str, float | None] = dict.fromkeys(("fit_a", "fit_b", "fit_c"))  # null if not fitted
    if len(ns) >= 3:  # one size per parameter at least
        try:
            fit = _fit_cost_model(ns, best_times)
        except np.linalg.LinAlgError:
            pass
    for modes, photons in eff["cells"]:
        space = enumerate_configurations(modes, photons, limit=eff["limit"])
        u = haar_unitary(modes, rng)
        cf_rows = [space.configuration(int(i)) for i in space.collision_free_indices]
        seed = cf_rows[0]
        t_start = time.perf_counter()
        total = 0.0
        for row in cf_rows:
            sub = submatrix(u.matrix, seed, row)
            total += abs(permanent_ryser(sub)) ** 2
        seconds = time.perf_counter() - t_start
        xi = len(cf_rows)
        cells.append(
            {
                "table": "grid",
                "modes": modes,
                "photons": photons,
                "xi": xi,
                "space_size": space.size,
                "cf_mass": float(total),
                "seconds": seconds,
                "seconds_per_permanent": seconds / xi,
                "model_seconds_at_reference": float(xi * photons * 2.0**photons / REFERENCE_FLOPS),
            }
        )
    return {"repeats": repeats, "reference_flops": REFERENCE_FLOPS, **fit}, cells


EXPERIMENTS: dict[str, Callable[[dict[str, Any]], Outcome]] = {
    "mpb_seed_scan": run_mpb_seed_scan,
    "bin_fraction": run_bin_fraction,
    "pmax_histogram": run_pmax_histogram,
    "gap_fraction": run_gap_fraction,
    "collision": run_collision,
    "maxprob_scaling": run_maxprob_scaling,
    "ryser_benchmark": run_ryser_benchmark,
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Resolve the config once, run its experiment on the resolved settings
    and report them with its summary, cells and timing."""
    eff = config.resolved()
    started, t0 = datetime.now(timezone.utc).isoformat(), time.perf_counter()
    summary, cells = EXPERIMENTS[config.experiment](eff)
    return ExperimentReport(config.experiment, eff, started, time.perf_counter() - t0, summary, cells)
