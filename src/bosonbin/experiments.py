"""Reproducible numerical experiments over Haar-random interferometers.

Every experiment takes an ExperimentConfig, resolves per-experiment
defaults, spends one master seed, and returns an ExperimentReport whose
non-timing content is bit-reproducible for a fixed config (independent of
thread count: child generators and result slots are assigned by index).
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import rng as rng_policy
from .binning import make_partition
from .distribution import SCAN_BLOCK, ParticleStatistics, _batch_probabilities
from .fock import DEFAULT_ENUMERATION_LIMIT, FockSpace, collision_free_count, enumerate_configurations, space_size
from .io import atomic_write_text, write_json
from .linalg import haar_unitary, permanent_ryser, submatrix

REFERENCE_FLOPS = 1e9

# fields that vary run to run (wall-clock measurements and fits of them);
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
        "repeats": 5,
        "cells": ((4, 2), (8, 2), (16, 2), (9, 3), (18, 3), (16, 4)),
        "unitary_count": 1,
        "quick_unitary_count": 1,
    },
}


@dataclass
class ExperimentConfig:
    """Knobs for one experiment run; None fields fall back to the defaults
    registered for the experiment id."""

    experiment: str
    master_seed: int
    quick: bool = False
    threads: int = 1
    unitary_count: int | None = None
    modes: int | None = None
    photons: int | None = None
    photon_list: tuple[int, ...] | None = None
    bin_list: tuple[int, ...] | None = None
    seed_limit: int | None = None
    epsilon_list: tuple[float, ...] | None = None
    dp: float | None = None
    pairs: tuple[str, ...] | None = None
    cells: tuple[tuple[int, int], ...] | None = None
    seed_sample: int | None = None
    n_range: tuple[int, int] | None = None
    repeats: int | None = None
    size_measure: str | None = None
    limit: int = DEFAULT_ENUMERATION_LIMIT

    def resolved(self) -> dict[str, Any]:
        """Effective settings: registered defaults overridden by set fields."""
        if self.experiment not in EXPERIMENT_DEFAULTS:
            known = ", ".join(sorted(EXPERIMENT_DEFAULTS))
            raise ValueError(f"unknown experiment {self.experiment!r}; known: {known}")
        eff = dict(EXPERIMENT_DEFAULTS[self.experiment])
        quick_count = eff.pop("quick_unitary_count")
        if self.quick:
            eff["unitary_count"] = quick_count
        for key, value in asdict(self).items():
            if key in ("experiment", "quick", "threads", "master_seed", "limit"):
                continue
            if value is not None:
                eff[key] = value
        eff.update(
            experiment=self.experiment,
            master_seed=self.master_seed,
            quick=self.quick,
            threads=self.threads,
            limit=self.limit,
        )
        return _plain(eff)

    def to_json(self) -> dict[str, Any]:
        payload = {k: v for k, v in asdict(self).items() if v is not None}
        payload["schema_version"] = 1
        return _plain(payload)

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "ExperimentConfig":
        data = dict(data)
        data.pop("schema_version", None)
        if "experiment" not in data or "master_seed" not in data:
            raise ValueError("experiment config needs 'experiment' and 'master_seed'")
        tupled = {}
        for key, value in data.items():
            if isinstance(value, list):
                value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
            tupled[key] = value
        valid = set(cls.__dataclass_fields__)
        unknown = set(tupled) - valid
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**tupled)


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


def _thread_map(fn: Callable[[int], None], count: int, threads: int) -> None:
    """fn(i) for each index; results must be written by index so thread
    scheduling cannot reorder anything observable."""
    if threads <= 1:
        for i in range(count):
            fn(i)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(fn, range(count)))


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _mpb_scan(
    matrix: np.ndarray,
    space: FockSpace,
    bin_list: tuple[int, ...],
    seed_indices: np.ndarray | None = None,
) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per-seed MPB label, p0 and p1 of the exact boson distribution,
    for every requested bin count. Returns {d: (labels, p0, p1)}."""
    if seed_indices is None:
        seed_indices = np.arange(space.size)
    count = len(seed_indices)
    starts = {
        d: np.asarray(make_partition(space.size, d).offsets[:-1], dtype=np.intp) for d in bin_list
    }
    out = {
        d: (np.empty(count, dtype=np.int64), np.empty(count), np.empty(count)) for d in bin_list
    }
    for lo in range(0, count, SCAN_BLOCK):
        block = seed_indices[lo : lo + SCAN_BLOCK]
        b = len(block)
        probs = _batch_probabilities(matrix, block, space, ParticleStatistics.BOSON)
        for d in bin_list:
            binned = np.add.reduceat(probs, starts[d], axis=0)
            labels = np.argmax(binned, axis=0)
            p0 = binned[labels, np.arange(b)]
            p1 = np.partition(binned, -2, axis=0)[-2, :]
            out[d][0][lo : lo + b] = labels
            out[d][1][lo : lo + b] = p0
            out[d][2][lo : lo + b] = p1
    return out


def run_mpb_seed_scan(config: ExperimentConfig) -> ExperimentReport:
    """MPB label and margin of every early seed under one fixed unitary.

    Walks the first `seed_limit` seeds in code order and records, per bin
    count, the label trace and where it changes.
    """
    eff = config.resolved()
    started, t0 = _now(), time.perf_counter()
    modes, photons = eff["modes"], eff["photons"]
    bin_list = tuple(eff["bin_list"])
    space = enumerate_configurations(modes, photons, limit=config.limit)
    seed_limit = min(eff["seed_limit"], space.size)
    children = rng_policy.split(config.master_seed, eff["unitary_count"])
    cells: list[dict[str, Any]] = []
    min_margin = math.inf
    violations = 0
    for u_idx in range(eff["unitary_count"]):
        u = haar_unitary(modes, children[u_idx])
        scan = _mpb_scan(u.matrix, space, bin_list, np.arange(seed_limit))
        for d in bin_list:
            labels, p0, p1 = scan[d]
            margins = p0 - 1.0 / d
            min_margin = min(min_margin, float(margins.min()))
            violations += int((margins <= 0).sum())
            for i in range(seed_limit):
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
        "seed_limit": seed_limit,
        "min_margin": min_margin,
        "violations": violations,
    }
    return ExperimentReport(
        experiment=config.experiment,
        config=eff,
        started_at=started,
        wall_seconds=time.perf_counter() - t0,
        summary=summary,
        cells=cells,
    )


def run_bin_fraction(config: ExperimentConfig) -> ExperimentReport:
    """Fraction of seeds mapping to each bin label, across Haar unitaries.

    For each photon count the whole seed space is scanned per unitary; the
    per-label fractions are averaged over unitaries.
    """
    eff = config.resolved()
    started, t0 = _now(), time.perf_counter()
    modes = eff["modes"]
    photon_list = tuple(eff["photon_list"])
    bin_list = tuple(eff["bin_list"])
    count = eff["unitary_count"]
    children = rng_policy.split(config.master_seed, len(photon_list) * count)
    cells: list[dict[str, Any]] = []
    bound_rows: list[dict[str, Any]] = []
    min_margin = math.inf
    violations = 0
    for c_idx, photons in enumerate(photon_list):
        space = enumerate_configurations(modes, photons, limit=config.limit)
        fractions = {d: np.empty((count, d)) for d in bin_list}
        margins = np.empty(count)
        cell_violations = np.zeros(count, dtype=np.int64)
        def work(u_idx: int, c_idx=c_idx, space=space, fractions=fractions, margins=margins, cell_violations=cell_violations) -> None:
            u = haar_unitary(modes, children[c_idx * count + u_idx])
            scan = _mpb_scan(u.matrix, space, bin_list)
            worst = math.inf
            bad = 0
            for d in bin_list:
                labels, p0, _ = scan[d]
                fractions[d][u_idx] = np.bincount(labels, minlength=d) / space.size
                m = p0 - 1.0 / d
                worst = min(worst, float(m.min()))
                bad += int((m <= 0).sum())
            margins[u_idx] = worst
            cell_violations[u_idx] = bad

        _thread_map(work, count, config.threads)
        for d in bin_list:
            for label in range(d):
                col = fractions[d][:, label]
                cells.append(
                    {
                        "table": "fractions",
                        "photons": photons,
                        "bins": d,
                        "label": label,
                        "fraction_mean": float(col.mean()),
                        "fraction_std": float(col.std(ddof=1)) if count > 1 else 0.0,
                    }
                )
        bound_rows.append(
            {
                "table": "bounds",
                "photons": photons,
                "space_size": space.size,
                "min_margin": float(margins.min()),
                "violations": int(cell_violations.sum()),
            }
        )
        min_margin = min(min_margin, float(margins.min()))
        violations += int(cell_violations.sum())
    summary = {
        "modes": modes,
        "unitary_count": count,
        "min_margin": min_margin,
        "violations": violations,
    }
    return ExperimentReport(
        experiment=config.experiment,
        config=eff,
        started_at=started,
        wall_seconds=time.perf_counter() - t0,
        summary=summary,
        cells=cells + bound_rows,
    )


def run_pmax_histogram(config: ExperimentConfig) -> ExperimentReport:
    """Histogram of the MPB mass p0 over all seeds, per bin count."""
    eff = config.resolved()
    started, t0 = _now(), time.perf_counter()
    modes, photons = eff["modes"], eff["photons"]
    bin_list = tuple(eff["bin_list"])
    dp = float(eff["dp"])
    count = eff["unitary_count"]
    space = enumerate_configurations(modes, photons, limit=config.limit)
    edges = np.arange(0.0, 1.0 + dp, dp)
    children = rng_policy.split(config.master_seed, count)
    hists = {d: np.empty((count, len(edges) - 1)) for d in bin_list}
    p0_mean = {d: np.empty(count) for d in bin_list}
    p0_std = {d: np.empty(count) for d in bin_list}
    min_margin = np.empty(count)
    violations = np.zeros(count, dtype=np.int64)

    def work(u_idx: int) -> None:
        u = haar_unitary(modes, children[u_idx])
        scan = _mpb_scan(u.matrix, space, bin_list)
        worst = math.inf
        bad = 0
        for d in bin_list:
            _, p0, _ = scan[d]
            hists[d][u_idx] = np.histogram(p0, bins=edges)[0] / space.size
            p0_mean[d][u_idx] = p0.mean()
            p0_std[d][u_idx] = p0.std()
            m = p0 - 1.0 / d
            worst = min(worst, float(m.min()))
            bad += int((m <= 0).sum())
        min_margin[u_idx] = worst
        violations[u_idx] = bad

    _thread_map(work, count, config.threads)
    cells: list[dict[str, Any]] = []
    for d in bin_list:
        mean_rows = hists[d].mean(axis=0)
        std_rows = hists[d].std(axis=0, ddof=1) if count > 1 else np.zeros_like(mean_rows)
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
                "p0_mean": float(p0_mean[d].mean()),
                "p0_spread": float(p0_std[d].mean()),
            }
        )
    summary = {
        "modes": modes,
        "photons": photons,
        "space_size": space.size,
        "dp": dp,
        "unitary_count": count,
        "min_margin": float(min_margin.min()),
        "violations": int(violations.sum()),
    }
    return ExperimentReport(
        experiment=config.experiment,
        config=eff,
        started_at=started,
        wall_seconds=time.perf_counter() - t0,
        summary=summary,
        cells=cells,
    )


def run_gap_fraction(config: ExperimentConfig) -> ExperimentReport:
    """Fraction of seeds whose top-two bin gap is at most epsilon."""
    eff = config.resolved()
    started, t0 = _now(), time.perf_counter()
    modes, photons = eff["modes"], eff["photons"]
    bin_list = tuple(eff["bin_list"])
    eps_list = tuple(float(e) for e in eff["epsilon_list"])
    count = eff["unitary_count"]
    space = enumerate_configurations(modes, photons, limit=config.limit)
    children = rng_policy.split(config.master_seed, count)
    fractions = {d: np.empty((count, len(eps_list))) for d in bin_list}
    mean_gap = {d: np.empty(count) for d in bin_list}
    min_margin = np.empty(count)
    violations = np.zeros(count, dtype=np.int64)

    def work(u_idx: int) -> None:
        u = haar_unitary(modes, children[u_idx])
        scan = _mpb_scan(u.matrix, space, bin_list)
        worst = math.inf
        bad = 0
        for d in bin_list:
            _, p0, p1 = scan[d]
            gaps = p0 - p1
            for e_idx, eps in enumerate(eps_list):
                fractions[d][u_idx, e_idx] = float((gaps <= eps).mean())
            mean_gap[d][u_idx] = gaps.mean()
            m = p0 - 1.0 / d
            worst = min(worst, float(m.min()))
            bad += int((m <= 0).sum())
        min_margin[u_idx] = worst
        violations[u_idx] = bad

    _thread_map(work, count, config.threads)
    cells: list[dict[str, Any]] = []
    for d in bin_list:
        for e_idx, eps in enumerate(eps_list):
            col = fractions[d][:, e_idx]
            cells.append(
                {
                    "table": "fractions",
                    "bins": d,
                    "epsilon": eps,
                    "fraction_mean": float(col.mean()),
                    "fraction_std": float(col.std(ddof=1)) if count > 1 else 0.0,
                }
            )
        cells.append({"table": "gaps", "bins": d, "mean_gap": float(mean_gap[d].mean())})
    summary = {
        "modes": modes,
        "photons": photons,
        "space_size": space.size,
        "unitary_count": count,
        "min_margin": float(min_margin.min()),
        "violations": int(violations.sum()),
    }
    return ExperimentReport(
        experiment=config.experiment,
        config=eff,
        started_at=started,
        wall_seconds=time.perf_counter() - t0,
        summary=summary,
        cells=cells,
    )


_PAIR_STATS = {
    "BD": (ParticleStatistics.BOSON, ParticleStatistics.DISTINGUISHABLE),
    "BF": (ParticleStatistics.BOSON, ParticleStatistics.FERMION),
}


def run_collision(config: ExperimentConfig) -> ExperimentReport:
    """Label agreement between bosons and fermions/distinguishable particles.

    For each (modes, photons) cell, all collision-free seeds are scanned per
    unitary under both particle types of each pair; the per-unitary match
    fraction is aggregated over unitaries, per bin count.
    """
    eff = config.resolved()
    started, t0 = _now(), time.perf_counter()
    cells_mn = tuple(tuple(c) for c in eff["cells"])
    bin_list = tuple(eff["bin_list"])
    pairs = tuple(eff["pairs"])
    for p in pairs:
        if p not in _PAIR_STATS:
            raise ValueError(f"unknown statistics pair {p!r}; known: BD, BF")
    count = eff["unitary_count"]
    children = rng_policy.split(config.master_seed, len(cells_mn) * count)
    needed = {ParticleStatistics.BOSON}
    for p in pairs:
        needed.add(_PAIR_STATS[p][1])
    cells: list[dict[str, Any]] = []
    for c_idx, (modes, photons) in enumerate(cells_mn):
        space = enumerate_configurations(modes, photons, limit=config.limit)
        seed_idx = space.collision_free_indices
        starts = {
            d: np.asarray(make_partition(space.size, d).offsets[:-1], dtype=np.intp)
            for d in bin_list
        }
        match = {(p, d): np.empty(count) for p in pairs for d in bin_list}

        def work(u_idx: int, c_idx=c_idx, space=space, seed_idx=seed_idx, starts=starts, match=match) -> None:
            u = haar_unitary(space.modes, children[c_idx * count + u_idx])
            labels: dict[ParticleStatistics, dict[int, np.ndarray]] = {
                s: {d: np.empty(len(seed_idx), dtype=np.int64) for d in bin_list} for s in needed
            }
            for lo in range(0, len(seed_idx), SCAN_BLOCK):
                block = seed_idx[lo : lo + SCAN_BLOCK]
                for stats in needed:
                    probs = _batch_probabilities(u.matrix, block, space, stats)
                    for d in bin_list:
                        binned = np.add.reduceat(probs, starts[d], axis=0)
                        labels[stats][d][lo : lo + len(block)] = np.argmax(binned, axis=0)
            for p in pairs:
                a, b = _PAIR_STATS[p]
                for d in bin_list:
                    match[(p, d)][u_idx] = float(
                        (labels[a][d] == labels[b][d]).mean()
                    )

        _thread_map(work, count, config.threads)
        for p in pairs:
            for d in bin_list:
                col = match[(p, d)]
                cells.append(
                    {
                        "table": "collision",
                        "modes": modes,
                        "photons": photons,
                        "pair": p,
                        "bins": d,
                        "p_col_mean": float(col.mean()),
                        "p_col_std": float(col.std(ddof=1)) if count > 1 else 0.0,
                        "seed_count": int(len(seed_idx)),
                        "size_full": space.size,
                        "size_cf": int(collision_free_count(modes, photons)),
                    }
                )
    summary = {"unitary_count": count, "pairs": list(pairs)}
    return ExperimentReport(
        experiment=config.experiment,
        config=eff,
        started_at=started,
        wall_seconds=time.perf_counter() - t0,
        summary=summary,
        cells=cells,
    )


def run_maxprob_scaling(config: ExperimentConfig) -> ExperimentReport:
    """Largest single-outcome probability versus space size, with a power-law fit.

    Samples seeds per cell, records max_r P(r|s), and fits
    log(mean) = log(a) + b log(size) over the grid.
    """
    eff = config.resolved()
    started, t0 = _now(), time.perf_counter()
    cells_mn = tuple(tuple(c) for c in eff["cells"])
    count = eff["unitary_count"]
    seed_sample = eff["seed_sample"]
    size_measure = eff["size_measure"]
    if size_measure not in ("full", "collision_free"):
        raise ValueError(f"size_measure must be 'full' or 'collision_free', got {size_measure!r}")
    children = rng_policy.split(config.master_seed, len(cells_mn) * count)
    cells: list[dict[str, Any]] = []
    sizes = []
    means = []
    for c_idx, (modes, photons) in enumerate(cells_mn):
        space = enumerate_configurations(modes, photons, limit=config.limit)
        per_unitary: list[np.ndarray] = [np.empty(0)] * count

        def work(u_idx: int, c_idx=c_idx, space=space, per_unitary=per_unitary) -> None:
            child = children[c_idx * count + u_idx]
            u = haar_unitary(space.modes, child)
            if seed_sample < space.size:
                picks = np.sort(child.choice(space.size, size=seed_sample, replace=False))
            else:
                picks = np.arange(space.size)
            maxima = np.empty(len(picks))
            for lo in range(0, len(picks), SCAN_BLOCK):
                block = picks[lo : lo + SCAN_BLOCK]
                probs = _batch_probabilities(u.matrix, block, space, ParticleStatistics.BOSON)
                maxima[lo : lo + len(block)] = probs.max(axis=0)
            per_unitary[u_idx] = maxima

        _thread_map(work, count, config.threads)
        pooled = np.concatenate(per_unitary)
        size_full = space.size
        size_cf = collision_free_count(modes, photons)
        cells.append(
            {
                "table": "cells",
                "modes": modes,
                "photons": photons,
                "size_full": size_full,
                "size_cf": size_cf,
                "samples": int(len(pooled)),
                "maxprob_mean": float(pooled.mean()),
                "maxprob_std": float(pooled.std(ddof=1)) if len(pooled) > 1 else 0.0,
            }
        )
        sizes.append(size_full if size_measure == "full" else size_cf)
        means.append(pooled.mean())
    slope, intercept = np.polyfit(np.log(np.asarray(sizes, dtype=float)), np.log(means), 1)
    summary = {
        "size_measure": size_measure,
        "exponent": float(slope),
        "prefactor": float(math.exp(intercept)),
        "unitary_count": count,
        "seed_sample": seed_sample,
    }
    return ExperimentReport(
        experiment=config.experiment,
        config=eff,
        started_at=started,
        wall_seconds=time.perf_counter() - t0,
        summary=summary,
        cells=cells,
    )


def run_ryser_benchmark(config: ExperimentConfig) -> ExperimentReport:
    """Wall-clock scaling of the permanent kernel and of brute-force scans.

    Single permanents: fastest of `repeats` interleaved timing passes per
    matrix size (one untimed warmup pass first), with the per-added-photon
    ratio and a T = a n 2^(b n) + c fit. The kernel is deterministic, so any
    excess over the fastest run is scheduler interference; interleaving the
    passes keeps one interference burst from biasing every repeat of a single
    size. Grid: time to evaluate every collision-free outcome of one seed by
    per-outcome Ryser calls, reported against the xi * N * 2^N operation
    count at a reference rate. Timings are machine-dependent; only their
    ratios are meaningful across machines. Always runs sequentially so
    timings are not distorted by contention.
    """
    eff = config.resolved()
    started, t0 = _now(), time.perf_counter()
    n_lo, n_hi = eff["n_range"]
    repeats = eff["repeats"]
    rng = rng_policy.generator(config.master_seed)
    cells: list[dict[str, Any]] = []
    ns = list(range(n_lo, n_hi + 1))
    matrices = {
        n: (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(n)
        for n in ns
    }
    for n in ns:
        permanent_ryser(matrices[n])  # warmup pass, untimed
    times: dict[int, list[float]] = {n: [] for n in ns}
    for _ in range(repeats):
        for n in ns:
            t_start = time.perf_counter()
            permanent_ryser(matrices[n])
            times[n].append(time.perf_counter() - t_start)
    best_times = []
    for n in ns:
        best = float(min(times[n]))
        best_times.append(best)
        cells.append(
            {
                "table": "single",
                "n": n,
                "seconds": best,
                "ratio_to_prev": float(best / best_times[-2]) if len(best_times) > 1 else None,
            }
        )
    fit: dict[str, float] = {}
    try:
        from scipy.optimize import curve_fit

        def model(n, a, b, c):
            return a * n * np.exp2(b * n) + c

        p0 = (best_times[0] / (ns[0] * 2.0 ** ns[0]), 1.0, 0.0)
        popt, _ = curve_fit(model, np.asarray(ns, dtype=float), np.asarray(best_times), p0=p0, maxfev=20000)
        fit = {"fit_a": float(popt[0]), "fit_b": float(popt[1]), "fit_c": float(popt[2])}
    except Exception:
        fit = {"fit_a": float("nan"), "fit_b": float("nan"), "fit_c": float("nan")}
    for c_idx, (modes, photons) in enumerate(tuple(tuple(c) for c in eff["cells"])):
        space = enumerate_configurations(modes, photons, limit=config.limit)
        u = haar_unitary(modes, rng)
        seed = space.configuration(int(space.collision_free_indices[0]))
        cf_rows = space.occupations[space.collision_free_indices]
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
    summary = {"repeats": repeats, "reference_flops": REFERENCE_FLOPS, **fit}
    return ExperimentReport(
        experiment=config.experiment,
        config=eff,
        started_at=started,
        wall_seconds=time.perf_counter() - t0,
        summary=summary,
        cells=cells,
    )


EXPERIMENTS: dict[str, Callable[[ExperimentConfig], ExperimentReport]] = {
    "mpb_seed_scan": run_mpb_seed_scan,
    "bin_fraction": run_bin_fraction,
    "pmax_histogram": run_pmax_histogram,
    "gap_fraction": run_gap_fraction,
    "collision": run_collision,
    "maxprob_scaling": run_maxprob_scaling,
    "ryser_benchmark": run_ryser_benchmark,
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    if config.experiment not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown experiment {config.experiment!r}; known: {known}")
    return EXPERIMENTS[config.experiment](config)
