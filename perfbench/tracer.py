"""Traced CLI launcher and span analysis for the bosonbin benchmark.

Run as a script, it wraps the names each bosonbin module imports from the
layer below with timing wrappers, calls ``bosonbin.cli.main(argv)`` in this
one process, writes one JSON line per span to a file and exits with the
CLI's return code:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.jsonl RUN_ID -- problem inst.json --solve

Imported, it turns those span files into per-layer metrics
(``layer_metrics``). The program itself is never edited: only module
attributes are replaced, in this process, before ``main`` runs.
"""
from __future__ import annotations

import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable

# (module, attribute, layer). The attribute is looked up by the calling
# module at call time, so replacing it there times every call from that
# module into the layer below.
WRAPPED = (
    ("bosonbin.cli", "run_experiment", "experiments"),
    ("bosonbin.cli", "evaluate_images", "problems"),
    ("bosonbin.cli", "decide", "problems"),
    ("bosonbin.cli", "solve_function", "problems"),
    ("bosonbin.cli", "read_json", "io.read"),
    ("bosonbin.experiments", "enumerate_configurations", "fock"),
    ("bosonbin.experiments", "haar_unitary", "linalg"),
    ("bosonbin.experiments", "_batch_probabilities", "distribution"),
    ("bosonbin.experiments", "make_partition", "binning"),
    ("bosonbin.experiments", "write_json", "io.write"),
    ("bosonbin.experiments", "atomic_write_text", "io.write"),
    ("bosonbin.problems", "enumerate_configurations", "fock"),
    ("bosonbin.problems", "haar_unitary_from_seed", "linalg"),
    ("bosonbin.problems", "full_distribution", "distribution"),
    ("bosonbin.problems", "make_partition", "binning"),
    ("bosonbin.problems", "bin_probabilities", "binning"),
    ("bosonbin.problems", "most_probable_bin", "binning"),
    ("bosonbin.problems", "estimate_mpb", "sampling"),
    ("bosonbin.sampling", "draw_outcomes", "sampling"),
)
MAIN = ("bosonbin.cli", "main", "cli")


# Each ATTRS function gets ``call()``, which returns the call's arguments
# by parameter name, and the call's result; it returns the span's counts.
def _file_bytes(call, result) -> dict[str, Any]:
    return {"bytes": os.path.getsize(call()["path"])}


def _space_counts(space, statistics: str, dists: int) -> dict[str, Any]:
    attrs = {"stats": statistics, "dists": dists, "size": space.size, "photons": space.photons}
    if statistics == "fermion":
        attrs["cf"] = len(space.collision_free_indices)
    return attrs


def _batch_attrs(call, result) -> dict[str, Any]:
    a = call()
    return _space_counts(a["space"], a["statistics"].value, len(a["seed_indices"]))


def _dist_attrs(call, result) -> dict[str, Any]:
    return _space_counts(result.space, result.statistics.value, 1)


def _draw_attrs(call, result) -> dict[str, Any]:
    a = call()
    method = a["method"]
    if method == "auto":
        threshold = getattr(sys.modules["bosonbin.sampling"], "ALIAS_METHOD_THRESHOLD", 1 << 16)
        method = "alias" if a["dist"].space.size > threshold else "cumulative"
    return {"draws": int(a["runs"]), "method": method}


ATTRS: dict[str, Callable[..., dict[str, Any]]] = {
    "enumerate_configurations": lambda call, r: {"configs": r.size},
    "_batch_probabilities": _batch_attrs,
    "full_distribution": _dist_attrs,
    "draw_outcomes": _draw_attrs,
    "run_experiment": lambda call, r: {"cells": len(r.cells)},
    "evaluate_images": lambda call, r: {"seeds": len(r.labels)},
    "read_json": _file_bytes,
    "write_json": _file_bytes,
    "atomic_write_text": _file_bytes,
}


class Recorder:
    """Spans of one traced CLI process, kept in memory until it exits.

    A span's parent is the innermost open span of its own thread. A span
    opened on a pool thread, whose own stack is empty, attaches to the
    innermost open span of the thread that called ``main`` (the enclosing
    ``run_experiment`` or ``evaluate_images``).
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict[str, Any]] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        attrs_fn = ATTRS.get(name.rsplit(".", 1)[1])
        signature = inspect.signature(fn)

        def arguments(args: tuple, kwargs: dict) -> dict[str, Any]:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            with self._lock:
                span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = {"id": span_id, "parent": parent, "name": name, "layer": layer,
                    "start": start, "end": end, "run": self.run_id}
            if attrs_fn is not None:
                try:
                    span.update(attrs_fn(lambda: arguments(args, kwargs), result))
                except Exception as exc:  # a changed signature loses counts, not the run
                    span["attr_error"] = f"{type(exc).__name__}: {exc}"
            with self._lock:
                self.spans.append(span)
            return result

        return traced

    def install(self) -> Callable:
        """Wrap every name in WRAPPED that exists; return the wrapped main."""
        for module_name, attr, layer in WRAPPED:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            setattr(module, attr, self.wrap(fn, name, layer))
        module_name, attr, layer = MAIN
        return self.wrap(getattr(importlib.import_module(module_name), attr), f"{module_name}.{attr}", layer)

    def write(self, path: str) -> None:
        with open(path, "a") as handle:
            handle.write(json.dumps({"run": self.run_id, "absent": self.absent}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def read_spans(path: str) -> tuple[list[dict[str, Any]], set[str]]:
    """Spans and absent names from a span file written by one or more runs."""
    spans, absent = [], set()
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if "absent" in record:
                absent.update(record["absent"])
            else:
                spans.append(record)
    return spans, absent


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[dict[str, Any]]) -> dict[tuple[str, int], float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[tuple[str, int], list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["run"], s["parent"]), []).append((s["start"], s["end"]))
    return {
        (s["run"], s["id"]): s["end"] - s["start"]
        - _covered(s["start"], s["end"], children.get((s["run"], s["id"]), []))
        for s in spans
    }


# metric -> (unit, source names the metric is computed from)
_EXP, _PROB = "bosonbin.experiments", "bosonbin.problems"
METRIC_SOURCES: dict[str, tuple[str, tuple[str, ...]]] = {
    "fock.enumerate_s": ("s", (f"{_EXP}.enumerate_configurations", f"{_PROB}.enumerate_configurations")),
    "fock.spaces": ("count", (f"{_EXP}.enumerate_configurations", f"{_PROB}.enumerate_configurations")),
    "fock.configs": ("count", (f"{_EXP}.enumerate_configurations", f"{_PROB}.enumerate_configurations")),
    "linalg.unitary_s": ("s", (f"{_EXP}.haar_unitary", f"{_PROB}.haar_unitary_from_seed")),
    "linalg.unitaries": ("count", (f"{_EXP}.haar_unitary", f"{_PROB}.haar_unitary_from_seed")),
    **{
        f"distribution.{k}": (unit, (f"{_EXP}._batch_probabilities", f"{_PROB}.full_distribution"))
        for k, unit in (
            ("kernel_s", "s"), ("calls", "count"), ("dists", "count"), ("outcomes", "count"),
            ("outcomes_per_s", "1/s"), ("boson_s", "s"), ("fermion_s", "s"),
            ("distinguishable_s", "s"), ("ops_computed", "count"), ("bytes_computed", "B"),
        )
    },
    **{
        f"binning.{k}": (unit, (f"{_EXP}.make_partition", f"{_PROB}.make_partition",
                                f"{_PROB}.bin_probabilities", f"{_PROB}.most_probable_bin"))
        for k, unit in (("s", "s"), ("calls", "count"))
    },
    **{
        f"sampling.{k}": (unit, ("bosonbin.sampling.draw_outcomes",))
        for k, unit in (("draw_s", "s"), ("draws", "count"), ("draws_per_s", "1/s"),
                        ("alias_calls", "count"), ("cumulative_calls", "count"))
    },
    **{
        f"problems.{k}": (unit, ("bosonbin.cli.evaluate_images",))
        for k, unit in (("self_s", "s"), ("instances", "count"), ("seeds", "count"))
    },
    **{
        f"experiments.{k}": (unit, ("bosonbin.cli.run_experiment",))
        for k, unit in (("self_s", "s"), ("concurrency", "ratio"), ("cells", "count"))
    },
    "io.write_s": ("s", (f"{_EXP}.write_json", f"{_EXP}.atomic_write_text")),
    "io.read_s": ("s", ("bosonbin.cli.read_json",)),
    "io.bytes_written": ("B", (f"{_EXP}.write_json", f"{_EXP}.atomic_write_text")),
    "cli.self_s": ("s", ("bosonbin.cli.main",)),
}


def _kernel_ops(s: dict[str, Any]) -> float:
    n = s["photons"]
    if s["stats"] == "fermion":
        return s["dists"] * s["cf"] * n**3
    return s["dists"] * n * (2**n - 1) * s["size"]


def _kernel_bytes(s: dict[str, Any]) -> float:
    n = s["photons"]
    if s["stats"] == "fermion":  # one stack of N x N complex matrices per seed
        return s["cf"] * n * n * 16
    itemsize = 8 if s["stats"] == "distinguishable" else 16
    return s["size"] * s["dists"] * (2**n - 1) * itemsize


def layer_metrics(
    spans: list[dict[str, Any]], absent: set[str], modules: tuple[str, ...], rounds: int
) -> dict[str, float | None]:
    """Per-layer metrics per round of the workload (sums over its traced ops,
    divided by the number of traced rounds). A metric whose every source name
    in the workload's modules is absent from the program is None."""
    selfs = self_times(spans)
    by_layer: dict[str, list[dict[str, Any]]] = {}
    for s in spans:
        by_layer.setdefault(s["layer"], []).append(s)

    def dur(layer: str, pred: Callable[[dict], bool] = lambda s: True) -> float:
        return sum(s["end"] - s["start"] for s in by_layer.get(layer, []) if pred(s))

    def total(layer: str, key: str, pred: Callable[[dict], bool] = lambda s: True) -> float:
        return sum(s.get(key, 0) for s in by_layer.get(layer, []) if pred(s))

    def count(layer: str, pred: Callable[[dict], bool] = lambda s: True) -> int:
        return sum(1 for s in by_layer.get(layer, []) if pred(s))

    def self_sum(layer: str) -> float:
        return sum(selfs[(s["run"], s["id"])] for s in by_layer.get(layer, []))

    kernel = by_layer.get("distribution", [])
    kernel_s = dur("distribution")
    outcomes = sum(s.get("dists", 0) * s.get("size", 0) for s in kernel)
    draws, draw_s = total("sampling", "draws"), dur("sampling", lambda s: s["name"].endswith("draw_outcomes"))
    exp_spans = by_layer.get("experiments", [])
    exp_children: dict[tuple[str, int], float] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["run"], s["parent"])
            exp_children[key] = exp_children.get(key, 0.0) + s["end"] - s["start"]
    exp_wall = sum(s["end"] - s["start"] for s in exp_spans)
    per_round = {
        "fock.enumerate_s": dur("fock"),
        "fock.spaces": count("fock"),
        "fock.configs": total("fock", "configs"),
        "linalg.unitary_s": dur("linalg"),
        "linalg.unitaries": count("linalg"),
        "distribution.kernel_s": kernel_s,
        "distribution.calls": len(kernel),
        "distribution.dists": total("distribution", "dists"),
        "distribution.outcomes": outcomes,
        "distribution.boson_s": dur("distribution", lambda s: s.get("stats") == "boson"),
        "distribution.fermion_s": dur("distribution", lambda s: s.get("stats") == "fermion"),
        "distribution.distinguishable_s": dur(
            "distribution", lambda s: s.get("stats") == "distinguishable"
        ),
        "distribution.ops_computed": sum(_kernel_ops(s) for s in kernel if "stats" in s),
        "binning.s": dur("binning"),
        "binning.calls": count("binning"),
        "sampling.draw_s": draw_s,
        "sampling.draws": draws,
        "sampling.alias_calls": count("sampling", lambda s: s.get("method") == "alias"),
        "sampling.cumulative_calls": count("sampling", lambda s: s.get("method") == "cumulative"),
        "problems.self_s": self_sum("problems"),
        "problems.instances": count("problems", lambda s: s["name"].endswith("evaluate_images")),
        "problems.seeds": total("problems", "seeds"),
        "experiments.self_s": self_sum("experiments"),
        "experiments.cells": total("experiments", "cells"),
        "io.write_s": dur("io.write"),
        "io.read_s": dur("io.read"),
        "io.bytes_written": total("io.write", "bytes"),
        "cli.self_s": self_sum("cli"),
    }
    metrics: dict[str, float | None] = {k: v / rounds for k, v in per_round.items()}
    # ratios and maxima are not divided by the round count
    metrics["distribution.outcomes_per_s"] = outcomes / kernel_s if kernel_s else 0.0
    metrics["distribution.bytes_computed"] = max(
        (_kernel_bytes(s) for s in kernel if "stats" in s), default=0
    )
    metrics["sampling.draws_per_s"] = draws / draw_s if draw_s else 0.0
    metrics["experiments.concurrency"] = (
        sum(exp_children.get((s["run"], s["id"]), 0.0) for s in exp_spans) / exp_wall
        if exp_wall else 0.0
    )
    for name, (_, sources) in METRIC_SOURCES.items():
        in_play = [src for src in sources if src.rsplit(".", 1)[0] in modules]
        if in_play and all(src in absent for src in in_play):
            metrics[name] = None
    return metrics


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS.jsonl RUN_ID -- CLI_ARGS...", file=sys.stderr)
        return 2
    recorder = Recorder(argv[1])
    cli_main = recorder.install()
    try:
        return cli_main(argv[3:])
    finally:
        recorder.write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
