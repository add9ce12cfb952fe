"""Benchmark driver for bosonbin: runs the CLI the way users do, one
``python -m bosonbin.cli`` process per operation, one at a time (a closed
loop with one client), checks every output and prints the metrics.

    python3 perfbench/run.py --workload scan_boson_18x4 --seed 1 --seconds 55 --trace 0

Run it from the repository root; it imports the program from ``src/``.
With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run (see README.md).
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

# No operation uses more threads than its own --threads; set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import tracer  # noqa: E402  (after the BLAS settings: numpy loads below)
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
# import timings taken before the first call; one more follows every call
SETUP_SAMPLES_FIRST = 5
# calls of each kind per run at least, so every kind has a median of several
MIN_CALLS = 2
OP_TIME_LIMIT = 150.0
RUN_TIME_LIMIT = 170.0


def machine_record() -> dict:
    import numpy as np

    record = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "blas_threads": int(BLAS_THREADS),
        "loadavg_1m_start": os.getloadavg()[0],
    }
    try:
        with open("/proc/cpuinfo") as handle:
            record["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return record


class Runner:
    """Runs one workload's CLI calls and keeps their measurements."""

    def __init__(self, workload, workdir: Path, src: Path, deadline: float):
        self.workload = workload
        self.workdir = workdir
        self.deadline = deadline
        # Calls read and write bytecode in this run's own directory: a warm
        # cache, as an installed package has, but none left by an earlier run.
        self.env = dict(os.environ, PYTHONPATH=str(src),
                        PYTHONPYCACHEPREFIX=str(workdir / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.calls = 0
        self.failures: list[str] = []
        self.attempted = 0
        self.walls: dict[str, list[float]] = {}
        self.peak_rss_kb = 0
        self.dists = 0
        self.first_output: dict[str, object] = {}
        self.spans = workdir / "spans.jsonl"
        self.setup_walls: list[float] | None = None

    def process(self, argv: list[str], out_dir: Path) -> tuple[int, float, int]:
        """Run one process to completion; returns exit code, wall time and
        peak RSS (KiB) from the kernel's per-child accounting."""
        limit = min(OP_TIME_LIMIT, self.deadline - time.monotonic())
        with open(out_dir / "stdout", "wb") as out, open(out_dir / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=out_dir, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(limit, 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss

    def time_setup(self, samples: int) -> None:
        """Time fresh processes that import bosonbin.cli and exit.

        The first call also fills the bytecode cache, untimed. Later samples
        are taken between calls, so they spread over the whole run.
        """
        first = self.setup_walls is None
        if first:
            self.setup_walls = []
        argv = [sys.executable, "-c", "import bosonbin.cli"]
        for k in range(samples + first):
            rc, wall, _ = self.process(argv, self.workdir)
            if rc != 0:
                raise RuntimeError("importing bosonbin.cli failed: "
                                   + (self.workdir / "stderr").read_text()[-2000:])
            if k or not first:
                self.setup_walls.append(wall)

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAILED {message}", file=sys.stderr)

    def run_oracle(self) -> None:
        for k, check in enumerate(self.workload.oracle):
            self.attempted += 1
            try:
                problem = check()
            except Exception as exc:  # any error in the program is a failed check
                problem = f"{type(exc).__name__}: {exc}"
            if problem:
                self.fail(f"oracle spot check {k}: {problem}")

    def call(self, op, traced: bool) -> float:
        """One CLI call: run, time, then check its output. Returns its wall time."""
        self.attempted += 1
        self.calls += 1
        out_dir = self.workdir / f"call{self.calls}"
        out_dir.mkdir()
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(self.spans), str(self.calls), "--"]
        else:
            argv = [sys.executable, "-m", "bosonbin.cli"]
        argv += op.argv + (["--out", str(out_dir / "report")] if op.report else [])
        rc, wall, rss = self.process(argv, out_dir)
        self.peak_rss_kb = max(self.peak_rss_kb, rss)
        self.walls.setdefault(op.kind + ("+trace" if traced else ""), []).append(wall)
        try:
            if rc != 0:
                raise ValueError(f"exit code {rc}: " + (out_dir / "stderr").read_text()[-500:])
            if op.report:
                output = json.loads((out_dir / "report" / f"{op.report}.json").read_text())
            else:
                output = json.loads((out_dir / "stdout").read_text())
            problems = self.verdict(op, output)
        except (OSError, ValueError) as exc:
            problems = [str(exc)]
        if problems:
            self.fail(f"call {self.calls} ({op.kind}): " + "; ".join(problems))
        else:
            self.dists += op.dists
        shutil.rmtree(out_dir / "report", ignore_errors=True)
        if self.setup_walls is not None:
            self.time_setup(1)
        return wall

    def verdict(self, op, output) -> list[str]:
        """What is wrong with one call's output: its own checks, the recorded
        reference for this seed if there is one, and the first output of
        the same call in this run."""
        output = workloads.fingerprint(output)
        try:
            problems = op.check(output)
        except (LookupError, TypeError, AttributeError, ValueError) as exc:
            problems = [f"malformed output: {type(exc).__name__}: {exc}"]
        reference = (self.workload.reference or {}).get(op.kind)
        if reference is not None:
            found = workloads.difference(reference, output)
            if found:
                problems.append(f"differs from the recorded reference at {found}")
        if output != self.first_output.setdefault(op.kind, output):
            problems.append("differs from this run's first output of the same call")
        return problems


def measure(
    runner: Runner, seconds: float, trace: bool, min_calls: int = MIN_CALLS
) -> tuple[int, list[float], list[float]]:
    """Run the workload's calls in rounds for about ``seconds``.

    The first ``min_calls`` rounds always run. After them, a call starts
    only if half of the median call of its kind so far still fits in
    ``seconds``, so the calls fill the window on average and the last one
    overruns it by at most about half a call.
    A traced run alternates untraced and traced rounds, runs whole rounds
    only and at least one of each; it returns the count of traced rounds
    and the wall times of the untraced and traced rounds.
    """
    ops = runner.workload.ops
    start = time.monotonic()

    def fits(need: float) -> bool:
        now = time.monotonic()
        return need <= seconds - (now - start) and now < runner.deadline

    if not trace:
        for c in itertools.count():
            op = ops[c % len(ops)]
            if c >= min_calls * len(ops) and not fits(statistics.median(runner.walls[op.kind]) / 2):
                break
            runner.call(op, traced=False)
        return 0, [], []
    rounds: dict[bool, list[float]] = {False: [], True: []}
    for r in itertools.count():
        traced = r % 2 == 1
        if r >= 2 and not fits(rounds[traced][-1]):
            break
        rounds[traced].append(sum(runner.call(op, traced) for op in ops))
    return len(rounds[True]), rounds[False], rounds[True]


def end_to_end(runner: Runner) -> dict:
    wall = sum(sum(v) for v in runner.walls.values())
    answer = statistics.fmean(statistics.median(v) for v in runner.walls.values())
    return {
        "dists_per_s": {"value": runner.dists / wall, "unit": "1/s"},
        "answer_s": {"value": answer, "unit": "s"},
        "setup_s": {"value": statistics.median(runner.setup_walls), "unit": "s"},
        "peak_rss_mb": {"value": runner.peak_rss_kb / 1024, "unit": "MB"},
    }


def per_layer(runner: Runner, traced_rounds: int, plain: list[float], traced: list[float]) -> dict:
    spans, absent = tracer.read_spans(str(runner.spans)) if runner.spans.exists() else ([], set())
    if absent:
        print(f"absent from the program (reported as null): {sorted(absent)}", file=sys.stderr)
    values = tracer.layer_metrics(spans, absent, runner.workload.modules, traced_rounds)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in tracer.METRIC_SOURCES.items()}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(plain), "unit": "s"
    }
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--record", action="store_true",
                        help="write this seed's outputs as the reference (one round)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "bosonbin" / "cli.py").is_file():
        print(f"error: no bosonbin sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    # a terminated driver unwinds, so the running call is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_TIME_LIMIT
    machine = machine_record()
    scratch = root / ".bench_build" / "runs"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = workloads.build(args.workload, args.seed, workdir, smoke=args.smoke)
        if args.record:
            workload.reference = None
        runner = Runner(workload, workdir, src, deadline)
        runner.time_setup(SETUP_SAMPLES_FIRST)
        runner.run_oracle()
        if args.record:
            traced_rounds, plain, traced = measure(runner, 0.0, False, min_calls=1)
        else:
            traced_rounds, plain, traced = measure(runner, args.seconds, bool(args.trace))
        if args.trace:
            metrics = per_layer(runner, traced_rounds, plain, traced)
        else:
            metrics = end_to_end(runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.record and not runner.failures:
        path = workloads.reference_path(args.workload, args.seed)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(runner.first_output, indent=1, sort_keys=True) + "\n")
        print(f"recorded {path}", file=sys.stderr)

    failed = len(runner.failures)
    machine["loadavg_1m_end"] = os.getloadavg()[0]
    calls = {kind: [round(w, 3) for w in v] for kind, v in runner.walls.items()}
    print(json.dumps({"machine": machine, "call_walls_s": calls,
                      "reference_checked": workload.reference is not None,
                      "error_rate": {"value": failed / runner.attempted, "unit": "ratio"}}))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
