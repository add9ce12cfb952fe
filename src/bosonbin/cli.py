"""Command line front end.

Exit codes: 0 success, 2 invalid input, 3 capacity refusal, 4 internal
error. Every stochastic subcommand requires an explicit seed; there is no
silent fallback to nondeterminism.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .binning import make_partition
from .distribution import full_distribution
from .experiments import ExperimentConfig, EXPERIMENTS, run_experiment
from .fock import CapacityError, DEFAULT_ENUMERATION_LIMIT, parse_configuration
from .io import atomic_write_text, read_json
from .linalg import (
    UnitaryMatrix,
    haar_unitary_from_seed,
    identity_unitary,
    unitary_from_json,
)
from .problems import decide, evaluate_images, instance_from_json, solve_function
from .rng import _check, _check_int, generator
from .sampling import chernoff_sample_size, estimate_mpb


def _add_unitary_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--haar-seed", type=int, help="draw a Haar unitary from this seed")
    group.add_argument("--unitary-file", help="JSON file holding an explicit unitary")
    group.add_argument("--identity", action="store_true", help="use the identity interferometer")


def _resolve_unitary(args: argparse.Namespace, modes: int) -> UnitaryMatrix:
    if args.identity:
        return identity_unitary(modes)
    if args.unitary_file is not None:
        u = unitary_from_json(read_json(args.unitary_file))
        if u.modes != modes:
            raise ValueError(
                f"unitary has {u.modes} modes but the seed configuration has {modes}"
            )
        return u
    return haar_unitary_from_seed(modes, args.haar_seed)


def _add_budget_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=float, default=0.1, help="target bin-mass accuracy")
    parser.add_argument("--delta", type=float, default=0.0, help="systematic accuracy allowance")
    parser.add_argument("--eta", type=float, default=0.05, help="admissible failure probability")
    parser.add_argument("--gamma", type=float, default=0.0, help="systematic failure allowance")


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    print(text)
    if out:
        atomic_write_text(out, text + "\n")


def cmd_distribution(args: argparse.Namespace) -> int:
    seed = parse_configuration(args.seed_config, "--seed-config")
    unitary = _resolve_unitary(args, len(seed))
    dist = full_distribution(unitary, seed, statistics=args.statistics, limit=args.limit)
    dist.to_csv(args.out)
    print(f"wrote {args.out} ({dist.space.size} outcomes)")
    return 0


def cmd_mpb(args: argparse.Namespace) -> int:
    seed = parse_configuration(args.seed_config, "--seed-config")
    unitary = _resolve_unitary(args, len(seed))
    payload = {
        "schema_version": 1,
        "modes": len(seed),
        "photons": sum(seed),
        "bins": args.bins,
        "seed": args.seed_config,
        "unitary_tag": unitary.tag,
        "mode": args.mode,
    }
    if args.mode == "exact":
        result = evaluate_images(unitary, [seed], args.bins, limit=args.limit).diagnostics[0]
    else:
        if args.rng_seed is None:
            raise ValueError("sampled mode needs --rng-seed")
        dist = full_distribution(unitary, seed, limit=args.limit)
        partition = make_partition(dist.space.size, args.bins)
        plan = chernoff_sample_size(args.bins, args.epsilon, args.delta, args.eta, args.gamma)
        result, _ = estimate_mpb(dist, partition, plan, generator(args.rng_seed))
        payload.update(
            epsilon=plan.epsilon,
            delta=plan.delta,
            eta=plan.eta,
            gamma=plan.gamma,
            n_min=plan.n_min,
            rng_seed=args.rng_seed,
        )
    payload.update(asdict(result))
    _emit(payload, args.out)
    return 0


def cmd_problem(args: argparse.Namespace) -> int:
    instance = instance_from_json(read_json(args.instance))
    if args.solve and instance.kind != "function":
        raise ValueError(f"--solve needs a function instance, got kind {instance.kind!r}")
    if args.decide and instance.kind != "decision":
        raise ValueError(f"--decide needs a decision instance, got kind {instance.kind!r}")
    unitary = instance.resolve_unitary()
    plan = None
    rng = None
    if args.mode == "sampled":
        if args.rng_seed is None:
            raise ValueError("sampled mode needs --rng-seed")
        plan = chernoff_sample_size(
            instance.num_bins, args.epsilon, args.delta, args.eta, args.gamma
        )
        rng = generator(args.rng_seed)
    images = evaluate_images(
        unitary,
        instance.seeds,
        instance.num_bins,
        mode=args.mode,
        plan=plan,
        rng=rng,
        threads=args.threads,
        limit=args.limit,
    )
    if instance.kind == "function":
        answer: int | str = solve_function(instance, images)
    else:
        answer = "YES" if decide(instance, images) else "NO"
    payload = {
        "schema_version": 1,
        "kind": instance.kind,
        "f_id": instance.f_id,
        "modes": instance.modes,
        "photons": instance.photons,
        "bins": instance.num_bins,
        "unitary_tag": unitary.tag,
        "mode": args.mode,
        "y": list(instance.y),
        "labels": list(images.labels),
        "diagnostics": [asdict(r) for r in images.diagnostics],
        "answer": answer,
    }
    if plan is not None:
        payload["n_min"] = plan.n_min
        payload["rng_seed"] = args.rng_seed
    _emit(payload, args.out)
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    data = read_json(args.config) if args.config else {}
    _check("experiment config", data, {})
    data["experiment"] = args.experiment_id
    if args.master_seed is not None:
        data["master_seed"] = args.master_seed
    if "master_seed" not in data:
        raise ValueError("experiments need --master-seed (or master_seed in the config file)")
    if args.quick:
        data["quick"] = True
    if args.threads is not None:
        data["threads"] = args.threads
    if args.unitary_count is not None:
        data["unitary_count"] = args.unitary_count
    config = ExperimentConfig.from_json(data)
    report = run_experiment(config)
    for path in report.write(args.out):
        print(f"wrote {path}")
    print(f"{config.experiment}: {len(report.cells)} cells in {report.wall_seconds:.1f}s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonbin",
        description="Exact interferometer output distributions, binned decision problems, "
        "and their reproduction experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("distribution", help="write one exact output distribution as CSV")
    p_dist.add_argument("--seed-config", required=True, help='input occupations, e.g. "1,1,0,0"')
    _add_unitary_args(p_dist)
    p_dist.add_argument(
        "--statistics",
        default="boson",
        choices=["boson", "fermion", "distinguishable"],
        help="particle type",
    )
    p_dist.add_argument("--out", required=True, help="CSV output path")
    p_dist.add_argument("--limit", type=int, default=DEFAULT_ENUMERATION_LIMIT)
    p_dist.set_defaults(func=cmd_distribution)

    p_mpb = sub.add_parser("mpb", help="most probable bin of one seed's distribution")
    p_mpb.add_argument("--seed-config", required=True)
    _add_unitary_args(p_mpb)
    p_mpb.add_argument("--bins", type=int, required=True, help="number of contiguous bins")
    p_mpb.add_argument("--mode", default="exact", choices=["exact", "sampled"])
    _add_budget_args(p_mpb)
    p_mpb.add_argument("--rng-seed", type=int, help="sampling seed (required for --mode sampled)")
    p_mpb.add_argument("--out", help="also write the JSON result here")
    p_mpb.add_argument("--limit", type=int, default=DEFAULT_ENUMERATION_LIMIT)
    p_mpb.set_defaults(func=cmd_mpb)

    p_prob = sub.add_parser("problem", help="solve or decide a problem instance file")
    p_prob.add_argument("instance", help="problem instance JSON path")
    action = p_prob.add_mutually_exclusive_group()
    action.add_argument("--solve", action="store_true", help="assert the instance is a function problem")
    action.add_argument("--decide", action="store_true", help="assert the instance is a decision problem")
    p_prob.add_argument("--mode", default="exact", choices=["exact", "sampled"])
    _add_budget_args(p_prob)
    p_prob.add_argument("--rng-seed", type=int)
    p_prob.add_argument("--threads", type=int, default=1)
    p_prob.add_argument("--out", help="also write the JSON result here")
    p_prob.add_argument("--limit", type=int, default=DEFAULT_ENUMERATION_LIMIT)
    p_prob.set_defaults(func=cmd_problem)

    p_exp = sub.add_parser("experiment", help="run a named experiment and write its report")
    p_exp.add_argument("experiment_id", choices=sorted(EXPERIMENTS), help="experiment name")
    p_exp.add_argument("--config", help="JSON config file")
    p_exp.add_argument("--master-seed", type=int, help="master seed (required unless in config)")
    p_exp.add_argument("--out", required=True, help="output directory")
    p_exp.add_argument(
        "--quick", action="store_true", help="fewer unitaries; ryser_benchmark: smaller n, fewer repeats"
    )
    p_exp.add_argument("--threads", type=int)
    p_exp.add_argument("--unitary-count", type=int, help="override the unitary count (not ryser_benchmark)")
    p_exp.set_defaults(func=cmd_experiment)

    return parser


# Integer options checked before any work, by the name they are typed with.
OPTION_FLOORS = {"haar_seed": 0, "rng_seed": 0, "bins": 2, "limit": 1}


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    Without argv (``python -m bosonbin.cli`` and the installed script), it
    runs the process's own command line, flushes stdout and stderr and ends
    the process with ``os._exit``, skipping interpreter teardown, which
    frees every module and object and costs each call tens of milliseconds
    (README, CLI). Output that cannot be flushed turns a 0 into 2, as a
    failed write inside a command does.
    """
    if argv is not None:
        return _run(argv)
    code = _run(sys.argv[1:])
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = code or 2
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


def _run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for dest, least in OPTION_FLOORS.items():
            value = getattr(args, dest, None)
            if value is not None:
                _check_int("--" + dest.replace("_", "-"), value, least)
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
