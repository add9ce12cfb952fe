"""Function and decision problems built on most-probable-bin labels.

An instance fixes an interferometer, n seed configurations and a bin count.
The image vector x collects the most-probable-bin label of each seed's
output distribution; the problem then asks for f(x, y) (function kind) or a
predicate of it (decision kind). Decision predicates are composed from the
built-in functions, so the two kinds can never drift apart.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .binning import (
    MPBResult,
    bin_masses,
    exact_bin_masses,
    kernel_is_cheaper,
    make_partition,
    mpb_from_vector,
)
from .distribution import ParticleStatistics, full_distribution
from .fock import (
    DEFAULT_ENUMERATION_LIMIT,
    FockSpace,
    enumerate_configurations,
    format_configuration,
    integer_code,
    parse_configuration,
    space_size,
    unrank,
    validate_configuration,
)
from .linalg import (
    UnitaryMatrix,
    _as_matrix,
    haar_unitary_from_seed,
    unitary_from_json,
    unitary_to_json,
)
from .rng import _check_int, _thread_map
from .sampling import SamplePlan, estimate_mpb

MAX_SEED_FRACTION = 0.1


@dataclass(frozen=True)
class FunctionSpec:
    name: str
    fn: Callable[[tuple[int, ...], tuple[int, ...], "ProblemInstance"], int]
    min_y: int = 0


@dataclass(frozen=True)
class PredicateSpec:
    """A decision predicate: apply a built-in function, then compare."""

    name: str
    function_id: str
    compare: Callable[[int, tuple[int, ...]], bool]
    min_y: int = 0


def _f_max(x, y, instance):
    return max(x)


def _f_min(x, y, instance):
    return min(x)


def _f_sum(x, y, instance):
    return sum(x)


def _f_parity(x, y, instance):
    return sum(x) % 2


def _f_gcd(x, y, instance):
    return math.gcd(sum(x), y[0])


def _f_indexed_outcome(x, y, instance):
    """Integer code of the i-th configuration inside the bin labeled x[j]; y = (i, j)."""
    i, j = int(y[0]), int(y[1])
    if not 0 <= j < len(x):
        raise ValueError(f"seed selector j={j} out of range for {len(x)} seeds")
    label = x[j]
    partition = make_partition(space_size(instance.modes, instance.photons), instance.num_bins)
    width = partition.widths[label]
    if not 0 <= i < width:
        raise ValueError(f"offset i={i} out of range for bin {label} of width {width}")
    return integer_code(unrank(instance.modes, instance.photons, partition.offsets[label] + i))


FUNCTIONS: dict[str, FunctionSpec] = {
    "max": FunctionSpec("max", _f_max),
    "min": FunctionSpec("min", _f_min),
    "sum": FunctionSpec("sum", _f_sum),
    "parity": FunctionSpec("parity", _f_parity),
    "gcd": FunctionSpec("gcd", _f_gcd, min_y=1),
    "indexed_outcome": FunctionSpec("indexed_outcome", _f_indexed_outcome, min_y=2),
}

PREDICATES: dict[str, PredicateSpec] = {
    "max_equals": PredicateSpec("max_equals", "max", lambda v, y: v == y[0], min_y=1),
    "min_equals": PredicateSpec("min_equals", "min", lambda v, y: v == y[0], min_y=1),
    "sum_greater": PredicateSpec("sum_greater", "sum", lambda v, y: v > y[0], min_y=1),
    "sum_even": PredicateSpec("sum_even", "parity", lambda v, y: v == 0, min_y=0),
    "gcd_equals": PredicateSpec("gcd_equals", "gcd", lambda v, y: v == y[1], min_y=2),
}


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """One function or decision problem over most-probable-bin labels.

    Exactly one of haar_seed / unitary pins the interferometer. Seeds must
    be distinct and stay well below the space size (n < size / 10), keeping
    the map from seeds to labels effectively injective-in-practice.
    """

    modes: int
    photons: int
    num_bins: int
    seeds: tuple[tuple[int, ...], ...]
    y: tuple[int, ...]
    kind: str
    f_id: str
    haar_seed: int | None = None
    unitary: UnitaryMatrix | None = None

    def __post_init__(self) -> None:
        if self.photons <= 2:
            raise ValueError(f"instances need more than 2 photons, got {self.photons}")
        size = space_size(self.modes, self.photons)
        if not 2 <= self.num_bins <= size:
            raise ValueError(f"bin count {self.num_bins} invalid for space size {size}")
        if self.kind not in ("function", "decision"):
            raise ValueError(f"kind must be 'function' or 'decision', got {self.kind!r}")
        registry = FUNCTIONS if self.kind == "function" else PREDICATES
        if self.f_id not in registry:
            raise ValueError(f"unknown {self.kind} id {self.f_id!r}")
        object.__setattr__(
            self, "seeds", tuple(validate_configuration(s, self.modes, self.photons) for s in self.seeds)
        )
        object.__setattr__(self, "y", tuple(int(v) for v in self.y))
        if len(self.seeds) < 1:
            raise ValueError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if len(self.seeds) >= MAX_SEED_FRACTION * size:
            raise ValueError(
                f"{len(self.seeds)} seeds is too many for space size {size}; "
                f"the seed count must stay below {MAX_SEED_FRACTION:g} * size"
            )
        spec = registry[self.f_id]
        if len(self.y) < spec.min_y:
            raise ValueError(f"{self.f_id!r} needs at least {spec.min_y} ancillary integers")
        if self.f_id == "indexed_outcome":
            if not 0 <= self.y[1] < len(self.seeds):
                raise ValueError("indexed_outcome selector j must address a seed")
        if (self.haar_seed is None) == (self.unitary is None):
            raise ValueError("provide exactly one of haar_seed or an explicit unitary")
        if self.unitary is not None and self.unitary.modes != self.modes:
            raise ValueError(
                f"unitary has {self.unitary.modes} modes, instance declares {self.modes}"
            )

    def resolve_unitary(self) -> UnitaryMatrix:
        if self.unitary is not None:
            return self.unitary
        return haar_unitary_from_seed(self.modes, self.haar_seed)


@dataclass(frozen=True)
class ImageVector:
    """Most-probable-bin labels of each seed, with per-seed diagnostics."""

    labels: tuple[int, ...]
    diagnostics: tuple[MPBResult, ...]


def evaluate_images(
    unitary: Any,
    seeds: Sequence[Sequence[int]],
    num_bins: int,
    mode: str = "exact",
    plan: SamplePlan | None = None,
    rng: np.random.Generator | None = None,
    statistics: "str | ParticleStatistics" = ParticleStatistics.BOSON,
    threads: int = 1,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> ImageVector:
    """MPB label of every seed's output distribution.

    mode "exact" reads labels off `exact_bin_masses`, without enumerating
    the space, unless `kernel_is_cheaper`: then, as in mode "sampled", the
    space is enumerated once at `limit` and every seed runs the kernel over
    it. "sampled" draws plan.n_min runs per seed (child generators split by
    seed index, so the result is independent of thread scheduling).
    """
    if mode not in ("exact", "sampled"):
        raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    _check_int("threads", threads, 1)
    photons = {sum(int(v) for v in seed) for seed in seeds}
    if len(photons) != 1:
        raise ValueError(f"seeds must share one photon count, got {sorted(photons) or 'no seeds'}")
    modes, photon_count = _as_matrix(unitary).shape[0], photons.pop()
    stats = ParticleStatistics.from_string(statistics)
    if mode == "sampled":
        if plan is None or rng is None:
            raise ValueError("sampled mode needs a SamplePlan and a generator")
        if plan.num_bins != num_bins:
            raise ValueError(f"plan covers {plan.num_bins} bins, requested {num_bins}")
        children = rng.spawn(len(seeds))
    kernel = mode == "sampled" or kernel_is_cheaper(modes, photon_count, num_bins, stats, limit)
    if kernel:
        space = enumerate_configurations(modes, photon_count, limit=limit)
        partition = make_partition(space.size, num_bins)
    results: list[MPBResult | None] = [None] * len(seeds)

    def work(i: int) -> None:
        if not kernel:
            masses = exact_bin_masses(unitary, seeds[i], num_bins, statistics=stats, limit=limit)
            results[i] = mpb_from_vector(masses)
            return
        dist = full_distribution(unitary, seeds[i], statistics=stats, space=space)
        if mode == "exact":
            results[i] = mpb_from_vector(bin_masses(dist.probabilities, partition))
        else:
            results[i], _ = estimate_mpb(dist, partition, plan, children[i])

    _thread_map(work, len(seeds), threads)
    diagnostics = tuple(results)  # type: ignore[arg-type]
    return ImageVector(labels=tuple(r.label for r in diagnostics), diagnostics=diagnostics)


def solve_function(instance: ProblemInstance, images: ImageVector) -> int:
    """Function value of the instance at the image vector."""
    if instance.kind != "function":
        raise ValueError(f"instance kind is {instance.kind!r}, expected 'function'")
    return int(FUNCTIONS[instance.f_id].fn(images.labels, instance.y, instance))


def decide(instance: ProblemInstance, images: ImageVector) -> bool:
    """Decision answer; by construction the predicate applied to the function value."""
    if instance.kind != "decision":
        raise ValueError(f"instance kind is {instance.kind!r}, expected 'decision'")
    pred = PREDICATES[instance.f_id]
    value = FUNCTIONS[pred.function_id].fn(images.labels, instance.y, instance)
    return bool(pred.compare(value, instance.y))


def joint_success_probability(p_col: float, seed_count: int) -> float:
    """Probability that all seeds label consistently, assuming independence."""
    if not 0.0 <= p_col <= 1.0:
        raise ValueError(f"p_col must lie in [0, 1], got {p_col}")
    if not isinstance(seed_count, (int, np.integer)) or seed_count < 1:
        raise ValueError(f"seed_count must be a positive integer, got {seed_count}")
    return float(p_col) ** int(seed_count)


def draw_problem_seeds(
    space: FockSpace,
    count: int,
    rng: np.random.Generator,
    collision_free_only: bool = False,
) -> tuple[tuple[int, ...], ...]:
    """Draw `count` distinct seed configurations uniformly, without replacement."""
    pool = space.collision_free_indices if collision_free_only else np.arange(space.size)
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > len(pool):
        raise ValueError(f"cannot draw {count} distinct seeds from {len(pool)} candidates")
    picks = rng.choice(len(pool), size=count, replace=False)
    return tuple(space.configuration(int(pool[i])) for i in picks)


def instance_to_json(instance: ProblemInstance) -> dict:
    payload: dict[str, Any] = {
        "schema_version": 1,
        "kind_of_file": "problem_instance",
        "modes": instance.modes,
        "photons": instance.photons,
        "num_bins": instance.num_bins,
        "kind": instance.kind,
        "f_id": instance.f_id,
        "y": list(instance.y),
        "seeds": [format_configuration(s) for s in instance.seeds],
    }
    if instance.haar_seed is not None:
        payload["haar_seed"] = instance.haar_seed
    else:
        payload["unitary"] = unitary_to_json(instance.unitary)
    return payload


def instance_from_json(data: dict) -> ProblemInstance:
    if data.get("kind_of_file") != "problem_instance":
        raise ValueError("not a problem-instance payload")
    unitary = None
    if "unitary" in data:
        unitary = unitary_from_json(data["unitary"])
    return ProblemInstance(
        modes=int(data["modes"]),
        photons=int(data["photons"]),
        num_bins=int(data["num_bins"]),
        seeds=tuple(parse_configuration(s) for s in data["seeds"]),
        y=tuple(int(v) for v in data.get("y", [])),
        kind=str(data["kind"]),
        f_id=str(data["f_id"]),
        haar_seed=data.get("haar_seed"),
        unitary=unitary,
    )
