import json

import numpy as np
import pytest

from bosonbin import rng as rng_policy
from bosonbin.binning import make_partition
from bosonbin.fock import FockSpace, enumerate_configurations, is_collision_free
from bosonbin.linalg import haar_unitary_from_seed
from bosonbin.problems import (
    FUNCTIONS,
    PREDICATES,
    ImageVector,
    ProblemInstance,
    decide,
    draw_problem_seeds,
    evaluate_images,
    instance_from_json,
    instance_to_json,
    joint_success_probability,
    solve_function,
)
from bosonbin.sampling import chernoff_sample_size

SEEDS_15_3 = (
    (1, 1, 1) + (0,) * 12,
    (0, 0, 3) + (0,) * 12,
    (0, 1, 0, 1, 0, 1) + (0,) * 9,
    (0, 0, 0, 0, 2, 0, 0, 1) + (0,) * 7,
    (1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0),
)


def make_instance(**overrides):
    params = dict(
        modes=15,
        photons=3,
        num_bins=4,
        seeds=SEEDS_15_3,
        y=(2,),
        kind="function",
        f_id="max",
        haar_seed=77,
    )
    params.update(overrides)
    return ProblemInstance(**params)


@pytest.mark.parametrize(
    "f_id,x,y,expected",
    [
        ("max", (0, 1, 3, 2), (), 3),
        ("min", (2, 1, 3), (), 1),
        ("sum", (1, 2, 3), (), 6),
        ("parity", (1, 2, 3), (), 0),
        ("parity", (1, 1, 1), (), 1),
        ("gcd", (4, 8), (9,), 3),
        ("gcd", (5, 10), (7,), 1),
    ],
)
def test_builtin_functions_on_synthetic_labels(f_id, x, y, expected):
    assert FUNCTIONS[f_id].fn(x, y, None) == expected


@pytest.mark.parametrize(
    "p_id,x,y,expected",
    [
        ("max_equals", (0, 1, 3), (3,), True),
        ("max_equals", (0, 1, 3), (2,), False),
        ("min_equals", (2, 1, 3), (1,), True),
        ("sum_greater", (1, 2, 3), (5,), True),
        ("sum_greater", (1, 2, 3), (6,), False),
        ("sum_even", (1, 2, 3), (), True),
        ("sum_even", (1, 1, 1), (), False),
        ("gcd_equals", (4, 8), (9, 3), True),
        ("gcd_equals", (4, 8), (9, 4), False),
    ],
)
def test_predicates_compose_registered_functions(p_id, x, y, expected):
    pred = PREDICATES[p_id]
    value = FUNCTIONS[pred.function_id].fn(x, y, None)
    assert pred.compare(value, y) is expected


def test_builtin_ids_name_their_specs():
    assert list(FUNCTIONS) == ["max", "min", "sum", "parity", "gcd", "indexed_outcome"]
    assert list(PREDICATES) == ["max_equals", "min_equals", "sum_greater", "sum_even", "gcd_equals"]
    assert all(spec.name == name for name, spec in {**FUNCTIONS, **PREDICATES}.items())
    assert all(pred.function_id in FUNCTIONS for pred in PREDICATES.values())


def test_indexed_outcome_dereferences_bins():
    inst = make_instance(f_id="indexed_outcome", y=(5, 1))
    images = ImageVector(labels=(0, 1, 1, 2, 1), diagnostics=(None,) * 5)
    space = enumerate_configurations(15, 3)
    part = make_partition(space.size, 4)
    # seed j=1 labels bin 1; entry i=5 inside that bin
    expected = int(space.codes[part.offsets[1] + 5])
    assert solve_function(inst, images) == expected
    for label, width in enumerate(part.widths):
        for i in (0, width - 1):
            inst = make_instance(f_id="indexed_outcome", y=(i, 0))
            images = ImageVector(labels=(label,) + (0,) * 4, diagnostics=(None,) * 5)
            assert solve_function(inst, images) == space.codes[part.offsets[label] + i]


def test_indexed_outcome_does_not_build_codes(monkeypatch):
    inst = make_instance(f_id="indexed_outcome", y=(5, 1))
    images = ImageVector(labels=(0, 1, 1, 2, 1), diagnostics=(None,) * 5)
    space = enumerate_configurations(15, 3)
    expected = space.codes[make_partition(space.size, 4).offsets[1] + 5]

    def refuse(*args, **kwargs):
        raise AssertionError("indexed_outcome enumerated the space")

    monkeypatch.setattr(FockSpace, "__init__", refuse)
    assert solve_function(inst, images) == expected


def test_indexed_outcome_range_checks():
    inst = make_instance(f_id="indexed_outcome", y=(10 ** 9, 0))
    images = ImageVector(labels=(0, 1, 1, 2, 1), diagnostics=(None,) * 5)
    with pytest.raises(ValueError, match="out of range"):
        solve_function(inst, images)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(photons=2),
        dict(num_bins=1),
        dict(num_bins=10 ** 6),
        dict(kind="oracle"),
        dict(f_id="no_such_function"),
        dict(kind="decision", f_id="max"),
        dict(seeds=()),
        dict(seeds=(SEEDS_15_3[0], SEEDS_15_3[0])),
        dict(seeds=((1, 1, 2) + (0,) * 12,)),  # wrong photon total
        dict(f_id="gcd", y=()),
        dict(f_id="indexed_outcome", y=(0, 7)),  # selector past the seed list
        dict(haar_seed=None),
        dict(unitary=haar_unitary_from_seed(15, 1)),  # both pinned
        dict(haar_seed=None, unitary=haar_unitary_from_seed(14, 1)),  # mode mismatch
    ],
)
def test_instance_validation_rejects(overrides):
    with pytest.raises(ValueError):
        make_instance(**overrides)


def test_instance_seed_budget_enforced():
    space = enumerate_configurations(6, 3)
    too_many = int(0.1 * space.size) + 1  # first count at or past the 10% cap
    seeds = draw_problem_seeds(space, too_many, rng_policy.generator(3))
    with pytest.raises(ValueError, match="too many"):
        ProblemInstance(
            modes=6,
            photons=3,
            num_bins=4,
            seeds=seeds,
            y=(),
            kind="function",
            f_id="sum",
            haar_seed=1,
        )


def test_instance_json_round_trip_haar_seed(tmp_path):
    inst = make_instance(kind="decision", f_id="max_equals")
    payload = instance_to_json(inst)
    text = json.dumps(payload)
    back = instance_from_json(json.loads(text))
    assert back.modes == inst.modes
    assert back.photons == inst.photons
    assert back.num_bins == inst.num_bins
    assert back.seeds == inst.seeds
    assert back.y == inst.y
    assert back.kind == inst.kind
    assert back.f_id == inst.f_id
    assert back.haar_seed == 77
    assert back.unitary is None


def test_instance_json_round_trip_explicit_unitary():
    u = haar_unitary_from_seed(15, 123)
    inst = make_instance(haar_seed=None, unitary=u)
    back = instance_from_json(json.loads(json.dumps(instance_to_json(inst))))
    assert back.haar_seed is None
    assert np.array_equal(back.unitary.matrix, u.matrix)  # bit-exact


def test_instance_from_json_rejects_foreign_payload():
    with pytest.raises(ValueError, match="problem-instance"):
        instance_from_json({"kind_of_file": "report"})


def test_pinned_image_vector_and_answers():
    inst = make_instance()
    images = evaluate_images(inst.resolve_unitary(), inst.seeds, inst.num_bins)
    assert images.labels == (0, 1, 1, 2, 1)
    assert solve_function(inst, images) == 2
    decision = make_instance(kind="decision", f_id="max_equals", y=(2,))
    assert decide(decision, images) is True
    assert decide(make_instance(kind="decision", f_id="max_equals", y=(3,)), images) is False


def test_kind_mismatch_rejected():
    inst = make_instance()
    images = evaluate_images(inst.resolve_unitary(), inst.seeds, inst.num_bins)
    with pytest.raises(ValueError, match="kind"):
        decide(inst, images)
    decision = make_instance(kind="decision", f_id="max_equals")
    with pytest.raises(ValueError, match="kind"):
        solve_function(decision, images)


def test_evaluate_images_thread_count_does_not_change_labels():
    inst = make_instance()
    u = inst.resolve_unitary()
    serial = evaluate_images(u, inst.seeds, inst.num_bins, threads=1)
    threaded = evaluate_images(u, inst.seeds, inst.num_bins, threads=2)
    assert serial.labels == threaded.labels
    assert serial.diagnostics == threaded.diagnostics


def test_evaluate_images_sampled_mode_is_seeded():
    inst = make_instance()
    u = inst.resolve_unitary()
    plan = chernoff_sample_size(4, 0.1, 0.0, 0.05, 0.0)
    a = evaluate_images(u, inst.seeds, 4, mode="sampled", plan=plan, rng=rng_policy.generator(5))
    b = evaluate_images(u, inst.seeds, 4, mode="sampled", plan=plan, rng=rng_policy.generator(5))
    assert a.labels == b.labels
    assert a.diagnostics == b.diagnostics
    # wide exact margins at this size, so the sampled labels match the exact ones
    exact = evaluate_images(u, inst.seeds, 4)
    assert a.labels == exact.labels


def test_evaluate_images_sampled_mode_requires_plan_and_rng():
    inst = make_instance()
    u = inst.resolve_unitary()
    plan = chernoff_sample_size(4, 0.1, 0.0, 0.05, 0.0)
    with pytest.raises(ValueError, match="sampled mode"):
        evaluate_images(u, inst.seeds, 4, mode="sampled", plan=plan)
    with pytest.raises(ValueError, match="sampled mode"):
        evaluate_images(u, inst.seeds, 4, mode="sampled", rng=rng_policy.generator(1))
    bad_plan = chernoff_sample_size(2, 0.1, 0.0, 0.05, 0.0)
    with pytest.raises(ValueError, match="bins"):
        evaluate_images(
            u, inst.seeds, 4, mode="sampled", plan=bad_plan, rng=rng_policy.generator(1)
        )
    with pytest.raises(ValueError, match="mode"):
        evaluate_images(u, inst.seeds, 4, mode="guess")


def test_joint_success_probability():
    assert joint_success_probability(0.8, 5) == pytest.approx(0.32768, rel=1e-12)
    assert joint_success_probability(1.0, 100) == 1.0
    assert joint_success_probability(0.0, 3) == 0.0
    with pytest.raises(ValueError):
        joint_success_probability(1.5, 2)
    with pytest.raises(ValueError):
        joint_success_probability(0.5, 0)
    with pytest.raises(ValueError):
        joint_success_probability(0.5, 2.0)


def test_draw_problem_seeds_distinct_and_seeded():
    space = enumerate_configurations(8, 3)
    a = draw_problem_seeds(space, 10, rng_policy.generator(4))
    b = draw_problem_seeds(space, 10, rng_policy.generator(4))
    assert a == b
    assert len(set(a)) == 10
    cf = draw_problem_seeds(space, 10, rng_policy.generator(4), collision_free_only=True)
    assert all(is_collision_free(s) for s in cf)
    with pytest.raises(ValueError):
        draw_problem_seeds(space, 0, rng_policy.generator(1))
    with pytest.raises(ValueError):
        draw_problem_seeds(space, space.size + 1, rng_policy.generator(1))


@pytest.mark.parametrize("seeds", [(), (SEEDS_15_3[0], (1,) * 4 + (0,) * 11)])
@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_evaluate_images_needs_seeds_of_one_photon_count(seeds, mode):
    plan = chernoff_sample_size(4, 0.1, 0.0, 0.05, 0.0)
    with pytest.raises(ValueError, match="one photon count"):
        evaluate_images(
            make_instance().resolve_unitary(), seeds, 4, mode=mode, plan=plan, rng=rng_policy.generator(1)
        )
