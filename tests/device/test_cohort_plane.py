"""CohortExecutionPlane: deferred workloads, grouping, and trainer wiring."""

import numpy as np
import pytest

from repro.core.checkpoint import FLCheckpoint
from repro.core.config import ClientTrainingConfig, SecAggConfig, TaskKind
from repro.core.datasets import ClientDataset
from repro.core.plan import generate_plan
from repro.device.cohort import CohortExecutionPlane
from repro.device.example_store import ExampleStore
from repro.device.runtime import PendingTrainResult, RealTrainer
from repro.nn.models import MLPClassifier

MODEL = MLPClassifier(input_dim=6, hidden_dims=(5,), n_classes=3)
CONFIG = ClientTrainingConfig(epochs=2, batch_size=4, learning_rate=0.1)


def make_dataset(i, n=12, seed=3):
    rng = np.random.default_rng(seed + i)
    return ClientDataset(
        f"c{i}", rng.normal(size=(n, 6)), rng.integers(0, 3, size=n)
    )


def make_plan(kind=TaskKind.TRAINING):
    return generate_plan(
        task_id="t", kind=kind, client_config=CONFIG,
        secagg=SecAggConfig(), model_nbytes=64,
    )


def make_store(i, n=12, seed=3):
    d = make_dataset(i, n, seed)
    store = ExampleStore(ttl_s=None)
    store.add_batch(d.x, d.y, timestamp_s=0.0)
    return store


@pytest.fixture
def params():
    return MODEL.init(np.random.default_rng(1))


def test_enqueue_defers_and_resolve_executes(params):
    plane = CohortExecutionPlane(MODEL)
    handles = [
        plane.enqueue(make_dataset(i), params, CONFIG,
                      np.random.default_rng(10 + i), round_key=("pop", "t", 1))
        for i in range(4)
    ]
    assert plane.pending_count == 4
    assert plane.executions == 0
    assert all(h.num_examples == 12 and h.weight == 12.0 for h in handles)
    part = handles[2].resolve()          # first demand executes everyone
    assert plane.executions == 1
    assert plane.pending_count == 0
    assert plane.workloads_executed == 4
    assert plane.largest_cohort == 4
    assert part.steps == 6               # 2 epochs x 12/4
    # remaining handles resolve without another execution
    others = [h.resolve() for h in handles]
    assert plane.executions == 1
    assert all(p.num_examples == 12 for p in others)


def test_slices_are_rows_of_one_matrix(params):
    plane = CohortExecutionPlane(MODEL)
    handles = [
        plane.enqueue(make_dataset(i), params, CONFIG,
                      np.random.default_rng(20 + i), round_key=("pop", "t", 1))
        for i in range(3)
    ]
    parts = [h.resolve() for h in handles]
    bases = {id(p.delta_vector.base) for p in parts}
    assert len(bases) == 1 and None not in bases


def test_batching_does_not_change_numbers(params):
    """A workload's numbers are pinned at enqueue: executing it alone or
    with company yields the identical delta."""
    plane_a = CohortExecutionPlane(MODEL)
    solo = plane_a.enqueue(make_dataset(0), params, CONFIG,
                           np.random.default_rng(30), ("pop", "t", 1))
    solo_part = solo.resolve()

    plane_b = CohortExecutionPlane(MODEL)
    together = [
        plane_b.enqueue(make_dataset(i), params, CONFIG,
                        np.random.default_rng(30 + i), ("pop", "t", 1))
        for i in range(5)
    ]
    batched_part = together[0].resolve()
    assert np.array_equal(solo_part.delta_vector, batched_part.delta_vector)
    assert solo_part.mean_loss == batched_part.mean_loss


def test_groups_by_round_key_not_object_identity(params):
    """Two devices deserialize their own (equal) checkpoints; the plane
    must group them by round key and train both against one global."""
    plane = CohortExecutionPlane(MODEL)
    params_copy = params.copy()
    a = plane.enqueue(make_dataset(0), params, CONFIG,
                      np.random.default_rng(40), ("pop", "t", 7))
    b = plane.enqueue(make_dataset(1), params_copy, CONFIG,
                      np.random.default_rng(41), ("pop", "t", 7))
    a.resolve()
    assert plane.executions == 1         # one group, one tensor program
    assert b.executed


def test_distinct_rounds_execute_separately(params):
    plane = CohortExecutionPlane(MODEL)
    other_params = MODEL.init(np.random.default_rng(2))
    a = plane.enqueue(make_dataset(0), params, CONFIG,
                      np.random.default_rng(50), ("pop", "t", 1))
    b = plane.enqueue(make_dataset(1), other_params, CONFIG,
                      np.random.default_rng(51), ("pop", "t", 2))
    a.resolve()
    assert plane.executions == 2         # one per (round, config) group
    assert b.executed


def test_cancel_withdraws_unexecuted_workload(params):
    plane = CohortExecutionPlane(MODEL)
    doomed = plane.enqueue(make_dataset(0), params, CONFIG,
                           np.random.default_rng(60), ("pop", "t", 1))
    kept = plane.enqueue(make_dataset(1), params, CONFIG,
                         np.random.default_rng(61), ("pop", "t", 1))
    doomed.cancel()
    assert plane.pending_count == 1
    kept.resolve()
    assert plane.workloads_executed == 1
    with pytest.raises(RuntimeError, match="cancelled"):
        doomed.resolve()


def test_failed_group_fails_members_individually_not_others(params):
    """One bad workload fails its whole group per-device (each resolve
    raises), but other groups still execute."""
    plane = CohortExecutionPlane(MODEL)
    bad_data = ClientDataset(
        "bad", np.random.default_rng(0).normal(size=(12, 9)),  # wrong dim
        np.random.default_rng(0).integers(0, 3, size=12),
    )
    doomed_a = plane.enqueue(bad_data, params, CONFIG,
                             np.random.default_rng(90), ("pop", "t", 1))
    doomed_b = plane.enqueue(make_dataset(1), params, CONFIG,
                             np.random.default_rng(91), ("pop", "t", 1))
    fine = plane.enqueue(make_dataset(2), params, CONFIG,
                         np.random.default_rng(92), ("pop", "t", 2))
    part = fine.resolve()                 # other group unaffected
    assert part.num_examples == 12
    with pytest.raises(RuntimeError, match="cohort execution failed"):
        doomed_a.resolve()
    with pytest.raises(RuntimeError, match="cohort execution failed"):
        doomed_b.resolve()
    assert plane.pending_count == 0


def test_late_enqueue_forms_next_batch(params):
    plane = CohortExecutionPlane(MODEL)
    first = plane.enqueue(make_dataset(0), params, CONFIG,
                          np.random.default_rng(70), ("pop", "t", 1))
    first.resolve()
    late = plane.enqueue(make_dataset(1), params, CONFIG,
                         np.random.default_rng(71), ("pop", "t", 1))
    assert plane.pending_count == 1
    late.resolve()
    assert plane.executions == 2


# -- RealTrainer deferral ------------------------------------------------------


def make_checkpoint(params, round_number=1):
    return FLCheckpoint.from_params(params, "pop", "t", round_number)


def test_trainer_defer_matches_inline_train(params):
    """Deferred execution produces the same TrainResult the inline path
    would, given the same RNG stream."""
    checkpoint = make_checkpoint(params)
    inline = RealTrainer(model=MODEL, store=make_store(0))
    rng_inline = np.random.default_rng(80)
    expected = inline.train(make_plan(), checkpoint, 100.0, rng_inline)

    deferred = RealTrainer(model=MODEL, store=make_store(0))
    deferred.attach_cohort_plane(CohortExecutionPlane(MODEL))
    rng = np.random.default_rng(80)
    pending = deferred.defer(make_plan(), checkpoint, 100.0, rng)
    assert isinstance(pending, PendingTrainResult)
    assert pending.num_examples == expected.num_examples
    assert pending.train_compute_units == expected.train_compute_units
    result = pending.resolve()
    assert np.array_equal(result.delta_vector, expected.delta_vector)
    assert result.metrics == expected.metrics
    assert result.upload_nbytes == expected.upload_nbytes
    assert result.weight == expected.weight
    # deferral consumed the identical stream the inline session did
    assert rng.integers(1 << 30) == rng_inline.integers(1 << 30)


def test_defer_returns_none_without_plane(params):
    trainer = RealTrainer(model=MODEL, store=make_store(0))
    assert trainer.defer(make_plan(), make_checkpoint(params), 0.0,
                         np.random.default_rng(0)) is None


def test_defer_returns_none_for_eval_plans(params):
    trainer = RealTrainer(model=MODEL, store=make_store(0, n=30))
    trainer.attach_cohort_plane(CohortExecutionPlane(MODEL))
    plan = make_plan(kind=TaskKind.EVALUATION)
    assert trainer.defer(plan, make_checkpoint(params), 0.0,
                         np.random.default_rng(0)) is None


def test_defer_raises_on_empty_store(params):
    trainer = RealTrainer(model=MODEL, store=ExampleStore())
    trainer.attach_cohort_plane(CohortExecutionPlane(MODEL))
    with pytest.raises(RuntimeError, match="no data"):
        trainer.defer(make_plan(), make_checkpoint(params), 0.0,
                      np.random.default_rng(0))


def test_eval_single_forward_matches_two_pass(params):
    """The eval fast path (loss derived from the logits) is bitwise
    identical to calling model.loss and model.logits separately."""
    store = make_store(0, n=30)
    trainer = RealTrainer(model=MODEL, store=store)
    plan = make_plan(kind=TaskKind.EVALUATION)
    result = trainer.train(plan, make_checkpoint(params), 100.0,
                           np.random.default_rng(0))
    x, y = store.query(plan.device.selection_criteria, 100.0)
    assert result.metrics["eval_loss"] == MODEL.loss(params, x, y)
