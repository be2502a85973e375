"""The four benchmark workloads, built only from picklable parts.

Every builder takes the benchmark's ``--seed`` (the device count is a
keyword only the tests shrink), so the same seed always yields the same
fleet and the same trajectory.  Trainer factories are module-level
(``SyntheticTrainerFactory`` or :class:`TeacherTrainerFactory`), never
closures, so every workload can be snapshotted and restored.  The
parameters match the ``tools/perf.py`` operating points they are named
after, so numbers stay comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import FLFleet, FaultPlan
from repro.actors.coordinator import CoordinatorConfig
from repro.core.config import (
    ClientTrainingConfig,
    RoundConfig,
    SecAggConfig,
    TaskConfig,
)
from repro.core.pace import PaceConfig
from repro.device.example_store import ExampleStore
from repro.device.runtime import RealTrainer
from repro.device.scheduler import JobSchedule
from repro.nn.models import LogisticRegression, MLPClassifier, Model
from repro.sim.diurnal import DiurnalModel
from repro.sim.population import DeviceProfile, PopulationConfig
from repro.system import (
    ActorCrashSchedule,
    CheckpointFaultConfig,
    DeviceInterruptSchedule,
    MessageFaultConfig,
    SyntheticTrainerFactory,
)

HOUR = 3600.0
DAY = 24 * HOUR


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to build it and how far to run it.

    ``window_s`` is advanced in ``slices`` equal ``run_for`` calls; the
    slicing never changes the trajectory (the event loop is resumable),
    it only gives the per-slice latency distribution its samples.
    ``model`` makes the populations' model, to score the committed one.
    """

    name: str
    build: Callable[[int], FLFleet]
    model: Callable[[], Model]
    window_s: float
    slices: int
    #: Times each child repeats report, snapshot and restore, in that
    #: order: enough for about a second of each on an uncontended host,
    #: at least once.  Fixed counts, so peak memory does not depend on
    #: the host's speed.
    repeats: tuple[int, int, int]
    #: Trains a real model, so ``eval_loss`` must beat the initial model.
    trains: bool = False

    @property
    def slice_s(self) -> float:
        return self.window_s / self.slices


# -- teacher-labelled data -------------------------------------------------------

TEACHER_DIM = 32
TEACHER_CLASSES = 8
EXAMPLES_PER_DEVICE = 160  # the store's 80% training split is 128
HOLDOUT_EXAMPLES = 2000


def teacher_weights(input_dim: int, n_classes: int) -> np.ndarray:
    """A fixed linear teacher (labels = argmax x @ W), the same for every
    seed, so ``eval_loss`` compares across seeds."""
    rng = np.random.default_rng([0x7EAC, input_dim, n_classes])
    return rng.normal(size=(input_dim, n_classes))


def teacher_examples(
    weights: np.ndarray, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    x = rng.normal(size=(n, weights.shape[0]))
    return x, np.argmax(x @ weights, axis=1)


def holdout_set(input_dim: int, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([0x401D, input_dim, n_classes])
    return teacher_examples(
        teacher_weights(input_dim, n_classes), HOLDOUT_EXAMPLES, rng
    )


@dataclass(frozen=True)
class TeacherTrainerFactory:
    """Per-device ``RealTrainer`` over examples drawn from the teacher.

    Each device's data comes from its own ``(seed, device_id)`` stream,
    so the factory is deterministic and order-independent, and — being a
    frozen module-level dataclass — picklable.
    """

    model: MLPClassifier
    weights: np.ndarray
    seed: int

    def __call__(self, profile: DeviceProfile) -> RealTrainer:
        rng = np.random.default_rng([self.seed, 0xDA7A, profile.device_id])
        x, y = teacher_examples(self.weights, EXAMPLES_PER_DEVICE, rng)
        store = ExampleStore(ttl_s=None)
        store.add_batch(x, y, timestamp_s=0.0)
        return RealTrainer(model=self.model, store=store)


def cohort_model() -> MLPClassifier:
    return MLPClassifier(
        input_dim=TEACHER_DIM, hidden_dims=(64,), n_classes=TEACHER_CLASSES
    )


def small_mlp() -> MLPClassifier:
    """The synthetic-trainer workloads' model (as in ``tools/perf.py``)."""
    return MLPClassifier(input_dim=16, hidden_dims=(16,), n_classes=4)


def chaos_model() -> LogisticRegression:
    return LogisticRegression(input_dim=4, n_classes=2)


def initial_params(model: Model):
    return model.init(np.random.default_rng(0))


def eval_loss(model: Model, params_by_population) -> float:
    """Mean holdout cross-entropy of the populations' committed models on
    the fixed teacher matching the model's shape."""
    x, y = holdout_set(model.input_dim, model.num_classes)
    return float(np.mean([model.loss(p, x, y) for p in params_by_population]))


# -- builders -------------------------------------------------------------------


def build_idle_fleet(seed: int, devices: int = 20_000) -> FLFleet:
    """``tools/perf.py::_build_scale_fleet`` at 20k devices, vectorized
    idle plane: the idle majority and O(devices) lifecycle steps."""
    params = initial_params(small_mlp())
    task = TaskConfig(
        task_id="scale",
        population_name="pop",
        round_config=RoundConfig(target_participants=20),
    )
    return (
        FLFleet.builder()
        .seed(seed)
        .devices(PopulationConfig(num_devices=devices))
        .idle_plane("vectorized")
        .selectors(1)
        .coordinator(CoordinatorConfig(pipelining=False, inter_round_gap_s=2700.0))
        .pace(PaceConfig(round_period_s=2700.0, small_population_threshold=500,
                         max_reconnect_delay_s=43200.0))
        .job(JobSchedule(10800.0, 0.5))
        .waiting_timeout(3600.0)
        .sample_interval(60.0)
        .population("pop", tasks=[task], model=params,
                    trainer_factory=SyntheticTrainerFactory(params.num_parameters))
        .build()
    )


def build_tenant_control(seed: int, devices: int = 2000) -> FLFleet:
    """The ``2000x12@4`` cell of ``fleet_scale_sharded``: 12 tenants over
    every device, 32 Selectors in 4 shards, 1 s Coordinator ticks."""
    params = initial_params(small_mlp())
    factory = SyntheticTrainerFactory(params.num_parameters)
    builder = (
        FLFleet.builder()
        .seed(seed)
        .devices(PopulationConfig(num_devices=devices))
        .selectors(32)
        .selector_shards(4)
        .device_scheduler("fifo")
        .coordinator(CoordinatorConfig(
            tick_interval_s=1.0, pipelining=False, inter_round_gap_s=900.0,
        ))
        .job(JobSchedule(7200.0, 0.5))
        .waiting_timeout(1800.0)
        .sample_interval(300.0)
    )
    for t in range(12):
        name = f"tenant{t:02d}"
        task = TaskConfig(
            task_id=f"train/{name}",
            population_name=name,
            round_config=RoundConfig(target_participants=10),
        )
        builder = builder.population(
            name, tasks=[task], model=params, trainer_factory=factory
        )
    return builder.build()


def build_cohort_training(seed: int, devices: int = 500) -> FLFleet:
    """A real MLP (32->64->8) trained on the cohort plane, 50-device
    rounds, flat availability, teacher-labelled data."""
    model = cohort_model()
    task = TaskConfig(
        task_id="teacher",
        population_name="pop",
        round_config=RoundConfig(target_participants=50),
        client_config=ClientTrainingConfig(
            epochs=2, batch_size=16, learning_rate=0.1
        ),
    )
    return (
        FLFleet.builder()
        .seed(seed)
        .devices(PopulationConfig(num_devices=devices))
        .job(JobSchedule(600.0, 0.5))
        .diurnal(DiurnalModel(amplitude=0.0, base_eligible_fraction=0.7,
                              mean_eligible_minutes=240.0))
        .population(
            "pop", tasks=[task], model=initial_params(model),
            trainer_factory=TeacherTrainerFactory(
                model, teacher_weights(TEACHER_DIM, TEACHER_CLASSES), seed
            ),
        )
        .build()
    )


def chaos_plan() -> FaultPlan:
    """The fault plan of ``examples/fault_injection.py``."""
    return FaultPlan(
        crashes=(
            ActorCrashSchedule("selector", mean_interval_s=3600.0),
            ActorCrashSchedule("coordinator", mean_interval_s=5400.0),
            ActorCrashSchedule("master_aggregator", mean_interval_s=2700.0),
            ActorCrashSchedule("aggregator", mean_interval_s=2700.0),
        ),
        messages=MessageFaultConfig(
            drop_prob=0.01, delay_prob=0.02, delay_mean_s=2.0
        ),
        checkpoint=CheckpointFaultConfig(write_failure_prob=0.25),
        device_interrupts=DeviceInterruptSchedule(mean_interval_s=1800.0),
    )


def build_secure_chaos(seed: int, devices: int = 1000) -> FLFleet:
    """SecAgg rounds (groups of 20) under crashes, message faults,
    checkpoint-write failures and device interrupts."""
    task = TaskConfig(
        task_id="chaos/train",
        population_name="chaos",
        round_config=RoundConfig(
            target_participants=30,
            selection_timeout_s=120,
            reporting_timeout_s=120,
        ),
        secagg=SecAggConfig(enabled=True, group_size=20),
    )
    return (
        FLFleet.builder()
        .seed(seed)
        .devices(PopulationConfig(num_devices=devices))
        .selectors(3)
        .job(JobSchedule(900.0, 0.5))
        .faults(chaos_plan())
        .population(
            "chaos", tasks=[task], model=initial_params(chaos_model())
        )
        .build()
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("idle_fleet", build_idle_fleet, small_mlp,
                 window_s=0.25 * DAY, slices=120, repeats=(1, 1, 1)),
        Workload("tenant_control", build_tenant_control, small_mlp,
                 window_s=0.25 * DAY, slices=120, repeats=(5, 3, 3)),
        Workload("cohort_training", build_cohort_training, cohort_model,
                 window_s=0.125 * DAY, slices=120, repeats=(5, 1, 2),
                 trains=True),
        Workload("secure_chaos", build_secure_chaos, chaos_model,
                 window_s=0.25 * DAY, slices=120, repeats=(5, 3, 3)),
    )
}
