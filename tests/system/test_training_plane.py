"""The cohort training plane against its per-device oracle.

Every trainer that can defer joins its population's cohort plane.  That
fleet must be deterministic and — for models whose cohort kernels are
row-exact — byte-identical to the same fleet on
:class:`~repro.tools.perf.InlineTrainer` devices, which train every
session inline: same RunReport, same committed global model, same
health telemetry.
"""

import numpy as np

from repro import FLFleet
from repro.core.config import ClientTrainingConfig, RoundConfig, TaskConfig
from repro.device.example_store import ExampleStore
from repro.device.runtime import RealTrainer
from repro.device.scheduler import JobSchedule
from repro.nn.models import MLPClassifier
from repro.sim.diurnal import DiurnalModel
from repro.sim.population import PopulationConfig
from repro.tools.perf import InlineTrainer

MODEL = MLPClassifier(input_dim=16, hidden_dims=(12,), n_classes=4)
INIT = MODEL.init(np.random.default_rng(0))


def build_fleet(trainer=RealTrainer, seed=11, devices=50):
    data_rng = np.random.default_rng(4242)

    def trainer_factory(profile):
        store = ExampleStore(ttl_s=None)
        store.add_batch(
            data_rng.normal(size=(64, 16)),
            data_rng.integers(0, 4, size=64),
            timestamp_s=0.0,
        )
        return trainer(model=MODEL, store=store)

    task = TaskConfig(
        task_id="t",
        population_name="pop",
        round_config=RoundConfig(target_participants=8),
        client_config=ClientTrainingConfig(
            epochs=2, batch_size=8, learning_rate=0.1
        ),
    )
    return (
        FLFleet.builder()
        .seed(seed)
        .devices(PopulationConfig(num_devices=devices))
        .job(JobSchedule(600.0, 0.5))
        .diurnal(DiurnalModel(amplitude=0.0, base_eligible_fraction=0.7,
                              mean_eligible_minutes=240.0))
        .population("pop", tasks=[task], model=INIT,
                    trainer_factory=trainer_factory)
        .build()
    )


def run(trainer=RealTrainer, seed=11, days=0.12):
    fleet = build_fleet(trainer, seed)
    fleet.run_days(days)
    return fleet


def test_cohort_is_the_default_and_planes_are_wired():
    assert set(build_fleet().cohort_planes) == {"pop"}


def test_cohort_plane_actually_executes_cohorts():
    fleet = run()
    plane = fleet.cohort_planes["pop"]
    assert plane.executions > 0
    assert plane.workloads_executed > plane.executions  # real batching
    assert plane.largest_cohort > 1
    assert fleet.report().rounds_committed > 0


def test_cohort_matches_per_device_byte_identically():
    cohort = run()
    per_device = run(InlineTrainer)
    assert per_device.cohort_planes["pop"].executions == 0
    assert cohort.report() == per_device.report()
    assert cohort.health_report().to_dict() == per_device.health_report().to_dict()
    assert np.array_equal(
        cohort.global_model("pop").to_vector(),
        per_device.global_model("pop").to_vector(),
    )


def test_cohort_plane_is_deterministic():
    a, b = run(), run()
    assert a.report() == b.report()
    assert np.array_equal(
        a.global_model("pop").to_vector(), b.global_model("pop").to_vector()
    )
    assert a.loop.events_processed == b.loop.events_processed


def test_synthetic_trainer_fleets_have_no_planes():
    fleet = (
        FLFleet.builder()
        .seed(3)
        .devices(PopulationConfig(num_devices=30))
        .population(
            "pop",
            tasks=[TaskConfig(
                task_id="t", population_name="pop",
                round_config=RoundConfig(target_participants=5),
            )],
            model=INIT,
        )
        .build()
    )
    assert fleet.cohort_planes == {}
