"""Seed equivalence of the buffered model plane at fleet scale.

The same seed must produce the identical ``RunReport`` — and identical
committed model bytes — from the production fleet and from the same
fleet on :class:`~repro.tools.perf.FunctionalTrainer` devices (inline
training on the allocating pre-buffering math, kept as the perf-harness
reference).  This is the system-level guarantee that the in-place
rewrite changed allocation behaviour and nothing else.
"""

import numpy as np

from repro import FLFleet
from repro.core.config import ClientTrainingConfig, RoundConfig, TaskConfig
from repro.device.example_store import ExampleStore
from repro.device.runtime import RealTrainer
from repro.nn.models import MLPClassifier
from repro.sim.population import PopulationConfig
from repro.tools.perf import FunctionalTrainer


def build_and_run(trainer=RealTrainer, days: float = 0.2):
    model = MLPClassifier(input_dim=8, hidden_dims=(16,), n_classes=4)
    params = model.init(np.random.default_rng(0))
    data_rng = np.random.default_rng(99)
    w_true = data_rng.normal(size=(8, 4))

    def trainer_factory(profile):
        store = ExampleStore(ttl_s=None)
        x = data_rng.normal(size=(40, 8))
        y = (x @ w_true).argmax(axis=1)
        store.add_batch(x, y, timestamp_s=0.0)
        return trainer(model=model, store=store)

    task = TaskConfig(
        task_id="t",
        population_name="pop",
        round_config=RoundConfig(target_participants=15),
        client_config=ClientTrainingConfig(
            epochs=2, batch_size=8, learning_rate=0.3, clip_update_norm=1.0
        ),
    )
    fleet = (
        FLFleet.builder()
        .seed(11)
        .devices(PopulationConfig(num_devices=120))
        .population("pop", tasks=[task], model=params,
                    trainer_factory=trainer_factory)
        .build()
    )
    fleet.run_days(days)
    report = fleet.report().to_operational_dict()
    health = fleet.health_report().to_dict()
    ckpt = (
        fleet.store.latest("pop").to_params().to_vector()
        if fleet.store.has_checkpoint("pop")
        else None
    )
    return report, health, ckpt


def test_functional_and_buffered_fleets_are_byte_identical():
    report_b, health_b, ckpt_b = build_and_run()
    report_f, health_f, ckpt_f = build_and_run(FunctionalTrainer)
    assert report_b == report_f
    assert health_b == health_f
    assert ckpt_b is not None, "equivalence run must commit at least one round"
    np.testing.assert_array_equal(ckpt_b, ckpt_f)


def test_same_seed_same_report_within_buffered_mode():
    report_1, _, ckpt_1 = build_and_run(days=0.15)
    report_2, _, ckpt_2 = build_and_run(days=0.15)
    assert report_1 == report_2
    if ckpt_1 is None:
        assert ckpt_2 is None
    else:
        np.testing.assert_array_equal(ckpt_1, ckpt_2)
