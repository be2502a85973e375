"""Population lifecycle plane: attach/drain tenants on a live fleet plus
checkpointed fleet restarts.

The correctness bars (ISSUE 5):

* ``attach_population`` on a *running* fleet commits rounds for the new
  tenant;
* ``drain_population`` ends with zero device-side sessions/memberships
  for the tenant and Selectors reporting no route;
* ``FLFleet.restore(snapshot)`` then ``run_days(d)`` reports exactly what
  the uninterrupted fleet reports over the same horizon;
* same seed + same attach/drain script => byte-identical ``RunReport``,
  whatever the idle/training-plane levers say.
"""

import numpy as np
import pytest

from repro import (
    FLFleet,
    FleetValidationError,
    PopulationSpec,
    PopulationState,
    RoundConfig,
    TaskConfig,
)
from repro.core.config import ClientTrainingConfig
from repro.device.example_store import ExampleStore
from repro.device.runtime import RealTrainer
from repro.device.scheduler import JobSchedule
from repro.nn.models import LogisticRegression, MLPClassifier
from repro.sim.diurnal import DiurnalModel
from repro.sim.population import PopulationConfig
from repro.system import SnapshotError, read_manifest
from repro.tools.perf import InlineTrainer

HOUR = 3600.0

KBD_MODEL = LogisticRegression(input_dim=4, n_classes=3)
KBD_INIT = KBD_MODEL.init(np.random.default_rng(0))
STATS_MODEL = LogisticRegression(input_dim=2, n_classes=2)
STATS_INIT = STATS_MODEL.init(np.random.default_rng(1))


def round_config(target=8):
    return RoundConfig(
        target_participants=target,
        selection_timeout_s=60,
        reporting_timeout_s=150,
    )


def task_for(name, task="train"):
    return TaskConfig(
        task_id=f"{name}/{task}",
        population_name=name,
        round_config=round_config(),
    )


def stats_spec(membership=0.5):
    return PopulationSpec(
        name="stats",
        tasks=[task_for("stats")],
        initial_params=STATS_INIT,
        membership_fraction=membership,
    )


def build_fleet(seed=5, devices=150, **levers):
    builder = (
        FLFleet.builder()
        .seed(seed)
        .devices(PopulationConfig(num_devices=devices))
        .selectors(2)
        .job(JobSchedule(900.0, 0.5))
        .population("kbd", tasks=[task_for("kbd")], model=KBD_INIT)
    )
    for lever, value in levers.items():
        getattr(builder, lever)(value)
    return builder.build()


# -- attach on a live fleet -------------------------------------------------------


@pytest.mark.parametrize("idle_plane", ["vectorized", "actor"])
def test_attach_population_mid_run_commits_rounds(idle_plane):
    fleet = build_fleet(idle_plane=idle_plane)
    fleet.run_for(2 * HOUR)
    before = fleet.report()
    assert before.population_names == ("kbd",)

    runtime = fleet.attach_population(stats_spec())
    assert runtime.state is PopulationState.ATTACHED
    assert runtime.attached_at_s == 2 * HOUR
    assert runtime.member_ids
    for selector in fleet.selector_actors():
        assert "stats" in selector.routes
    assert fleet.population_names == ("kbd", "stats")

    fleet.run_for(3 * HOUR)
    report = fleet.report()
    stats = report.population("stats")
    assert stats.rounds_committed > 0
    assert stats.device_sessions > 0
    # The incumbent keeps training, and round ids never collide.
    assert report.population("kbd").rounds_committed > before.rounds_committed
    kbd_ids = {r.round_id for r in fleet.results_for("kbd")}
    stats_ids = {r.round_id for r in fleet.results_for("stats")}
    assert kbd_ids and stats_ids and kbd_ids.isdisjoint(stats_ids)
    # Only member devices ever ran a stats session.
    members = fleet.members_of("stats")
    for device in fleet.devices:
        if device.health.sessions_by_population.get("stats", 0):
            assert device.device_id in members


def test_attach_with_pinned_member_ids():
    fleet = build_fleet()
    fleet.run_for(HOUR)
    runtime = fleet.attach_population(
        stats_spec(), member_ids=[3, 14, 15, 92, 65, 35]
    )
    assert runtime.member_ids == {3, 14, 15, 92, 65, 35}
    for device_id in sorted(runtime.member_ids):
        assert "stats" in fleet.devices[device_id].memberships


def test_attach_validation():
    # Before the fleet exists, attach has nowhere to go.
    with pytest.raises(RuntimeError, match="build the fleet"):
        FLFleet().attach_population(stats_spec())
    fleet = build_fleet()
    with pytest.raises(FleetValidationError, match="already attached"):
        fleet.attach_population(
            PopulationSpec(
                name="kbd", tasks=[task_for("kbd")], initial_params=KBD_INIT
            )
        )
    with pytest.raises(FleetValidationError, match="unknown member device"):
        fleet.attach_population(stats_spec(), member_ids=[10_000])
    with pytest.raises(FleetValidationError, match="no member devices"):
        fleet.attach_population(stats_spec(membership=1e-9))


def test_builder_populations_go_through_attach():
    """Builder-time populations are 'attach before start' — same runtime
    records, same code path, no second wiring."""
    fleet = build_fleet()
    runtime = fleet.lifecycle.runtime("kbd")
    assert runtime.state is PopulationState.ATTACHED
    assert runtime.attached_at_s == 0.0
    assert runtime.index == 0


# -- drain -----------------------------------------------------------------------


def drained_postconditions(fleet, name):
    for selector in fleet.selector_actors():
        assert name not in selector.routes
    for device in fleet.devices:
        assert name not in device.memberships
        assert name not in device.trainers
        assert device._active_population != name
        assert device.scheduler.running != name
        assert not device.scheduler.is_queued(name)
    assert name not in fleet.population_names
    assert name not in fleet.coordinators
    assert name not in fleet.cohort_planes


@pytest.mark.parametrize("idle_plane", ["vectorized", "actor"])
def test_drain_population_retires_cleanly(idle_plane):
    fleet = build_fleet(idle_plane=idle_plane)
    fleet.run_for(HOUR)
    fleet.attach_population(stats_spec())
    fleet.run_for(2 * HOUR)
    committed_before = fleet.report().population("stats").rounds_committed
    assert committed_before > 0

    report = fleet.drain_population("stats", deadline_s=2 * HOUR)
    assert report.clean
    assert report.forced_session_interrupts == 0
    assert not report.forced_round_abort
    assert report.rounds_committed >= committed_before
    assert report.drained_at_s <= report.drain_started_at_s + 2 * HOUR
    drained_postconditions(fleet, "stats")
    # The final committed checkpoint survives the tenant.
    final = fleet.store.latest("stats")
    assert final.round_number == report.final_round_number
    assert fleet.global_model("stats").num_parameters == STATS_INIT.num_parameters

    # With one hosted tenant left, implicit global_model() resolves to it
    # (the retired tenant stays reachable by name only).
    assert (
        fleet.global_model().num_parameters
        == fleet.global_model("kbd").num_parameters
    )

    # The fleet keeps running for the remaining tenant, and the drained
    # tenant's history stays in the run report.
    kbd_before = fleet.report().population("kbd").rounds_committed
    fleet.run_for(2 * HOUR)
    after = fleet.report()
    assert after.population("kbd").rounds_committed > kbd_before
    assert after.population("stats").rounds_committed == report.rounds_committed
    assert fleet.lifecycle.find("stats").state is PopulationState.DRAINED


def test_drain_zero_deadline_forces_stragglers():
    """deadline_s=0 skips the quiesce phase entirely: whatever is in
    flight is forcibly terminated, and the postconditions still hold."""
    fleet = build_fleet()
    fleet.attach_population(stats_spec(membership=1.0))
    # Run until some device is mid-session for the tenant so the force
    # path has something to interrupt.
    for _ in range(2000):
        fleet.run_for(60.0)
        if any(d._active_population == "stats" for d in fleet.devices):
            break
    else:
        pytest.fail("no stats session ever started")
    report = fleet.drain_population("stats", deadline_s=0.0)
    assert not report.clean
    assert report.forced_session_interrupts > 0 or report.forced_round_abort
    assert report.drained_at_s == report.drain_started_at_s
    drained_postconditions(fleet, "stats")
    # Forced interrupts surface in device health as interrupted rounds.
    fleet.run_for(HOUR)  # the fleet keeps running fine afterwards
    assert fleet.report().population("kbd").rounds_committed > 0


def test_drain_validation():
    fleet = build_fleet()
    with pytest.raises(FleetValidationError, match="not attached"):
        fleet.drain_population("nope")
    fleet.drain_population("kbd")
    with pytest.raises(FleetValidationError, match="not attached"):
        fleet.drain_population("kbd")


def test_failed_attach_leaves_no_server_state(monkeypatch):
    """Attach is atomic: if plan generation blows up mid-attach, no
    checkpoint, index, or registry entry survives."""
    fleet = build_fleet()
    fleet.run_for(HOUR)
    index_before = fleet.lifecycle._next_index
    writes_before = fleet.store.write_count

    def explode(**kwargs):
        raise RuntimeError("plan compiler fell over")

    monkeypatch.setattr("repro.system.lifecycle.generate_plan", explode)
    with pytest.raises(RuntimeError, match="plan compiler"):
        fleet.attach_population(stats_spec())
    assert not fleet.store.has_checkpoint("stats")
    assert fleet.store.write_count == writes_before
    assert fleet.lifecycle._next_index == index_before
    assert "stats" not in fleet.population_names
    monkeypatch.undo()
    # The fleet is undamaged: the same attach succeeds afterwards.
    fleet.attach_population(stats_spec())
    fleet.run_for(2 * HOUR)
    assert fleet.report().population("stats").rounds_committed > 0


class ExplodingFactory:
    def __call__(self, profile):
        raise RuntimeError("no trainer for you")


def test_failed_trainer_factory_leaves_fleet_untouched():
    """User trainer factories run before any server state is written, so
    a raising factory cannot leave a half-enrolled tenant behind."""
    fleet = build_fleet()
    fleet.run_for(HOUR)
    spec = stats_spec()
    spec.trainer_factory = ExplodingFactory()
    with pytest.raises(RuntimeError, match="no trainer"):
        fleet.attach_population(spec)
    assert "stats" not in fleet.population_names
    assert not fleet.store.has_checkpoint("stats")
    for selector in fleet.selector_actors():
        assert "stats" not in selector.routes
    for device in fleet.devices:
        assert "stats" not in device.memberships
    # The same name attaches cleanly afterwards — and samples the exact
    # member set an untroubled attach would have (the failed attempt
    # consumed nothing from the tenant's membership stream).
    reference = build_fleet()
    reference.run_for(HOUR)
    expected_members = reference.attach_population(stats_spec()).member_ids
    runtime = fleet.attach_population(stats_spec())
    assert runtime.member_ids == expected_members
    fleet.run_for(2 * HOUR)
    assert fleet.report().population("stats").rounds_committed > 0


def test_failed_snapshot_preserves_existing_file(tmp_path):
    """Snapshots write-then-rename: a pickling failure must not clobber a
    good snapshot already at the path (nor leave a truncated one)."""
    path = tmp_path / "fleet.snap"
    fleet = build_fleet(seed=3, devices=60)
    fleet.run_for(HOUR)
    good = fleet.snapshot(path)

    broken = build_fleet(seed=4, devices=40)
    broken.run_for(HOUR)
    spec = stats_spec()
    spec.trainer_factory = lambda profile: None  # closure: unpicklable
    broken.attach_population(spec)
    with pytest.raises(SnapshotError, match="not picklable"):
        broken.snapshot(path)
    # The original snapshot survives intact.
    assert read_manifest(path) == good
    assert FLFleet.restore(path).loop.now == HOUR
    assert not list(tmp_path.glob("*.tmp-*"))


def test_drain_handles_respawned_coordinator():
    """A Sec. 4.4 respawn replaces the coordinator behind the lifecycle
    plane's back; drain must gate and retire the *live* incarnation, not
    the stale recorded ref."""
    fleet = build_fleet()
    fleet.run_for(HOUR)
    original_ref = fleet.coordinators["kbd"]
    fleet.actors.crash(original_ref)
    fleet.run_for(HOUR)  # selectors respawn the coordinator via the lock
    live = fleet.locks.owner_of("coordinator/kbd")
    assert live is not None and live != original_ref and live.alive

    report = fleet.drain_population("kbd", deadline_s=2 * HOUR)
    drained_postconditions(fleet, "kbd")
    # The live incarnation was actually stopped and its lock released.
    assert not live.alive
    assert fleet.locks.owner_of("coordinator/kbd") is None
    rounds_at_drain = fleet.report().rounds_total
    fleet.run_for(2 * HOUR)
    assert fleet.report().rounds_total == rounds_at_drain  # no zombie rounds
    assert report.rounds_committed > 0


def test_late_message_for_drained_population_is_not_misrouted():
    """A message *naming* a removed population must not fall back to the
    single surviving route (only legacy name-less messages may)."""
    fleet = build_fleet()
    fleet.attach_population(stats_spec())
    fleet.run_for(2 * HOUR)
    fleet.drain_population("stats")
    (survivor,) = fleet.selector_actors()[0].routes.values()
    selector = fleet.selector_actors()[0]
    assert selector._lookup("stats") is None
    assert selector._lookup("") is survivor
    assert selector._lookup(None) is survivor


def test_reattach_same_name_after_drain():
    fleet = build_fleet(devices=100)
    fleet.run_for(HOUR)
    fleet.attach_population(stats_spec())
    fleet.run_for(2 * HOUR)
    first = fleet.drain_population("stats")
    assert first.rounds_committed > 0

    first_final = fleet.store.latest("stats").round_number

    second_runtime = fleet.attach_population(stats_spec())
    assert second_runtime.index == 2  # indices are never reused
    # The new incarnation's initial checkpoint lands at its round-id
    # base: monotonic past the drained incarnation's final commit, which
    # stays in the store history.
    assert fleet.store.latest("stats").round_number == 2_000_000
    history_rounds = [c.round_number for c in fleet.store.history("stats")]
    assert history_rounds == sorted(history_rounds)
    assert first_final in history_rounds
    fleet.run_for(2 * HOUR)
    report = fleet.report()
    stats_reports = [p for p in report.populations if p.name == "stats"]
    assert len(stats_reports) == 2
    assert stats_reports[1].rounds_committed > 0
    # The name-keyed accessor resolves to the *live* incarnation.
    assert report.population("stats") == stats_reports[1]
    # Round ids of the two incarnations live in disjoint ranges.
    second_ids = {r.round_id for r in second_runtime.results}
    assert all(r > 2_000_000 for r in second_ids)
    # A snapshot manifest keeps the incarnations' headline rounds apart:
    # the drained entry reports its own last commit, not the re-attached
    # incarnation's store-latest.
    from repro.system.lifecycle import build_manifest

    entries = [
        e for e in build_manifest(fleet).populations if e.name == "stats"
    ]
    assert entries[0].state == "drained"
    assert entries[0].round_number == first_final
    assert entries[1].state == "attached"
    assert entries[1].round_number > 2_000_000


# -- determinism across attach/drain scripts -------------------------------------


def scripted_run(seed, **levers):
    fleet = build_fleet(seed=seed, **levers)
    fleet.run_for(2 * HOUR)
    fleet.attach_population(stats_spec())
    fleet.run_for(3 * HOUR)
    drain = fleet.drain_population("stats", deadline_s=HOUR)
    fleet.run_for(2 * HOUR)
    return fleet, drain


@pytest.mark.parametrize("idle_plane", ["vectorized", "actor"])
def test_attach_drain_script_is_deterministic(idle_plane):
    fleet_a, drain_a = scripted_run(29, idle_plane=idle_plane)
    fleet_b, drain_b = scripted_run(29, idle_plane=idle_plane)
    assert drain_a == drain_b
    assert fleet_a.report() == fleet_b.report()
    assert fleet_a.loop.events_processed == fleet_b.loop.events_processed


def test_differently_seeded_scripts_differ():
    fleet_a, _ = scripted_run(29)
    fleet_b, _ = scripted_run(31)
    assert fleet_a.report() != fleet_b.report()


# -- training-plane byte-identity across the lifecycle ---------------------------

REAL_MODEL = MLPClassifier(input_dim=8, hidden_dims=(6,), n_classes=3)
REAL_INIT = REAL_MODEL.init(np.random.default_rng(2))


class RealTrainerFactory:
    """Module-level (hence picklable) factory: per-device data pinned by
    device id, full minibatches (row-exact cohort kernels)."""

    def __init__(self, trainer=RealTrainer):
        self.trainer = trainer

    def __call__(self, profile):
        data_rng = np.random.default_rng(7_000 + profile.device_id)
        store = ExampleStore(ttl_s=None)
        store.add_batch(
            data_rng.normal(size=(48, 8)),
            data_rng.integers(0, 3, size=48),
            timestamp_s=0.0,
        )
        return self.trainer(model=REAL_MODEL, store=store)


def real_spec(trainer=RealTrainer):
    return PopulationSpec(
        name="ranker",
        tasks=[
            TaskConfig(
                task_id="ranker/train",
                population_name="ranker",
                round_config=round_config(),
                client_config=ClientTrainingConfig(
                    epochs=2, batch_size=8, learning_rate=0.1
                ),
            )
        ],
        initial_params=REAL_INIT,
        trainer_factory=RealTrainerFactory(trainer),
        membership_fraction=0.8,
    )


def real_scripted_run(trainer):
    fleet = build_fleet(
        seed=11,
        devices=60,
        diurnal=DiurnalModel(
            amplitude=0.0,
            base_eligible_fraction=0.7,
            mean_eligible_minutes=240.0,
        ),
    )
    fleet.run_for(HOUR)
    fleet.attach_population(real_spec(trainer))
    fleet.run_for(3 * HOUR)
    drain = fleet.drain_population("ranker", deadline_s=HOUR)
    fleet.run_for(HOUR)
    return fleet, drain


def test_lifecycle_is_byte_identical_across_training_planes():
    cohort, drain_cohort = real_scripted_run(RealTrainer)
    per_device, drain_per_device = real_scripted_run(InlineTrainer)
    assert drain_cohort.rounds_committed > 0
    assert drain_cohort == drain_per_device
    assert cohort.report() == per_device.report()
    assert np.array_equal(
        cohort.global_model("ranker").to_vector(),
        per_device.global_model("ranker").to_vector(),
    )


# -- fleet snapshot / restore ----------------------------------------------------


def test_snapshot_restore_equals_uninterrupted_run(tmp_path):
    path = tmp_path / "fleet.snap"
    fleet = build_fleet(seed=19)
    fleet.run_for(2 * HOUR)
    fleet.attach_population(stats_spec())
    # Snapshot at an odd instant, rounds and sessions in flight.
    fleet.run_for(1.25 * HOUR)
    manifest = fleet.snapshot(path)
    assert manifest.seed == 19
    assert manifest.simulated_seconds == 3.25 * HOUR
    assert [p.name for p in manifest.populations] == ["kbd", "stats"]

    # The uninterrupted fleet continues; snapshotting was a pure read.
    fleet.run_for(3 * HOUR)
    uninterrupted = fleet.report()

    restored = FLFleet.restore(path)
    assert restored.loop.now == 3.25 * HOUR
    restored.run_for(3 * HOUR)
    assert restored.report() == uninterrupted
    assert restored.loop.events_processed == fleet.loop.events_processed
    for name in ("kbd", "stats"):
        assert np.array_equal(
            restored.global_model(name).to_vector(),
            fleet.global_model(name).to_vector(),
        )


def test_snapshot_restore_with_real_trainers_and_lifecycle(tmp_path):
    """The full stack at once: real models on the cohort plane, a tenant
    attached mid-run, a snapshot taken, then an identical drain + run on
    both sides of the restore."""
    path = tmp_path / "fleet.snap"
    fleet = build_fleet(
        seed=11,
        devices=60,
        diurnal=DiurnalModel(
            amplitude=0.0,
            base_eligible_fraction=0.7,
            mean_eligible_minutes=240.0,
        ),
    )
    fleet.run_for(HOUR)
    fleet.attach_population(real_spec())
    fleet.run_for(1.5 * HOUR)
    fleet.snapshot(path)

    drain_original = fleet.drain_population("ranker", deadline_s=HOUR)
    fleet.run_for(HOUR)

    restored = FLFleet.restore(path)
    drain_restored = restored.drain_population("ranker", deadline_s=HOUR)
    restored.run_for(HOUR)

    assert drain_restored == drain_original
    assert restored.report() == fleet.report()


def test_restore_rejects_non_snapshots(tmp_path):
    bogus = tmp_path / "bogus.snap"
    bogus.write_bytes(b"definitely not a snapshot")
    with pytest.raises(SnapshotError):
        FLFleet.restore(bogus)
    import pickle

    wrong_shape = tmp_path / "wrong.snap"
    wrong_shape.write_bytes(pickle.dumps({"hello": "world"}))
    with pytest.raises(SnapshotError):
        FLFleet.restore(wrong_shape)


def test_read_manifest_roundtrip(tmp_path):
    path = tmp_path / "fleet.snap"
    fleet = build_fleet(seed=3, devices=60)
    fleet.run_for(HOUR)
    written = fleet.snapshot(path)
    assert read_manifest(path) == written
    (entry,) = written.populations
    assert entry.name == "kbd"
    assert entry.state == "attached"
    assert entry.rounds_committed <= entry.rounds_total


# -- device-scheduler lever plumbing ---------------------------------------------


def test_device_scheduler_lever_reaches_devices():
    fleet = build_fleet(device_scheduler="fair_share", devices=40)
    assert all(d.scheduler.policy == "fair_share" for d in fleet.devices)
    default = build_fleet(devices=40)
    assert all(d.scheduler.policy == "fifo" for d in default.devices)


def test_fair_share_fleet_serves_both_tenants_deterministically():
    def run(seed):
        fleet = build_fleet(
            seed=seed, devices=120, device_scheduler="fair_share"
        )
        fleet.run_for(HOUR)
        fleet.attach_population(stats_spec())
        fleet.run_for(3 * HOUR)
        return fleet.report()

    report = run(13)
    assert report.population("kbd").device_sessions > 0
    assert report.population("stats").device_sessions > 0
    assert report == run(13)
