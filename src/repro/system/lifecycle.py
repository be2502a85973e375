"""The population lifecycle plane: tenants attach to and drain from a
*live* fleet.

The paper's FL server is long-lived and multi-tenant — populations come
and go while the device fleet keeps running (Sec. 9's "multiple
concurrent training sessions", Table 1) — and Lo et al.'s architectural
patterns name the shape: a client registry plus a deployment lifecycle
decoupled from server construction.  :class:`PopulationLifecycle` is that
registry for an :class:`~repro.system.fleet.FLFleet`: it owns every
hosted tenant's runtime state (:class:`PopulationRuntime`) and the two
transitions —

* :meth:`attach` — bring a population up on the running fleet: round-0
  checkpoint, plan directory, pace steering, a
  :class:`~repro.actors.selector.PopulationRoute` on every Selector, a
  freshly spawned Coordinator, device memberships sampled from the
  tenant's pinned RNG stream, trainers installed per member, and — on a
  live fleet — first check-ins scheduled from each device's own stream so
  the rollout reaches its cohort within one job interval.  Builder-time
  populations go through *exactly this code path* ("attach before
  start"); there is no second wiring path.
* :meth:`drain` — retire a population from the running fleet in three
  phases: stop admitting (every Selector flushes the tenant's pool and
  bounces new check-ins), quiesce (the event loop runs until the tenant's
  in-flight round and device sessions wind down, or a simulated-time
  deadline forces them), and retire (Coordinator stopped, routes removed,
  memberships/scheduler queues stripped, idle-plane rows refreshed).  The
  tenant's final committed checkpoint stays in the store, and the caller
  gets a typed :class:`~repro.system.reports.PopulationLifecycleReport`.

Fleet checkpoint/restore (:func:`write_snapshot` / :func:`read_snapshot`)
sits on the same state boundary: because every piece of tenant state is
owned here or reachable from the fleet object graph — per-tenant model
checkpoints, round counters, RNG stream cursors, pending events,
lifecycle state — a snapshot is a full-fidelity freeze, and a restored
fleet continues *byte-identically* to one that never stopped.
"""

from __future__ import annotations

import enum
import os
import pickle
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.actors.coordinator import Coordinator
from repro.actors.kernel import ActorRef
from repro.actors.selector import PopulationRoute
from repro.analytics.dashboard import ScopedDashboard
from repro.core.pace import PaceSteering
from repro.core.plan import generate_plan
from repro.core.rounds import RoundResult
from repro.core.task import FLPopulation, FLTask, TaskScheduler
from repro.device.idle import first_checkin_delay
from repro.nn.serialization import checkpoint_nbytes
from repro.system.builder import FleetValidationError, PopulationSpec
from repro.system.reports import PopulationLifecycleReport
from repro.tools.versioning import PlanDirectory, PlanRepository, default_transforms

if TYPE_CHECKING:
    from repro.device.actor import DeviceActor
    from repro.system.fleet import FLFleet

#: Disjoint round-id ranges per population *incarnation* so (device,
#: round) session keys in the event log never collide across tenants —
#: nor across a drained tenant and a later re-attach of the same name.
ROUND_ID_STRIDE = 1_000_000

#: How often (simulated seconds) a drain re-checks whether the tenant has
#: gone quiet.  A fixed cadence keeps drains deterministic; the checks
#: themselves never mutate state, so polling cannot perturb the run.
DRAIN_POLL_INTERVAL_S = 15.0


class PopulationState(enum.Enum):
    """Where a tenant is in its lifecycle."""

    ATTACHED = "attached"
    DRAINING = "draining"
    DRAINED = "drained"


@dataclass
class PopulationRuntime:
    """Everything the fleet tracks for one hosted population."""

    spec: PopulationSpec
    index: int
    fl_population: FLPopulation
    plan_directory: PlanDirectory
    pace: PaceSteering
    scope: ScopedDashboard
    state: PopulationState = PopulationState.ATTACHED
    attached_at_s: float = 0.0
    drained_at_s: float | None = None
    member_ids: set[int] = field(default_factory=set)
    coordinator_ref: ActorRef | None = None
    results: list[RoundResult] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def round_id_base(self) -> int:
        return self.index * ROUND_ID_STRIDE


class PopulationLifecycle:
    """The fleet's tenant registry and attach/drain state machine.

    ``active`` holds ATTACHED and DRAINING tenants (the ones Selectors
    still route); ``retired`` keeps DRAINED tenants so run reports cover
    their rounds.  Indices — and with them round-id ranges, checkpoint
    round bases, and coordinator actor names — are never reused, even
    when a name is re-attached.  (Dashboard scopes *are* name-keyed:
    incarnations of the same name continue one ``pop/<name>`` series.)
    """

    def __init__(self, fleet: "FLFleet"):
        self.fleet = fleet
        self.active: dict[str, PopulationRuntime] = {}
        self.retired: list[PopulationRuntime] = []
        self._next_index = 0

    # -- registry views ---------------------------------------------------------
    def runtimes(self) -> list[PopulationRuntime]:
        """Every tenant this fleet has ever hosted, in attach order."""
        return sorted(
            [*self.retired, *self.active.values()], key=lambda r: r.index
        )

    def runtime(self, name: str) -> PopulationRuntime:
        """The named *currently hosted* tenant (KeyError otherwise)."""
        return self.active[name]

    def find(self, name: str) -> PopulationRuntime | None:
        """The named tenant, hosted or retired (latest incarnation)."""
        runtime = self.active.get(name)
        if runtime is not None:
            return runtime
        for runtime in reversed(self.retired):
            if runtime.name == name:
                return runtime
        return None

    # -- attach -----------------------------------------------------------------
    def attach(
        self,
        spec: PopulationSpec,
        membership_overrides: Mapping[int, tuple[str, ...]] | None = None,
        membership: float | None = None,
        member_ids: Iterable[int] | None = None,
    ) -> PopulationRuntime:
        """Bring one population up on the fleet (running or not yet started).

        ``membership`` overrides the spec's membership fraction;
        ``member_ids`` pins the member set explicitly (no sampling).
        ``membership_overrides`` is the builder's global per-device map
        (device id -> population names the device belongs to).
        """
        spec.validate()
        if spec.name in self.active:
            raise FleetValidationError(
                f"population {spec.name!r} is already attached"
            )
        # Membership is resolved and every member's trainer is built (the
        # raise-capable user code) before any server state is written, so
        # a failed attach leaves the fleet untouched.
        members = self._resolve_membership(
            spec.name,
            fraction=spec.membership_fraction if membership is None else membership,
            member_ids=member_ids,
            overrides=membership_overrides or {},
        )
        factory = self.fleet.resolve_trainer_factory(spec)
        trainers = {
            device_id: factory(self.fleet.devices[device_id].profile)
            for device_id in sorted(members)
        }
        runtime = self._create_runtime(spec)
        runtime.member_ids = members
        self.active[spec.name] = runtime
        self._register_routes(runtime)
        self._spawn_coordinator(runtime)
        self._enroll_devices(runtime, trainers)
        return runtime

    def _create_runtime(self, spec: PopulationSpec) -> PopulationRuntime:
        """Per-population server state: plan directory, task registry,
        pace steering, round-0 checkpoint.  Everything that can *raise*
        (plan generation, repository builds) runs before anything is
        written, so a failed attach leaves no orphan server state."""
        fleet = self.fleet
        model_nbytes = checkpoint_nbytes(spec.initial_params)
        plan_directory = PlanDirectory()
        fl_population = FLPopulation(name=spec.name)
        for i, task_config in enumerate(spec.tasks):
            # An explicitly supplied plan applies to the first task (the
            # one the model engineer built it for); the rest are generated.
            task_plan = (
                spec.plan
                if spec.plan is not None and i == 0
                else generate_plan(
                    task_id=task_config.task_id,
                    kind=task_config.kind,
                    client_config=task_config.client_config,
                    secagg=task_config.secagg,
                    model_nbytes=model_nbytes,
                )
            )
            plan_directory.add(
                task_config.task_id,
                PlanRepository.build(
                    task_plan,
                    list(fleet.config.population.runtime_versions),
                    default_transforms(),
                ),
            )
            fl_population.add_task(FLTask(config=task_config, plan=task_plan))
        index = self._next_index
        self._next_index += 1
        # The round-0 checkpoint lands at the incarnation's round-id base,
        # so a re-attach of a drained name stays monotonic in the store
        # and never buries the old incarnation's final model below a
        # round-0 rewrite (it remains in the store history).
        fleet.store.initialize(
            spec.initial_params,
            spec.name,
            spec.tasks[0].task_id,
            round_number=index * ROUND_ID_STRIDE,
        )
        return PopulationRuntime(
            spec=spec,
            index=index,
            fl_population=fl_population,
            plan_directory=plan_directory,
            pace=PaceSteering(
                spec.pace or fleet.config.pace, fleet.config.diurnal
            ),
            scope=fleet.dashboard.scoped(f"pop/{spec.name}"),
            attached_at_s=fleet.loop.now,
        )

    def _resolve_membership(
        self,
        name: str,
        fraction: float,
        member_ids: Iterable[int] | None,
        overrides: Mapping[int, tuple[str, ...]],
    ) -> set[int]:
        """Deterministic member set: fraction-sampled from the tenant's
        pinned ``membership/<name>`` stream (or pinned explicitly), then
        per-device overrides."""
        fleet = self.fleet
        if member_ids is not None:
            members = {int(device_id) for device_id in member_ids}
            unknown = [
                i for i in sorted(members)
                if not 0 <= i < len(fleet.profiles)
            ]
            if unknown:
                raise FleetValidationError(
                    f"population {name!r}: unknown member device ids "
                    f"{sorted(unknown)} (fleet has {len(fleet.profiles)} "
                    f"devices)"
                )
        elif fraction >= 1.0:
            members = {p.device_id for p in fleet.profiles}
        else:
            # A *fresh* generator, not the cached registry stream: the
            # draw starts at cursor 0 every time, so a failed attach
            # consumes nothing (a retry samples the identical member set)
            # and a same-named re-attach re-pins the same members.
            rng = fleet.rngs.fresh(f"membership/{name}")
            draws = rng.random(len(fleet.profiles))
            members = {
                p.device_id
                for p, draw in zip(fleet.profiles, draws)
                if draw < fraction
            }
        for device_id, names in overrides.items():
            if name in names:
                members.add(device_id)
            else:
                members.discard(device_id)
        if not members:
            raise FleetValidationError(
                f"population {name!r} has no member devices "
                f"(fraction {fraction}, {len(fleet.profiles)} devices)"
            )
        return members

    def _register_routes(self, runtime: PopulationRuntime) -> None:
        # Routes live on the owning shard's Selectors only (the full set
        # on an unsharded fleet): a tenant's check-in traffic and pool
        # quotas never touch other shards.
        for selector in self.fleet.shard_selector_actors(runtime.name):
            selector.add_route(self._build_route(runtime))

    def _build_route(self, runtime: PopulationRuntime) -> PopulationRoute:
        return PopulationRoute(
            population_name=runtime.name,
            pace=runtime.pace,
            plans=runtime.plan_directory,
            population_size=len(runtime.member_ids),
            pool_cap=runtime.spec.pool_cap,
            coordinator_factory=partial(self.make_coordinator, runtime.name),
        )

    def make_coordinator(self, name: str) -> Coordinator:
        """A fresh Coordinator for ``name`` — used at attach and by the
        Sec. 4.4 selector-driven respawn path (a partial of this method
        is every route's ``coordinator_factory``)."""
        fleet = self.fleet
        runtime = self.runtime(name)
        # The tenant's Coordinator talks to its owning shard's Selectors
        # only (the full set on an unsharded fleet); its rounds fold
        # through one shard-aggregator per owned Selector when sharding
        # is on (``shard_slots=0`` keeps the flat legacy funnel).
        shard_selectors = fleet.shard_selectors(name)
        sharded = fleet.config.selector_shards > 1
        coordinator = Coordinator(
            population_name=name,
            scheduler=TaskScheduler(
                runtime.fl_population,
                runtime.spec.strategy,
                fleet.rngs.stream(f"scheduler/{name}"),
            ),
            selectors=shard_selectors,
            locks=fleet.locks,
            store=fleet.store,
            rng=fleet.rngs.stream(f"coordinator/{name}"),
            config=runtime.spec.coordinator or fleet.config.coordinator,
            round_listener=partial(fleet._on_round_result, name),
            metrics_store=fleet.metrics,
            round_id_base=runtime.round_id_base,
            checkpoint_retry=(
                fleet.config.faults.checkpoint_retry
                if fleet.config.faults is not None
                else None
            ),
            recovery=fleet.recovery,
            shard_slots=len(shard_selectors) if sharded else 0,
            shard_restart_delay_s=fleet.config.selector_restart_delay_s,
            fold_recorder=(
                partial(fleet._record_shard_fold, name) if sharded else None
            ),
        )
        # A respawn that lands mid-drain must not restart rounds.
        coordinator.draining = runtime.state is PopulationState.DRAINING
        return coordinator

    def _spawn_coordinator(self, runtime: PopulationRuntime) -> None:
        runtime.coordinator_ref = self.fleet.actors.spawn(
            self.make_coordinator(runtime.name),
            f"coordinator/{runtime.name}/{runtime.index}",
        )

    def _enroll_devices(
        self,
        runtime: PopulationRuntime,
        trainers: Mapping[int, object],
    ) -> None:
        """Install the tenant's (prebuilt) trainer and membership on every
        member device, in device-id order (each kick draws from that
        device's own pinned stream, so enrollment is deterministic)."""
        fleet = self.fleet
        live = fleet.started
        for device_id in sorted(runtime.member_ids):
            device = fleet.devices[device_id]
            trainer = trainers[device_id]
            fleet.enroll_cohort_trainer(runtime.name, trainer)
            device.enroll(runtime.name, trainer)
            if device.idle is not None:
                device.idle.membership_changed()
                if live:
                    self._kick_first_checkin(device)

    @staticmethod
    def _kick_first_checkin(device: "DeviceActor") -> None:
        """Schedule a newly-enrolled live device's first check-in.

        Only devices with no check-in already on the books need one —
        multi-tenant devices fold the new membership into their existing
        cadence, sleeping devices wake via their next eligibility flip,
        and materialized devices re-schedule when their session ends.
        The stagger is the fleet-start law (uniform over one job
        interval, from the device's own stream), so a rollout reaches
        its whole cohort within one job interval.
        """
        from repro.device.actor import DeviceState

        if (
            device.eligible
            and device.state is DeviceState.IDLE
            and not device.idle.has_scheduled_checkin()
        ):
            device.idle.schedule_checkin(first_checkin_delay(device))

    # -- drain ------------------------------------------------------------------
    def drain(
        self, name: str, deadline_s: float = 7200.0
    ) -> PopulationLifecycleReport:
        """Retire a population from the live fleet.

        Advances simulated time while the tenant winds down (other
        tenants keep running normally); returns once the tenant is fully
        retired — at most ``deadline_s`` simulated seconds later, with
        any straggling round/sessions forcibly terminated at the
        deadline.
        """
        runtime = self.active.get(name)
        if runtime is None or runtime.state is not PopulationState.ATTACHED:
            raise FleetValidationError(
                f"population {name!r} is not attached (cannot drain)"
            )
        if deadline_s < 0:
            raise ValueError("deadline_s must be >= 0")
        fleet = self.fleet
        drain_started_at_s = fleet.loop.now
        runtime.state = PopulationState.DRAINING

        # Phase 1 — stop admitting: Selectors flush the tenant's pools
        # and bounce new check-ins; the Coordinator stops starting rounds;
        # member devices stop *requesting* sessions (membership and queued
        # requests stripped now, so quiescence is reachable) while any
        # session already running finishes on its own clock.
        for selector in fleet.shard_selector_actors(name):
            selector.begin_drain(name)
        coordinator = self._coordinator_actor(runtime)
        if coordinator is not None:
            coordinator.draining = True
        for device_id in sorted(runtime.member_ids):
            device = fleet.devices[device_id]
            device.leave_population(name)
            if device.idle is not None:
                device.idle.membership_changed()

        # Phase 2 — quiesce: let the in-flight round and device sessions
        # finish on their own clocks, checking at a fixed cadence.
        deadline = drain_started_at_s + deadline_s
        while not self._is_quiet(runtime):
            now = fleet.loop.now
            if now >= deadline:
                break
            fleet.loop.run(until=min(now + DRAIN_POLL_INTERVAL_S, deadline))
        forced_interrupts, forced_round_abort = 0, False
        if not self._is_quiet(runtime):
            forced_interrupts, forced_round_abort = self._force_quiet(runtime)

        # Phase 3 — retire: coordinator down, routes out, memberships and
        # device-side queues stripped, idle rows refreshed.
        self._retire(runtime)
        final = fleet.store.latest(name)
        return PopulationLifecycleReport(
            population=name,
            attached_at_s=runtime.attached_at_s,
            drain_started_at_s=drain_started_at_s,
            drained_at_s=fleet.loop.now,
            rounds_total=len(runtime.results),
            rounds_committed=sum(1 for r in runtime.results if r.committed),
            final_round_number=final.round_number,
            member_devices=len(runtime.member_ids),
            forced_session_interrupts=forced_interrupts,
            forced_round_abort=forced_round_abort,
            clean=not forced_interrupts and not forced_round_abort,
        )

    def _coordinator_ref(self, runtime: PopulationRuntime) -> ActorRef | None:
        """The tenant's *live* Coordinator ref.

        A Sec. 4.4 selector respawn replaces the coordinator without
        telling the lifecycle plane, so the recorded ref can be stale —
        but every incarnation registers in the shared lock service, which
        is the authoritative ownership record.  Resolve through it and
        heal the runtime's pointer.
        """
        ref = runtime.coordinator_ref
        if ref is not None and ref.alive:
            return ref
        owner = self.fleet.locks.owner_of(f"coordinator/{runtime.name}")
        if owner is not None and owner.alive:
            runtime.coordinator_ref = owner
            return owner
        return None

    def _coordinator_actor(self, runtime: PopulationRuntime) -> Coordinator | None:
        ref = self._coordinator_ref(runtime)
        if ref is None:
            return None
        actor = self.fleet.actors.actor_of(ref)
        return actor if isinstance(actor, Coordinator) else None

    def _is_quiet(self, runtime: PopulationRuntime) -> bool:
        """No round in flight and no device-side session for the tenant.

        Pure reads — a quiescence check never perturbs the simulation, so
        drain polling cannot change the trajectory of other tenants.
        """
        coordinator = self._coordinator_actor(runtime)
        if coordinator is not None and coordinator.active_master is not None:
            return False
        name = runtime.name
        # Order-independent pure reads: no sort needed on this hot-ish
        # poll (unlike the mutating enroll/force walks, which draw from
        # per-device streams and must run in device-id order).
        for device_id in runtime.member_ids:
            device = self.fleet.devices[device_id]
            if device._active_population == name:
                return False
            scheduler = device.scheduler
            if scheduler.running == name or scheduler.is_queued(name):
                return False
        return True

    def _force_quiet(self, runtime: PopulationRuntime) -> tuple[int, bool]:
        """Deadline passed: abort the tenant's round and sessions."""
        fleet = self.fleet
        forced_round = False
        coordinator = self._coordinator_actor(runtime)
        if coordinator is not None and coordinator.active_master is not None:
            fleet.actors.crash(coordinator.active_master)
            forced_round = True
        forced = 0
        name = runtime.name
        for device_id in sorted(runtime.member_ids):
            device = fleet.devices[device_id]
            if device._active_population == name:
                device.interrupt_session("population_drained")
                forced += 1
        return forced, forced_round

    def _retire(self, runtime: PopulationRuntime) -> None:
        fleet = self.fleet
        name = runtime.name
        coordinator_ref = self._coordinator_ref(runtime)
        if coordinator_ref is not None:
            fleet.actors.stop(coordinator_ref)
        runtime.coordinator_ref = None
        for selector in fleet.shard_selector_actors(name):
            selector.remove_route(name)
        for device_id in sorted(runtime.member_ids):
            device = fleet.devices[device_id]
            device.withdraw(name)
            if device.idle is not None:
                device.idle.membership_changed()
        fleet.retire_cohort_plane(name)
        runtime.state = PopulationState.DRAINED
        runtime.drained_at_s = fleet.loop.now
        del self.active[name]
        self.retired.append(runtime)


# -- fleet checkpoint / restore ---------------------------------------------------

#: Bumped whenever the on-disk snapshot layout changes incompatibly.
SNAPSHOT_FORMAT_VERSION = 1

_SNAPSHOT_MAGIC = "repro-fleet-snapshot"


class SnapshotError(RuntimeError):
    """The file is not a readable fleet snapshot of this format."""


@dataclass(frozen=True)
class PopulationSnapshotEntry:
    """One tenant's headline state inside a snapshot manifest."""

    name: str
    state: str
    round_number: int
    rounds_total: int
    rounds_committed: int


@dataclass(frozen=True)
class FleetSnapshotManifest:
    """Self-describing header persisted (and returned) with a snapshot."""

    format_version: int
    seed: int
    simulated_seconds: float
    populations: tuple[PopulationSnapshotEntry, ...]


def build_manifest(fleet: "FLFleet") -> FleetSnapshotManifest:
    entries = []
    for runtime in fleet.lifecycle.runtimes():
        name = runtime.name
        if runtime.state is PopulationState.DRAINED:
            # The store's latest(name) may already belong to a re-attached
            # incarnation; a retired tenant's headline round is its own
            # last commit (or its initial checkpoint's base).
            round_number = max(
                (r.round_id for r in runtime.results if r.committed),
                default=runtime.round_id_base,
            )
        else:
            round_number = (
                fleet.store.latest(name).round_number
                if fleet.store.has_checkpoint(name)
                else -1
            )
        entries.append(
            PopulationSnapshotEntry(
                name=name,
                state=runtime.state.value,
                round_number=round_number,
                rounds_total=len(runtime.results),
                rounds_committed=sum(1 for r in runtime.results if r.committed),
            )
        )
    return FleetSnapshotManifest(
        format_version=SNAPSHOT_FORMAT_VERSION,
        seed=fleet.config.seed,
        simulated_seconds=fleet.loop.now,
        populations=tuple(entries),
    )


def write_snapshot(fleet: "FLFleet", path) -> FleetSnapshotManifest:
    """Freeze a fleet — mid-run, rounds in flight and all — to ``path``.

    The payload is the full object graph (per-tenant checkpoints, round
    counters, RNG stream cursors, pending events, lifecycle state), so a
    restored fleet resumes byte-identically; the manifest rides along as
    a typed header.  Snapshotting is a pure read: it never perturbs the
    running fleet.
    """
    manifest = build_manifest(fleet)
    header = {"magic": _SNAPSHOT_MAGIC, "manifest": manifest}
    # Write-then-rename: a failed dump must neither clobber an existing
    # snapshot at ``path`` nor leave a truncated file whose header still
    # validates.
    path = os.fspath(path)
    scratch = f"{path}.tmp-{os.getpid()}"
    try:
        with open(scratch, "wb") as f:
            # Two consecutive pickles: the small typed header first, then
            # the fleet graph — so read_manifest never deserializes the
            # fleet.
            pickle.dump(header, f, protocol=pickle.HIGHEST_PROTOCOL)
            try:
                pickle.dump(fleet, f, protocol=pickle.HIGHEST_PROTOCOL)
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                raise SnapshotError(
                    "fleet state is not picklable — snapshot support needs "
                    "picklable trainer factories and trainers (module-level "
                    f"classes, not closures): {exc}"
                ) from exc
        os.replace(scratch, path)
    finally:
        if os.path.exists(scratch):
            os.remove(scratch)
    return manifest


def _read_header(f, path) -> FleetSnapshotManifest:
    try:
        header = pickle.load(f)
    except Exception as exc:
        raise SnapshotError(f"unreadable fleet snapshot {path!r}") from exc
    if (
        not isinstance(header, dict)
        or header.get("magic") != _SNAPSHOT_MAGIC
        or not isinstance(header.get("manifest"), FleetSnapshotManifest)
    ):
        raise SnapshotError(f"{path!r} is not a fleet snapshot")
    manifest = header["manifest"]
    if manifest.format_version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot format {manifest.format_version} unsupported "
            f"(this build reads format {SNAPSHOT_FORMAT_VERSION})"
        )
    return manifest


def read_snapshot(path) -> "FLFleet":
    """Rebuild the frozen fleet from :func:`write_snapshot` output."""
    with open(path, "rb") as f:
        _read_header(f, path)
        try:
            return pickle.load(f)
        except Exception as exc:
            raise SnapshotError(f"unreadable fleet snapshot {path!r}") from exc


def read_manifest(path) -> FleetSnapshotManifest:
    """The snapshot's typed header, without deserializing the fleet."""
    with open(path, "rb") as f:
        return _read_header(f, path)
