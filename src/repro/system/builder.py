"""Declarative fleet construction: validate the whole topology, then spawn.

:class:`FleetBuilder` collects fleet-wide knobs and per-population specs,
validates everything up front (duplicate names, empty task lists, dangling
membership references, weight/range errors), and only then asks
:class:`repro.system.fleet.FLFleet` to spawn actors.  Nothing touches the
event loop until the topology is known-good::

    fleet = (
        FLFleet.builder()
        .seed(7)
        .devices(PopulationConfig(num_devices=600))
        .selectors(3)
        .population("kbd", tasks=[train, evaluate], model=params)
        .population("analytics", tasks=[stats], model=stats_params,
                    membership=0.5)
        .build()
    )
    fleet.run_days(1.0)
    report = fleet.report()
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from repro.actors.coordinator import CoordinatorConfig
from repro.core.config import TaskConfig
from repro.core.pace import PaceConfig
from repro.core.plan import FLPlan
from repro.core.task import SchedulingStrategy
from repro.device.runtime import ComputeModel
from repro.device.scheduler import JobSchedule
from repro.nn.parameters import Parameters
from repro.sim.diurnal import DiurnalModel
from repro.sim.network import NetworkModel
from repro.sim.population import PopulationConfig
from repro.system.config import FleetConfig, TrainerFactory
from repro.system.faults import FaultPlan


class FleetValidationError(ValueError):
    """The declared topology is inconsistent; nothing was spawned."""


@dataclass
class PopulationSpec:
    """One FL population's declaration: tasks, model, and fleet share.

    ``membership_fraction`` is the deterministic share of the device fleet
    enrolled in this population (explicit per-device overrides win).
    ``pace`` / ``coordinator`` override the fleet defaults for this
    population only.
    """

    name: str
    tasks: list[TaskConfig]
    initial_params: Parameters
    plan: FLPlan | None = None
    strategy: SchedulingStrategy = SchedulingStrategy.ROUND_ROBIN
    trainer_factory: TrainerFactory | None = None
    membership_fraction: float = 1.0
    pace: PaceConfig | None = None
    coordinator: CoordinatorConfig | None = None

    def validate(self) -> None:
        if not self.name:
            raise FleetValidationError("population name must be non-empty")
        if not self.tasks:
            raise FleetValidationError(
                f"population {self.name!r} declares no tasks"
            )
        seen: set[str] = set()
        for task in self.tasks:
            if task.population_name != self.name:
                raise FleetValidationError(
                    f"task {task.task_id!r} targets population "
                    f"{task.population_name!r}, not {self.name!r}"
                )
            if task.task_id in seen:
                raise FleetValidationError(
                    f"duplicate task id {task.task_id!r} in population "
                    f"{self.name!r}"
                )
            seen.add(task.task_id)
        if not 0.0 < self.membership_fraction <= 1.0:
            raise FleetValidationError(
                f"population {self.name!r}: membership fraction must be in "
                f"(0, 1], got {self.membership_fraction}"
            )

    @property
    def pool_cap(self) -> int:
        """Selector soft-quota: sized to the *largest* round any of this
        population's tasks will run (2x its selection goal, floor 50)."""
        return max(
            2 * max(t.round_config.selection_goal for t in self.tasks), 50
        )


class FleetBuilder:
    """Fluent builder for a multi-population :class:`FLFleet`."""

    def __init__(self) -> None:
        self._config = FleetConfig()
        self._specs: list[PopulationSpec] = []
        self._membership_overrides: dict[int, tuple[str, ...]] = {}

    # -- fleet-wide knobs -----------------------------------------------------
    def seed(self, seed: int) -> "FleetBuilder":
        self._config.seed = int(seed)
        return self

    def devices(
        self,
        population: PopulationConfig,
        memberships: Mapping[int, Sequence[str]] | None = None,
    ) -> "FleetBuilder":
        """The shared device fleet, with optional explicit per-device
        population memberships (device id -> population names)."""
        self._config.population = population
        if memberships is not None:
            self._membership_overrides = {
                int(device_id): tuple(names)
                for device_id, names in memberships.items()
            }
        return self

    def selectors(self, count: int) -> "FleetBuilder":
        self._config.num_selectors = int(count)
        return self

    def selector_shards(self, count: int) -> "FleetBuilder":
        """Partition the Selector set into ``count`` consistent-hash
        shards (:mod:`repro.system.sharding`): each population's routes,
        check-in traffic, and admission quotas live on its owning shard
        only, and its rounds fold through a per-shard aggregation tree.
        ``1`` (the default) is the unsharded, byte-identical legacy
        topology."""
        self._config.selector_shards = int(count)
        return self

    def diurnal(self, model: DiurnalModel) -> "FleetBuilder":
        self._config.diurnal = model
        return self

    def network(self, model: NetworkModel) -> "FleetBuilder":
        self._config.network = model
        return self

    def job(self, schedule: JobSchedule) -> "FleetBuilder":
        self._config.job = schedule
        return self

    def compute(self, model: ComputeModel) -> "FleetBuilder":
        self._config.compute = model
        return self

    def pace(self, config: PaceConfig) -> "FleetBuilder":
        """Fleet-default pace steering (populations may override)."""
        self._config.pace = config
        return self

    def coordinator(self, config: CoordinatorConfig) -> "FleetBuilder":
        """Fleet-default round-scheduling policy (populations may override)."""
        self._config.coordinator = config
        return self

    def idle_plane(self, mode: str) -> "FleetBuilder":
        """How idle devices are simulated: ``"vectorized"`` (fleet-wide
        arrays swept in batch, the default) or ``"actor"`` (per-device
        timers, the measurable baseline)."""
        self._config.idle_plane = str(mode)
        return self

    def device_scheduler(self, policy: str) -> "FleetBuilder":
        """On-device multi-tenant arbitration: ``"fifo"`` (arrival order,
        the default) or ``"fair_share"`` (round-robin across populations
        by least-recently-started — see
        :class:`repro.device.scheduler.MultiTenantScheduler`)."""
        self._config.device_scheduler = str(policy)
        return self

    def sample_interval(self, seconds: float) -> "FleetBuilder":
        self._config.sample_interval_s = float(seconds)
        return self

    def compute_error_prob(self, prob: float) -> "FleetBuilder":
        self._config.compute_error_prob = float(prob)
        return self

    def waiting_timeout(self, seconds: float) -> "FleetBuilder":
        """How long a checked-in device waits unselected before hanging up."""
        self._config.waiting_timeout_s = float(seconds)
        return self

    def faults(self, plan: FaultPlan) -> "FleetBuilder":
        """Enable the deterministic fault-injection plane
        (:mod:`repro.system.faults`): actor crashes, device-edge message
        drop/delay, checkpoint write failures, device interrupts — plus
        the bounded-retry recovery policies.  Off by default."""
        self._config.faults = plan
        return self

    # -- populations -----------------------------------------------------------
    def population(
        self,
        name: str,
        tasks: Sequence[TaskConfig],
        model: Parameters,
        plan: FLPlan | None = None,
        strategy: SchedulingStrategy = SchedulingStrategy.ROUND_ROBIN,
        trainer_factory: TrainerFactory | None = None,
        membership: float = 1.0,
        pace: PaceConfig | None = None,
        coordinator: CoordinatorConfig | None = None,
    ) -> "FleetBuilder":
        """Declare one FL population hosted on the fleet.

        ``model`` is the initial global model (round-0 checkpoint);
        ``membership`` is the fraction of devices enrolled (sampled
        deterministically from the fleet seed).
        """
        if any(spec.name == name for spec in self._specs):
            raise FleetValidationError(f"duplicate population name {name!r}")
        spec = PopulationSpec(
            name=name,
            tasks=list(tasks),
            initial_params=model,
            plan=plan,
            strategy=strategy,
            trainer_factory=trainer_factory,
            membership_fraction=membership,
            pace=pace,
            coordinator=coordinator,
        )
        spec.validate()
        self._specs.append(spec)
        return self

    def add_spec(self, spec: PopulationSpec) -> "FleetBuilder":
        """Escape hatch for a fully-formed spec (validated immediately)."""
        if any(existing.name == spec.name for existing in self._specs):
            raise FleetValidationError(
                f"duplicate population name {spec.name!r}"
            )
        spec.validate()
        self._specs.append(spec)
        return self

    # -- validation + build -----------------------------------------------------
    def validate(self) -> None:
        """Check the whole topology; raises :class:`FleetValidationError`
        without spawning anything."""
        if not self._specs:
            raise FleetValidationError("fleet declares no populations")
        for spec in self._specs:
            spec.validate()
        try:
            self._config.validate()
        except ValueError as exc:
            raise FleetValidationError(str(exc)) from exc
        known = {spec.name for spec in self._specs}
        num_devices = self._config.population.num_devices
        for device_id, names in self._membership_overrides.items():
            if not 0 <= device_id < num_devices:
                raise FleetValidationError(
                    f"membership override for unknown device id {device_id} "
                    f"(fleet has {num_devices} devices)"
                )
            unknown = [n for n in names if n not in known]
            if unknown:
                raise FleetValidationError(
                    f"device {device_id} membership references unknown "
                    f"population(s) {unknown}"
                )

    def build(self) -> "FLFleet":
        """Validate the topology, then spawn the fleet (actors, devices,
        coordinators) on a fresh event loop."""
        from repro.system.fleet import FLFleet

        self.validate()
        fleet = FLFleet(replace(self._config))
        fleet._install(
            [spec for spec in self._specs],
            dict(self._membership_overrides),
        )
        return fleet
