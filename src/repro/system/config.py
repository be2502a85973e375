"""Fleet-level configuration shared by every hosted FL population.

Everything here describes the *fleet* — how many devices exist, their
diurnal availability, the network between them and the datacenter, the
on-device job schedule — as opposed to the per-population knobs carried by
:class:`repro.system.builder.PopulationSpec` (tasks, model, pace override,
scheduling strategy).

Execution paths are not configuration: aggregation, local training and
Secure Aggregation each run one production path.  The two execution
choices left here are ``idle_plane`` and ``selector_shards``; reference
trainers reach a fleet only through a population's ``trainer_factory``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.actors.coordinator import CoordinatorConfig
from repro.core.pace import PaceConfig
from repro.device.runtime import ComputeModel, LocalTrainer
from repro.device.scheduler import SCHEDULER_POLICIES, JobSchedule
from repro.sim.diurnal import DiurnalModel
from repro.sim.network import NetworkModel
from repro.sim.population import DeviceProfile, PopulationConfig
from repro.system.faults import FaultPlan

#: Builds the per-device local trainer for one population's model.
TrainerFactory = Callable[[DeviceProfile], LocalTrainer]


def _default_job_schedule() -> JobSchedule:
    """Module-level (not a lambda) so config dataclasses stay
    pickle-exact for ``fleet.snapshot()`` — the snapshot-unsafe-state
    contract."""
    return JobSchedule(3600.0, 0.5)


@dataclass
class FleetConfig:
    """Everything needed to stand up one shared device fleet.

    ``pace`` and ``coordinator`` are fleet-wide *defaults*; individual
    populations may override them in their spec.
    """

    seed: int = 0
    population: PopulationConfig = field(default_factory=PopulationConfig)
    diurnal: DiurnalModel = field(default_factory=DiurnalModel)
    network: NetworkModel = field(default_factory=NetworkModel)
    pace: PaceConfig = field(default_factory=PaceConfig)
    coordinator: CoordinatorConfig = field(default_factory=CoordinatorConfig)
    job: JobSchedule = field(default_factory=_default_job_schedule)
    compute: ComputeModel = field(default_factory=ComputeModel)
    num_selectors: int = 2
    #: Consistent-hash control-plane sharding (:mod:`repro.system.
    #: sharding`): the Selector set is partitioned into this many disjoint
    #: shards and each population lives on exactly one — its routes,
    #: check-in traffic, and admission quotas never touch other shards,
    #: and its rounds fold through a per-shard aggregation tree.  ``1``
    #: (default) is the unsharded topology: every tenant on every
    #: Selector, rounds folded by the flat leaf funnel — byte-identical
    #: to a build without the knob.
    selector_shards: int = 1
    sample_interval_s: float = 120.0
    compute_error_prob: float = 0.005
    #: How long a checked-in device holds its selector stream open before
    #: hanging up and retrying on the job cadence (Sec. 2.3's bounded
    #: selection wait).
    waiting_timeout_s: float = 1800.0
    #: How idle devices are simulated: ``"vectorized"`` (default) keeps
    #: them as rows in the fleet-wide :class:`repro.sim.idle_plane.
    #: VectorizedIdlePlane`, advanced by batched sweeps; ``"actor"`` gives
    #: every device its own eligibility/check-in timers (the measurable
    #: baseline plane).
    idle_plane: str = "vectorized"
    #: On-device multi-tenant arbitration (Sec. 11 "Device Scheduling"):
    #: ``"fifo"`` (default) serves queued session requests in arrival
    #: order; ``"fair_share"`` round-robins across populations by
    #: least-recently-started, so a chatty tenant cannot lead every burst.
    device_scheduler: str = "fifo"
    #: Deterministic fault injection + retry/backoff recovery
    #: (:mod:`repro.system.faults`).  ``None`` (default) disables the
    #: plane entirely — no hooks, no ``faults/...`` streams, trajectories
    #: byte-identical to a build without the plane.
    faults: FaultPlan | None = None
    #: How long the cluster manager waits before respawning a crashed
    #: Selector (Sec. 4.4's "restarted by the cluster manager").
    selector_restart_delay_s: float = 5.0

    def validate(self) -> None:
        if self.num_selectors < 1:
            raise ValueError("num_selectors must be >= 1")
        if self.selector_shards < 1:
            raise ValueError("selector_shards must be >= 1")
        if self.selector_shards > self.num_selectors:
            raise ValueError(
                f"selector_shards ({self.selector_shards}) cannot exceed "
                f"num_selectors ({self.num_selectors}): every shard needs "
                f"at least one Selector"
            )
        if self.device_scheduler not in SCHEDULER_POLICIES:
            raise ValueError(
                f"device_scheduler must be one of {SCHEDULER_POLICIES}, "
                f"got {self.device_scheduler!r}"
            )
        if self.idle_plane not in ("vectorized", "actor"):
            raise ValueError(
                f"idle_plane must be 'vectorized' or 'actor', "
                f"got {self.idle_plane!r}"
            )
        if self.sample_interval_s <= 0:
            raise ValueError("sample_interval_s must be positive")
        if not 0.0 <= self.compute_error_prob <= 1.0:
            raise ValueError("compute_error_prob must be in [0, 1]")
        if self.selector_restart_delay_s < 0:
            raise ValueError("selector_restart_delay_s must be >= 0")
        if self.faults is not None:
            self.faults.validate()
        self.population.validate()


#: Legacy alias: the single-population deployment config is the fleet
#: config — :class:`repro.system.FLSystem` simply hosts one population.
FLSystemConfig = FleetConfig
