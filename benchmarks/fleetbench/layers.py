"""The per-layer split: which entry points to wrap, and what each layer
reports.

Each layer is named after the module that implements it.  A span's self
time lands in its layer, so the layers' ``self_s`` values plus
``trace.unattributed_s`` add up to the traced run's CPU time.  Names
bound with ``from ... import`` are wrapped in the module that calls them
(``run_secure_aggregation`` in ``repro.actors.aggregator``,
``client_update_cohort`` in ``repro.device.cohort``, the snapshot
functions and ``build_population`` in ``repro.system.fleet``); wrapping
the defining module would record nothing.
"""

from __future__ import annotations

from repro.actors.aggregator import Aggregator, ShardAggregator
from repro.actors.coordinator import Coordinator
from repro.actors.master_aggregator import MasterAggregator
from repro.actors.selector import Selector
from repro.device.actor import DeviceActor
from repro.nn import models as nn_models

from .tracing import Tracer, WrapSpec

_ACTOR_LAYERS = (
    (Selector, "actors.selector"),
    (Coordinator, "actors.coordinator"),
    (MasterAggregator, "actors.master_aggregator"),
    (Aggregator, "actors.aggregator"),
    (ShardAggregator, "actors.aggregator"),
    (DeviceActor, "device.actor"),
)


def actor_layer(actor: object) -> str:
    """Layer of an actor's scheduled work (its ``_run_if_alive`` timers)."""
    for cls, layer in _ACTOR_LAYERS:
        if isinstance(actor, cls):
            return layer
    return "actors.kernel"


def _count_client_steps(tracer: Tracer, args, kwargs, result) -> None:
    tracer.units["core.fedavg.client_steps"] += float(result.steps.sum())


def _count_secagg(tracer: Tracer, args, kwargs, result) -> None:
    _, metrics = result
    units = tracer.units
    units["secagg.clients"] += metrics.cohort_size
    units["secagg.key_agreement_s"] += metrics.key_agreement_seconds
    units["secagg.masking_s"] += metrics.masking_seconds
    units["secagg.recovery_s"] += metrics.recovery_seconds


def _model_specs() -> list[WrapSpec]:
    """``loss_and_grad_cohort`` on every model class that defines one."""
    specs = []
    for name in sorted(vars(nn_models)):
        obj = getattr(nn_models, name)
        if (
            isinstance(obj, type)
            and issubclass(obj, nn_models.Model)
            and obj is not nn_models.Model
            and obj.__module__ == nn_models.__name__
            and "loss_and_grad_cohort" in vars(obj)
        ):
            specs.append(WrapSpec(
                "repro.nn.models", name, "loss_and_grad_cohort", "nn",
                name="Model.loss_and_grad_cohort",
            ))
    return specs


SPECS: tuple[WrapSpec, ...] = (
    # system.builder
    WrapSpec("repro.system.builder", "FleetBuilder", "build", "system.builder"),
    WrapSpec("repro.system.fleet", "", "build_population", "system.builder"),
    WrapSpec("repro.sim.rng", "RngRegistry", "stream", "system.builder"),
    WrapSpec("repro.system.lifecycle", "PopulationLifecycle", "attach",
             "system.builder"),
    WrapSpec("repro.sim.idle_plane", "VectorizedIdlePlane", "adopt",
             "system.builder"),
    WrapSpec("repro.device.actor", "DeviceActor", "__init__", "system.builder"),
    # sim
    WrapSpec("repro.sim.event_loop", "EventLoop", "run", "sim.event_loop"),
    WrapSpec("repro.sim.idle_plane", "VectorizedIdlePlane", "_sweep",
             "sim.idle_plane"),
    WrapSpec("repro.sim.idle_plane", "VectorizedIdlePlane", "state_counts",
             "sim.idle_plane"),
    WrapSpec("repro.sim.diurnal", "AvailabilityProcess", "time_until_eligible",
             "sim.diurnal"),
    WrapSpec("repro.sim.diurnal", "AvailabilityProcess",
             "time_until_ineligible", "sim.diurnal"),
    # actors
    WrapSpec("repro.actors.kernel", "ActorSystem", "tell", "actors.kernel"),
    WrapSpec("repro.actors.kernel", "ActorSystem", "_deliver", "actors.kernel"),
    WrapSpec("repro.actors.kernel", "Actor", "_run_if_alive", actor_layer),
    WrapSpec("repro.actors.selector", "Selector", "receive", "actors.selector"),
    WrapSpec("repro.actors.selector", "Selector", "fast_checkin_decision",
             "actors.selector"),
    WrapSpec("repro.actors.coordinator", "Coordinator", "receive",
             "actors.coordinator"),
    WrapSpec("repro.actors.aggregator", "Aggregator", "receive",
             "actors.aggregator"),
    WrapSpec("repro.actors.aggregator", "Aggregator", "flush",
             "actors.aggregator"),
    WrapSpec("repro.actors.aggregator", "ShardAggregator", "receive",
             "actors.aggregator"),
    WrapSpec("repro.actors.aggregator", "ShardAggregator", "flush",
             "actors.aggregator"),
    WrapSpec("repro.actors.master_aggregator", "MasterAggregator", "receive",
             "actors.master_aggregator"),
    # device
    WrapSpec("repro.device.actor", "DeviceActor", "receive", "device.actor"),
    WrapSpec("repro.device.cohort", "CohortExecutionPlane", "enqueue",
             "device.cohort"),
    WrapSpec("repro.device.cohort", "CohortExecutionPlane", "execute_pending",
             "device.cohort"),
    # training math
    WrapSpec("repro.device.cohort", "", "client_update_cohort", "core.fedavg",
             hook=_count_client_steps),
    *_model_specs(),
    WrapSpec("repro.nn.optimizers", "SGD", "step_stack_", "nn"),
    # secure aggregation, checkpoints
    WrapSpec("repro.actors.aggregator", "", "run_secure_aggregation", "secagg",
             hook=_count_secagg),
    WrapSpec("repro.core.checkpoint", "CheckpointStore", "commit",
             "core.checkpoint"),
    # analytics
    WrapSpec("repro.system.fleet", "FLFleet", "_sample_fleet", "analytics"),
    WrapSpec("repro.analytics.quantile", "MetricSummary", "update", "analytics"),
    WrapSpec("repro.analytics.events", "EventLog", "log", "analytics"),
    WrapSpec("repro.analytics.dashboard", "Dashboard", "record", "analytics"),
    # reporting and snapshots
    WrapSpec("repro.system.fleet", "FLFleet", "health_report", "system.fleet"),
    WrapSpec("repro.system.fleet", "FLFleet", "report", "system.fleet"),
    WrapSpec("repro.system.fleet", "", "write_snapshot", "system.lifecycle"),
    WrapSpec("repro.system.fleet", "", "read_snapshot", "system.lifecycle"),
)

#: Every layer that owns spans, in report order.
LAYERS: tuple[str, ...] = (
    "system.builder",
    "sim.event_loop",
    "sim.idle_plane",
    "sim.diurnal",
    "actors.kernel",
    "actors.selector",
    "actors.coordinator",
    "actors.aggregator",
    "actors.master_aggregator",
    "device.actor",
    "device.cohort",
    "core.fedavg",
    "nn",
    "secagg",
    "core.checkpoint",
    "analytics",
    "system.fleet",
    "system.lifecycle",
)

ALL_WORKLOADS = ("idle_fleet", "tenant_control", "cohort_training", "secure_chaos")

#: Where each layer must record spans (its "should move" workloads) and
#: where it must record none.
SHOULD_MOVE: dict[str, tuple[str, ...]] = {
    "system.builder": ("idle_fleet",),
    "sim.event_loop": ("tenant_control",),
    "sim.idle_plane": ("idle_fleet",),
    "sim.diurnal": ("idle_fleet",),
    "actors.kernel": ("tenant_control",),
    "actors.selector": ("idle_fleet", "tenant_control"),
    "actors.coordinator": ("tenant_control",),
    "actors.aggregator": ("cohort_training", "tenant_control"),
    "actors.master_aggregator": ("cohort_training",),
    "device.actor": ("tenant_control", "idle_fleet"),
    "device.cohort": ("cohort_training",),
    "core.fedavg": ("cohort_training",),
    "nn": ("cohort_training",),
    "secagg": ("secure_chaos",),
    "core.checkpoint": ("cohort_training", "secure_chaos"),
    "analytics": ALL_WORKLOADS,
    "system.fleet": ("idle_fleet",),
    "system.lifecycle": ("idle_fleet",),
}
_TRAINING_ONLY = ("idle_fleet", "tenant_control", "secure_chaos")
ZERO_ON: dict[str, tuple[str, ...]] = {
    "device.cohort": _TRAINING_ONLY,
    "core.fedavg": _TRAINING_ONLY,
    "nn": _TRAINING_ONLY,
    "secagg": ("idle_fleet", "tenant_control", "cohort_training"),
}


def expectation_failures(workload: str, calls: dict[str, int]) -> list[str]:
    """Layers that broke the table: no spans where they should move, or
    spans where the table says zero."""
    failures = []
    for layer, workloads in SHOULD_MOVE.items():
        if workload in workloads and calls.get(layer, 0) == 0:
            failures.append(f"{layer}: no spans on {workload}")
    for layer, workloads in ZERO_ON.items():
        if workload in workloads and calls.get(layer, 0) != 0:
            failures.append(
                f"{layer}: {calls[layer]} spans on {workload}, expected 0"
            )
    return failures


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def per_layer_metrics(tracer: Tracer, counters: dict, traced_s: float) -> dict:
    """Every per-layer metric of one traced lifecycle, as ``name: value``.

    ``counters`` holds the fleet-side counts gathered by the lifecycle
    (events, check-ins, rounds, bytes, recovery ledger); ``traced_s`` is
    the CPU time of the traced phases.
    """
    self_s = tracer.layer_self_s
    incl = tracer.inclusive_s
    calls = tracer.calls
    units = tracer.units
    c = counters
    m: dict[str, float] = {}

    def layer_self(layer: str) -> float:
        return self_s.get(layer, 0.0)

    # system.builder
    m["system.builder.self_s"] = layer_self("system.builder")
    m["system.builder.population_s"] = incl["build_population"]
    m["system.builder.rng_stream_us"] = _per(
        incl["RngRegistry.stream"], calls["RngRegistry.stream"], 1e6)
    m["system.builder.device_init_us"] = _per(
        incl["DeviceActor.__init__"], calls["DeviceActor.__init__"], 1e6)
    m["system.builder.idle_adopt_us"] = _per(
        incl["VectorizedIdlePlane.adopt"], calls["VectorizedIdlePlane.adopt"], 1e6)
    m["system.builder.attach_s"] = incl["PopulationLifecycle.attach"]
    # sim.event_loop
    m["sim.event_loop.events"] = c["events"]
    m["sim.event_loop.self_s"] = layer_self("sim.event_loop")
    m["sim.event_loop.us_per_event"] = _per(
        layer_self("sim.event_loop"), c["events"], 1e6)
    m["sim.event_loop.heap_peak"] = c["heap_peak"]
    # sim.idle_plane
    m["sim.idle_plane.sweeps"] = c["sweeps"]
    m["sim.idle_plane.self_s"] = layer_self("sim.idle_plane")
    m["sim.idle_plane.us_per_sweep"] = _per(
        layer_self("sim.idle_plane"), c["sweeps"], 1e6)
    m["sim.idle_plane.checkins"] = c["checkins"]
    m["sim.idle_plane.fast_rejected"] = c["fast_rejected"]
    m["sim.idle_plane.admit_ratio"] = _per(c["materializations"], c["checkins"])
    # sim.diurnal
    diurnal_calls = (calls["AvailabilityProcess.time_until_eligible"]
                     + calls["AvailabilityProcess.time_until_ineligible"])
    m["sim.diurnal.calls"] = diurnal_calls
    m["sim.diurnal.self_s"] = layer_self("sim.diurnal")
    m["sim.diurnal.s"] = layer_self("sim.diurnal")
    m["sim.diurnal.us_per_call"] = _per(
        layer_self("sim.diurnal"), diurnal_calls, 1e6)
    # actors.kernel
    m["actors.kernel.messages"] = c["messages"]
    m["actors.kernel.dropped"] = c["messages_dropped"]
    m["actors.kernel.self_s"] = layer_self("actors.kernel")
    m["actors.kernel.us_per_message"] = _per(
        layer_self("actors.kernel"), c["messages"], 1e6)
    # actors.selector
    m["actors.selector.checkins"] = c["selector_checkins"]
    m["actors.selector.accepted"] = c["selector_accepted"]
    m["actors.selector.forwarded"] = c["selector_forwarded"]
    m["actors.selector.self_s"] = layer_self("actors.selector")
    m["actors.selector.us_per_checkin"] = _per(
        layer_self("actors.selector"), c["selector_checkins"], 1e6)
    m["actors.selector.accept_ratio"] = _per(
        c["selector_accepted"], c["selector_checkins"])
    # actors.coordinator
    m["actors.coordinator.calls"] = (calls["Coordinator.receive"]
                                     + calls["Coordinator._run_if_alive"])
    m["actors.coordinator.self_s"] = layer_self("actors.coordinator")
    m["actors.coordinator.ms_per_round"] = _per(
        layer_self("actors.coordinator"), c["rounds_started"], 1e3)
    # actors.aggregator
    m["actors.aggregator.reports"] = calls["Aggregator.receive"]
    m["actors.aggregator.shard_folds"] = calls["ShardAggregator.flush"]
    m["actors.aggregator.self_s"] = layer_self("actors.aggregator")
    m["actors.aggregator.us_per_report"] = _per(
        layer_self("actors.aggregator"), calls["Aggregator.receive"], 1e6)
    # actors.master_aggregator
    m["actors.master_aggregator.commits"] = c["rounds_committed"]
    m["actors.master_aggregator.self_s"] = layer_self("actors.master_aggregator")
    m["actors.master_aggregator.ms_per_round"] = _per(
        layer_self("actors.master_aggregator"), c["rounds_started"], 1e3)
    # device.actor
    m["device.actor.sessions"] = c["sessions"]
    m["device.actor.self_s"] = layer_self("device.actor")
    m["device.actor.us_per_session"] = _per(
        layer_self("device.actor"), c["sessions"], 1e6)
    # device.cohort
    m["device.cohort.executions"] = c["cohort_executions"]
    m["device.cohort.clients"] = c["cohort_clients"]
    m["device.cohort.clients_per_execution"] = _per(
        c["cohort_clients"], c["cohort_executions"])
    m["device.cohort.self_s"] = layer_self("device.cohort")
    m["device.cohort.ms_per_execution"] = _per(
        incl["CohortExecutionPlane.execute_pending"], c["cohort_executions"], 1e3)
    # core.fedavg + nn
    m["core.fedavg.self_s"] = layer_self("core.fedavg")
    m["core.fedavg.cohort_s"] = incl["client_update_cohort"]
    m["core.fedavg.us_per_client_step"] = _per(
        incl["client_update_cohort"], units["core.fedavg.client_steps"], 1e6)
    m["nn.self_s"] = layer_self("nn")
    m["nn.loss_and_grad_s"] = incl["Model.loss_and_grad_cohort"]
    m["nn.sgd_step_s"] = incl["SGD.step_stack_"]
    # secagg
    instances = calls["run_secure_aggregation"]
    m["secagg.instances"] = instances
    m["secagg.clients"] = units["secagg.clients"]
    m["secagg.self_s"] = layer_self("secagg")
    m["secagg.s"] = incl["run_secure_aggregation"]
    m["secagg.ms_per_instance"] = _per(incl["run_secure_aggregation"], instances, 1e3)
    m["secagg.key_agreement_s"] = units["secagg.key_agreement_s"]
    m["secagg.masking_s"] = units["secagg.masking_s"]
    m["secagg.recovery_s"] = units["secagg.recovery_s"]
    m["secagg.aborts"] = tracer.errors["run_secure_aggregation"]
    # core.checkpoint
    commit_calls = calls["CheckpointStore.commit"]
    m["core.checkpoint.commits"] = (
        commit_calls - tracer.errors["CheckpointStore.commit"])
    m["core.checkpoint.write_faults"] = c["checkpoint_write_faults"]
    m["core.checkpoint.self_s"] = layer_self("core.checkpoint")
    m["core.checkpoint.s"] = incl["CheckpointStore.commit"]
    m["core.checkpoint.ms_per_commit"] = _per(
        incl["CheckpointStore.commit"], commit_calls, 1e3)
    # analytics
    samples = calls["FLFleet._sample_fleet"]
    m["analytics.self_s"] = layer_self("analytics")
    m["analytics.samples"] = samples
    m["analytics.us_per_sample"] = _per(incl["FLFleet._sample_fleet"], samples, 1e6)
    m["analytics.quantile_updates"] = calls["MetricSummary.update"]
    m["analytics.quantile_s"] = incl["MetricSummary.update"]
    m["analytics.event_records"] = calls["EventLog.log"]
    m["analytics.event_log_s"] = incl["EventLog.log"]
    m["analytics.dashboard_s"] = incl["Dashboard.record"]
    # system.fleet (report)
    m["system.fleet.self_s"] = layer_self("system.fleet")
    m["system.fleet.health_s"] = incl["FLFleet.health_report"]
    m["system.fleet.report_us_per_device"] = _per(
        incl["FLFleet.report"], c["devices"], 1e6)
    m["system.fleet.round_fail_share"] = _per(
        c["rounds_started"] - c["rounds_committed"], c["rounds_started"])
    m["system.fleet.tenant_starved_share"] = 1.0 - c["tenant_served_share"]
    # system.lifecycle (snapshot)
    m["system.lifecycle.self_s"] = layer_self("system.lifecycle")
    m["system.lifecycle.snapshot_bytes"] = c["snapshot_bytes"]
    m["system.lifecycle.bytes_per_device"] = _per(c["snapshot_bytes"], c["devices"])
    m["system.lifecycle.write_s"] = incl["write_snapshot"]
    m["system.lifecycle.read_s"] = incl["read_snapshot"]
    # system.faults, sim.network (counts; no spans of their own)
    m["system.faults.injected"] = c["faults_injected"]
    m["system.faults.respawns"] = c["respawns"]
    m["system.faults.upload_retries"] = c["upload_retries"]
    m["system.faults.checkpoint_retries"] = c["checkpoint_retries"]
    m["system.faults.rounds_failed"] = c["rounds_failed"]
    m["sim.network.download_bytes"] = c["download_bytes"]
    m["sim.network.upload_bytes"] = c["upload_bytes"]
    m["sim.network.retried_bytes"] = c["retried_bytes"]
    # the trace itself
    attributed = sum(self_s.get(layer, 0.0) for layer in LAYERS)
    m["trace.run_s"] = traced_s
    m["trace.unattributed_s"] = traced_s - attributed
    return m
