"""One whole fleet lifecycle, measured: build → run → report → snapshot →
restore.

:func:`run_lifecycle` is what each fresh child process of the benchmark
executes once.  It times every phase in CPU seconds and normalises each
time by the host-speed probes around it, gathers the fleet-side
counters the per-unit metrics divide by, and computes the report digest
the correctness gate compares across runs.
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import statistics
from collections import defaultdict
from typing import Callable, TypeVar

from repro import FLFleet

from .hostspeed import SLICE_CHUNKS, STEP_CHUNKS, HostSpeed
from .workloads import Workload, eval_loss, initial_params

T = TypeVar("T")


def report_digest(report) -> str:
    """SHA-256 of the report's repr: equal iff the trajectories agree
    (dataclass reprs are field-ordered, floats print exactly)."""
    return hashlib.sha256(repr(report).encode("utf-8")).hexdigest()


def rounds_started(fleet: FLFleet) -> int:
    """Rounds started whose outcome is known: every task's start counter
    minus the rounds still open when the window closed."""
    started = sum(
        task.rounds_started
        for runtime in fleet.lifecycle.runtimes()
        for task in runtime.fl_population.tasks
    )
    open_rounds = 0
    for ref in fleet.coordinators.values():
        coordinator = fleet.actors.actor_of(ref) if ref is not None else None
        if coordinator is not None and coordinator.active_round_id is not None:
            open_rounds += 1
    return started - open_rounds


def _starts_by_tenant(fleet: FLFleet) -> dict[str, int]:
    return {
        runtime.name: sum(t.rounds_started for t in runtime.fl_population.tasks)
        for runtime in fleet.lifecycle.runtimes()
        if runtime.member_ids
    }


def served_share(before: dict[str, int], after: dict[str, int]) -> float:
    """Share of tenants with members that started a round between the two
    counts (right-censored: a tenant that never started one is unserved)."""
    if not after:
        return 0.0
    served = sum(1 for name, n in after.items() if n > before.get(name, 0))
    return served / len(after)


def _selector_totals(fleet: FLFleet) -> tuple[int, int, int]:
    checkins = accepted = forwarded = 0
    for selector in fleet.selector_actors():
        for route in selector.routes.values():
            checkins += route.stats.checkins
            accepted += route.stats.accepted
            forwarded += route.stats.forwarded
    return checkins, accepted, forwarded


def fleet_counters(fleet: FLFleet, report, events: int, heap_peak: int) -> dict:
    """The counts the per-unit and per-layer metrics divide by."""
    plane = fleet.idle_plane
    recovery = report.recovery
    checkins, accepted, forwarded = _selector_totals(fleet)
    started = rounds_started(fleet)
    return {
        "devices": len(fleet.devices),
        "events": events,
        "heap_peak": heap_peak,
        "sweeps": plane.sweeps if plane is not None else 0,
        "checkins": plane.checkins_dispatched if plane is not None else 0,
        "fast_rejected": plane.checkins_fast_rejected if plane is not None else 0,
        "materializations": plane.materializations if plane is not None else 0,
        "messages": fleet.actors.messages_delivered + fleet.actors.messages_dropped,
        "messages_dropped": fleet.actors.messages_dropped,
        "selector_checkins": checkins,
        "selector_accepted": accepted,
        "selector_forwarded": forwarded,
        "rounds_total": report.rounds_total,
        "rounds_started": started,
        "rounds_committed": report.rounds_committed,
        "sessions": sum(d.health.sessions_started for d in fleet.devices),
        "cohort_executions": sum(p.executions for p in fleet.cohort_planes.values()),
        "cohort_clients": sum(
            p.workloads_executed for p in fleet.cohort_planes.values()
        ),
        "checkpoint_write_faults": recovery.checkpoint_write_faults,
        "faults_injected": (
            recovery.faults_total + recovery.messages_dropped
            + recovery.messages_delayed + recovery.device_interrupts
            + recovery.checkpoint_write_faults
        ),
        "respawns": (
            recovery.selector_respawns + recovery.coordinator_respawns
            + recovery.shard_aggregator_respawns
        ),
        "upload_retries": recovery.upload_retries,
        "checkpoint_retries": recovery.checkpoint_write_retries,
        "rounds_failed": recovery.rounds_failed,
        "download_bytes": report.download_bytes,
        "upload_bytes": report.upload_bytes,
        "retried_bytes": fleet.config.network.meter.retried_bytes,
    }


def run_lifecycle(
    workload: Workload,
    seed: int,
    snapshot_path: str,
    check_restore: bool = False,
    repeat: bool = True,
) -> dict:
    """Build, run, report, snapshot and restore ``workload``.

    The build and the run happen once.  Report, snapshot and restore
    leave the fleet as it was; with ``repeat`` each is repeated as often
    as ``workload.repeats`` says and its median returned, each repetition
    starting from a full collection so that the collector's work inside
    it does not depend on what ran before.  A traced run passes
    ``repeat=False``, so its spans and counts cover exactly one pass
    through every phase.  With
    ``check_restore`` the original fleet is advanced one more slice
    after the snapshot, and the restored fleet must then report exactly
    what the original did.  The original is released before restoring,
    and each restored fleet before the next, so peak memory is that of
    one fleet, as for a fresh process resuming from a snapshot.

    Every timed step sits between two host-speed probes; the phase keys
    and ``slice_s`` hold normalised seconds (see :mod:`.hostspeed`), and
    ``measured`` holds every phase's CPU seconds as measured.
    """
    report_reps, snapshot_reps, restore_reps = (
        workload.repeats if repeat else (1, 1, 1))
    speed = HostSpeed()
    measured: dict[str, list[float]] = defaultdict(list)
    normalised: dict[str, list[float]] = defaultdict(list)

    def timed(phase: str, fn: Callable[[], T], before: float | None = None,
              chunks: int = STEP_CHUNKS) -> tuple[T, float]:
        result, m, n, after = speed.time(fn, before, chunks)
        measured[phase].append(m)
        normalised[phase].append(n)
        return result, after

    gc.collect()
    fleet, _ = timed("setup", lambda: workload.build(seed))

    events0 = fleet.loop.events_processed
    quarter = workload.slices - workload.slices // 4
    heap_peak = 0
    starts_at_quarter: dict[str, int] = {}
    probe = speed.probe(SLICE_CHUNKS)
    for i in range(workload.slices):
        if i == quarter:
            starts_at_quarter = _starts_by_tenant(fleet)
        _, probe = timed("slice", lambda: fleet.run_for(workload.slice_s), probe,
                         SLICE_CHUNKS)
        heap_peak = max(heap_peak, fleet.loop.heap_size)
    events = fleet.loop.events_processed - events0

    for _ in range(report_reps):
        gc.collect()
        report, _ = timed("report", fleet.report)

    counters = fleet_counters(fleet, report, events, heap_peak)
    counters["tenant_served_share"] = served_share(
        starts_at_quarter, _starts_by_tenant(fleet)
    )
    model = workload.model()
    loss = eval_loss(model, [
        fleet.global_model(runtime.name) for runtime in fleet.lifecycle.runtimes()
    ])

    for _ in range(snapshot_reps):
        gc.collect()
        timed("snapshot", lambda: fleet.snapshot(snapshot_path))
    counters["snapshot_bytes"] = os.path.getsize(snapshot_path)

    advanced_digest = None
    if check_restore:
        fleet.run_for(workload.slice_s)
        advanced_digest = report_digest(fleet.report())
    del fleet

    restored = None
    for _ in range(restore_reps):
        restored = None
        gc.collect()
        restored, _ = timed("restore", lambda: FLFleet.restore(snapshot_path))

    restore_ok = None
    if check_restore:
        restored.run_for(workload.slice_s)
        restore_ok = report_digest(restored.report()) == advanced_digest
    del restored
    os.remove(snapshot_path)

    def phases(times: dict[str, list[float]]) -> dict[str, float]:
        values = {
            "setup_s": times["setup"][0],
            "run_s": sum(times["slice"]),
            "report_s": statistics.median(times["report"]),
            "snapshot_s": statistics.median(times["snapshot"]),
            "restore_s": statistics.median(times["restore"]),
        }
        # One pass through every phase (medians of the repeated ones).
        values["lifecycle_s"] = sum(values.values())
        return values

    return {
        **phases(normalised),
        "slice_s": normalised["slice"],
        "measured": phases(measured),
        "host_slowdown": speed.slowdown(),
        "steps_timed": sum(len(times) for times in measured.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": report_digest(report),
        "eval_loss": loss,
        "initial_loss": eval_loss(model, [initial_params(model)]),
        "restore_ok": restore_ok,
        "counters": counters,
    }
