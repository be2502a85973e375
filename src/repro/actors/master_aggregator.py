"""Master Aggregator actor (Sec. 4.2): owns one round of one FL task.

Spawned by the Coordinator per round; spawns leaf Aggregators sized to the
cohort (and to Secure Aggregation's group parameter ``k``); drives the
round state machine; and — crucially for the paper's storage/attack-surface
claims — keeps everything in memory, committing exactly one checkpoint to
persistent storage only after full aggregation succeeds.
"""

from __future__ import annotations

import math
from typing import Any, Optional

import numpy as np

from repro.actors.aggregator import Aggregator, ShardAggregator, fold_into
from repro.actors.kernel import Actor, ActorRef, DeathNotice
from repro.actors import messages as msg
from repro.core.checkpoint import CheckpointStore, CheckpointWriteError, FLCheckpoint
from repro.core.config import TaskConfig, TaskKind
from repro.core.rounds import (
    CheckinDecision,
    DeviceOutcome,
    RoundPhase,
    RoundStateMachine,
)
from repro.nn.parameters import ParameterAccumulator

#: Devices per leaf aggregator when Secure Aggregation is off.
_PLAIN_GROUP_SIZE = 100


class MasterAggregator(Actor):
    """Ephemeral per-round coordinator of leaf Aggregators."""

    def __init__(
        self,
        round_id: int,
        task: TaskConfig,
        coordinator: ActorRef,
        store: CheckpointStore,
        rng: np.random.Generator,
        round_listener=None,
        metrics_store=None,
        checkpoint_retry=None,  # faults.RetryPolicy; None = single attempt
        recovery=None,          # fleet RecoveryLedger, if any
        shard_slots: int = 0,   # >0: fold through that many shard aggregators
        shard_restart_delay_s: float = 5.0,
        fold_recorder=None,     # per-shard-partial fold telemetry callback
    ):
        self.round_id = round_id
        self.task = task
        self.coordinator = coordinator
        self.store = store
        self.rng = rng
        self.round_listener = round_listener
        self.metrics_store = metrics_store
        self.checkpoint_retry = checkpoint_retry
        self.recovery = recovery
        #: Sec. 4.2 aggregation tree: ``0`` keeps the flat legacy funnel
        #: (the master flushes every leaf itself — the unsharded,
        #: byte-identical path); ``>0`` interposes that many
        #: :class:`~repro.actors.aggregator.ShardAggregator` nodes, one
        #: upward fold per shard per round instead of one per leaf.
        self.shard_slots = shard_slots
        self.shard_restart_delay_s = shard_restart_delay_s
        self.fold_recorder = fold_recorder
        self.shard_aggregators: list[ActorRef] = []
        self._shard_leaves: list[list[ActorRef]] = []
        self._shard_respawns = 0
        #: Accepted devices' report metrics, summarized at round close
        #: (Sec. 7.4 "Materialized model metrics").
        self._device_metrics: list[dict[str, float]] = []
        self.state = RoundStateMachine(
            round_id=round_id,
            task_id=task.task_id,
            config=task.round_config,
            started_at_s=0.0,  # fixed in on_start when sim time is known
        )
        self.aggregators: list[ActorRef] = []
        self._agg_of_device: dict[int, ActorRef] = {}
        self._next_agg = 0
        self._finished = False
        self._reporting_armed = False

    # -- lifecycle ------------------------------------------------------------
    def on_start(self) -> None:
        self.state.started_at_s = self.now
        cohort = self.task.round_config.selection_goal
        if self.task.secagg.enabled:
            group = max(2, self.task.secagg.group_size)
        else:
            group = _PLAIN_GROUP_SIZE
        num_aggs = max(1, math.ceil(cohort / group))
        for i in range(num_aggs):
            agg = Aggregator(
                round_id=self.round_id,
                task_id=self.task.task_id,
                master=self.ref,
                secagg=self.task.secagg,
                rng=self.rng,
            )
            self.aggregators.append(
                self.system.spawn(agg, f"aggregator/{self.round_id}/{i}")
            )
        if self.shard_slots > 0:
            # The aggregation-tree middle tier: leaves are dealt round-
            # robin across shard aggregators, and the master watches each
            # node so the cluster-manager-style respawn below can heal a
            # crash that happens before the round's fold.
            tier = max(1, min(self.shard_slots, num_aggs))
            self._shard_leaves = [[] for _ in range(tier)]
            for i, leaf in enumerate(self.aggregators):
                self._shard_leaves[i % tier].append(leaf)
            for j, leaves in enumerate(self._shard_leaves):
                node = ShardAggregator(self.round_id, self.task.task_id)
                for leaf in leaves:
                    node.adopt(leaf)
                ref = self.system.spawn(node, f"shardagg/{self.round_id}/{j}")
                self.system.watch(self.ref, ref)
                self.shard_aggregators.append(ref)
        self.schedule(
            self.task.round_config.selection_timeout_s,
            self._on_selection_timeout,
        )

    def on_stop(self, crashed: bool) -> None:
        if crashed and not self._finished:
            # Sec. 4.4: "If the Master Aggregator fails, the current round
            # of the FL task it manages will fail" — the Coordinator learns
            # via its death watch and restarts.
            for agg in self.aggregators:
                self.system.stop(agg)
            for node in self.shard_aggregators:
                self.system.stop(node)

    # -- device admission -------------------------------------------------------
    def admit_device(
        self, device_id: int, device_ref: ActorRef, runtime_version: int
    ) -> tuple[CheckinDecision, ActorRef | None]:
        """Called (synchronously, via Selector forwarding) per device.

        Returns the admission decision and the Aggregator the device was
        attached to.
        """
        decision = self.state.on_checkin(device_id, self.now)
        if decision is not CheckinDecision.ACCEPT:
            return decision, None
        agg_ref = self.aggregators[self._next_agg % len(self.aggregators)]
        self._next_agg += 1
        agg = self.system.actor_of(agg_ref)
        if agg is not None:
            agg.register_device(device_id, device_ref)  # type: ignore[attr-defined]
        self._agg_of_device[device_id] = agg_ref
        self.state.on_configured(device_id, self.now)
        if self.state.phase is RoundPhase.REPORTING:
            self._arm_reporting_timeout()
        return decision, agg_ref

    # -- message handling -------------------------------------------------------
    def receive(self, sender: Optional[ActorRef], message: Any) -> None:
        if isinstance(message, msg.DeviceReport):
            self._on_report(message)
        elif isinstance(message, msg.DeviceDropped):
            self.state.on_device_dropped(
                message.device_id, self.now, reason=message.reason
            )
            self._maybe_finish_on_depletion()
        elif isinstance(message, DeathNotice):
            self._on_shard_death(message)

    # -- shard-aggregator supervision ------------------------------------------
    def _on_shard_death(self, notice: DeathNotice) -> None:
        """A watched shard aggregator died.  Crashes are healed by a
        delayed respawn (the Sec. 4.4 cluster manager, one tree level
        down): the node holds no report state — its leaves do — so a
        replacement adopting the same leaves recovers the shard's fold
        completely.  Only a crash still unhealed when the round folds
        costs the shard its contribution (ledgered at fold time)."""
        if not notice.crashed or self._finished:
            return
        for slot, ref in enumerate(self.shard_aggregators):
            if ref == notice.ref:
                self.schedule(
                    self.shard_restart_delay_s, self._respawn_shard, slot, ref
                )
                return

    def _respawn_shard(self, slot: int, dead_ref: ActorRef) -> None:
        if self._finished or self.shard_aggregators[slot] != dead_ref:
            return  # round closed, or a stale duplicate notification
        node = ShardAggregator(self.round_id, self.task.task_id)
        for leaf in self._shard_leaves[slot]:
            node.adopt(leaf)
        self._shard_respawns += 1
        ref = self.system.spawn(
            node, f"shardagg/{self.round_id}/{slot}/r{self._shard_respawns}"
        )
        self.system.watch(self.ref, ref)
        self.shard_aggregators[slot] = ref
        if self.recovery is not None:
            self.recovery.record_shard_aggregator_respawn()

    def _on_report(self, report: msg.DeviceReport) -> None:
        if report.device_id not in self.state.participants:
            return
        was_terminal = self.state.is_terminal
        outcome = self.state.on_report(report.device_id, self.now)
        if outcome is DeviceOutcome.COMPLETED and report.train_metrics:
            self._device_metrics.append(dict(report.train_metrics))
        agg_ref = self._agg_of_device.get(report.device_id)
        agg = self.system.actor_of(agg_ref) if agg_ref is not None else None
        if agg is not None:
            agg.ack_device(  # type: ignore[attr-defined]
                report.device_id, accepted=(outcome is DeviceOutcome.COMPLETED)
            )
        if self.state.is_terminal and not was_terminal and not self._finished:
            self._finish()

    def _on_selection_timeout(self) -> None:
        if self.state.phase is not RoundPhase.SELECTION:
            return
        phase = self.state.on_selection_timeout(self.now)
        if phase is RoundPhase.ABANDONED:
            self._finish()
        elif phase is RoundPhase.REPORTING:
            self._arm_reporting_timeout()

    def _arm_reporting_timeout(self) -> None:
        if self._reporting_armed:
            return
        self._reporting_armed = True
        self.schedule(
            self.task.round_config.reporting_timeout_s, self._on_reporting_timeout
        )

    def _on_reporting_timeout(self) -> None:
        if self.state.phase is not RoundPhase.REPORTING:
            return
        self.state.on_reporting_timeout(self.now)
        if not self._finished:
            self._finish()

    def _maybe_finish_on_depletion(self) -> None:
        """If every selected device already dropped, fail fast."""
        if (
            self.state.phase is RoundPhase.REPORTING
            and self.state.in_flight_count == 0
            and self.state.completed_count < self.task.round_config.min_participants
        ):
            self.state.on_reporting_timeout(self.now)
            if not self._finished:
                self._finish()

    # -- round completion -------------------------------------------------------
    def _finish(self) -> None:
        self._finished = True
        committed = False
        if self.state.phase is RoundPhase.COMPLETED:
            if self.task.kind is TaskKind.TRAINING:
                committed = self._aggregate_and_commit()
            else:
                # Evaluation rounds never touch the global model: their
                # product is the materialized metrics only (Sec. 3, 7.4).
                committed = True
        if self.metrics_store is not None and self._device_metrics:
            self.metrics_store.materialize(
                task_name=self.task.task_id,
                round_number=self.round_id,
                time_s=self.now,
                device_metrics=self._device_metrics,
                kind=self.task.kind.value,
                committed=committed,
            )
        result = self.state.result()
        # The state machine may say "completed" while aggregation or the
        # checkpoint commit failed (e.g. all aggregators crashed, or a
        # respawned coordinator already advanced the model); the result
        # must reflect reality.
        result.committed = committed
        if self.round_listener is not None:
            self.round_listener(result)
        self.tell(
            self.coordinator,
            msg.RoundFinished(
                result=result,
                committed=committed,
                round_id=self.round_id,
                task_id=self.task.task_id,
            ),
        )
        for agg in self.aggregators:
            self.system.stop(agg)
        for node in self.shard_aggregators:
            self.system.stop(node)
        self.system.stop(self.ref)

    def _aggregate_and_commit(self) -> bool:
        """Combine intermediate aggregates; write exactly one checkpoint."""
        accepted = {
            p.device_id
            for p in self.state.participants.values()
            if p.outcome is DeviceOutcome.COMPLETED
        }
        accumulator: ParameterAccumulator | None = None
        weight_sum = 0.0
        contributing = 0
        # With the aggregation tree, the master folds one partial per
        # shard aggregator (each of which flushed its own leaves); the
        # flat funnel folds one partial per leaf, byte-identical to the
        # pre-tree implementation.
        sources = self.shard_aggregators or self.aggregators
        for agg_ref in sources:
            agg = self.system.actor_of(agg_ref)
            if agg is None:
                # Crashed aggregator: its devices (flat funnel) or its
                # whole shard subtree (tree) are simply lost — the
                # round's other sources still fold.
                if self.shard_aggregators and self.recovery is not None:
                    self.recovery.record_shard_fold_abort()
                continue
            partial = agg.flush(accepted)  # type: ignore[attr-defined]
            if self.shard_aggregators and self.fold_recorder is not None:
                self.fold_recorder()
            if partial.delta_sum is None or partial.device_count == 0:
                continue
            contributing += partial.device_count
            accumulator = fold_into(accumulator, partial.delta_sum)
            weight_sum += partial.weight_sum
        if accumulator is None or weight_sum <= 0:
            return False
        if contributing < self.task.round_config.min_participants:
            return False
        try:
            previous = self.store.latest(self.task.population_name)
        except KeyError:
            return False
        params = previous.to_params()
        # Divide the round sum in place (the accumulator dies with this
        # round) and fold the average into the freshly-deserialized global
        # weights without materialising `params + avg_delta`.
        avg_vec = accumulator.sum_vector
        np.divide(avg_vec, weight_sum, out=avg_vec)
        new_params = params.add_(params.from_vector(avg_vec))
        checkpoint = FLCheckpoint.from_params(
            new_params,
            population_name=self.task.population_name,
            task_id=self.task.task_id,
            round_number=self.round_id,
            contributing_devices=contributing,
        )
        attempts = 1 + (
            self.checkpoint_retry.max_retries
            if self.checkpoint_retry is not None
            else 0
        )
        for attempt in range(attempts):
            try:
                self.store.commit(checkpoint)
                return True
            except ValueError:
                # Another incarnation already advanced the model (coordinator
                # was respawned mid-round): a logic conflict, never retried.
                return False
            except CheckpointWriteError:
                # Transient storage failure (fault plane): retry up to the
                # policy cap, then abandon the round — Sec. 4.2's invariant
                # (commit exactly once, or not at all) is preserved either
                # way.
                if self.recovery is not None and attempt + 1 < attempts:
                    self.recovery.record_checkpoint_retry()
        if self.recovery is not None:
            self.recovery.record_round_abandoned_on_commit()
        return False
