"""Aggregator actor (Sec. 4.2): ephemeral, leaf-level update aggregation.

Aggregators receive forwarded devices, collect their reported updates and
combine them.  Without Secure Aggregation the combination is a running
``(Σ Δ, Σ n)`` — updates are "processed online as they are received
without a need to store them" (Sec. 10); an update is held only for the
few-millisecond window between upload and the Master Aggregator's
accept/reject decision, then folded into the sum or discarded.  With
Secure Aggregation enabled the Aggregator runs one protocol instance over
its cohort (Sec. 6); the cryptography executes over the observed
participation trace when the round closes, with devices that vanished
mid-round entering the protocol as post-ShareKeys dropouts.

Buffering: accepted reports fold into a
:class:`~repro.nn.parameters.ParameterAccumulator` in place (every tier
of the tree folds through :func:`fold_into`) instead of re-allocating
``delta_sum + vector`` per report.  Report vectors are
immutable by contract — trainers never write a vector again after
reporting it (eval reports may even share one zero vector), and the
aggregation pipeline only ever reads them.  An aggregator built with
``copy_pending=True`` additionally stages pending reports into a pool of
per-round scratch vectors, for report sources that may reuse their
upload buffers.

Cohort fold: under the cohort training plane, a round's report vectors
arrive as row *views* of one stacked ``(K, dim)`` delta matrix (minted
by the population's :class:`~repro.device.cohort.CohortExecutionPlane`,
one allocation per executed cohort instead of K report vectors).  The
immutability contract covers them unchanged, each row view keeps the
matrix alive for exactly as long as any consumer (pending window, SecAgg
retention) needs it, and ``add_vector`` folds a row straight into the
round's accumulator without ever materializing a per-device copy.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.actors.kernel import Actor, ActorRef
from repro.actors import messages as msg
from repro.core.config import SecAggConfig
from repro.nn.parameters import ParameterAccumulator
from repro.secagg.masking import VectorQuantizer
from repro.secagg.protocol import DropoutSchedule, SecAggError, run_secure_aggregation
from repro.tools.perf import wall_timer


def fold_into(
    accumulator: ParameterAccumulator | None, vector: np.ndarray
) -> ParameterAccumulator:
    """Fold one report vector or flushed partial sum into a running
    accumulator, creating it on the first fold (every aggregation tier)."""
    vec = np.asarray(vector, dtype=np.float64)
    if accumulator is None:
        accumulator = ParameterAccumulator(dim=vec.size)
    accumulator.add_vector(vec, 1.0)
    return accumulator


class Aggregator(Actor):
    """One leaf aggregator for one round."""

    def __init__(
        self,
        round_id: int,
        task_id: str,
        master: ActorRef,
        secagg: SecAggConfig,
        rng: np.random.Generator,
        copy_pending: bool = False,
    ):
        self.round_id = round_id
        self.task_id = task_id
        self.master = master
        self.secagg = secagg
        self.rng = rng
        self.copy_pending = copy_pending
        self._weight_sum: float = 0.0
        self._accumulator: ParameterAccumulator | None = None
        self._accepted_count = 0
        #: Reports awaiting the master's accept/reject decision.
        self._pending: dict[int, tuple[np.ndarray, float]] = {}
        #: Scratch vectors reused for pending-report staging (only when
        #: ``copy_pending``): returned here when a report resolves.
        self._staging_pool: list[np.ndarray] = []
        #: SecAgg mode: accepted vectors retained inside the crypto sim.
        self._vectors: dict[int, np.ndarray] = {}
        self._weights: dict[int, float] = {}
        self._devices: dict[int, ActorRef] = {}
        self._dropped: set[int] = set()
        self._closed = False

    # -- membership ------------------------------------------------------------
    def register_device(self, device_id: int, device_ref: ActorRef) -> None:
        self._devices[device_id] = device_ref

    @property
    def device_count(self) -> int:
        return len(self._devices)

    # -- message handling --------------------------------------------------------
    def receive(self, sender: Optional[ActorRef], message: Any) -> None:
        if isinstance(message, msg.DeviceReport):
            self._on_report(message)
        elif isinstance(message, msg.DeviceDropped):
            self._on_dropped(message)

    def _stage(self, vector: np.ndarray) -> np.ndarray:
        """Stage an incoming report vector for the pending window."""
        if not self.copy_pending:
            return vector
        scratch = self._staging_pool.pop() if self._staging_pool else None
        if scratch is None or scratch.size != vector.size:
            scratch = np.empty_like(vector)
        np.copyto(scratch, vector)
        return scratch

    def _unstage(self, vector: np.ndarray) -> None:
        if self.copy_pending:
            self._staging_pool.append(vector)

    def _on_report(self, report: msg.DeviceReport) -> None:
        if (
            report.round_id != self.round_id
            or report.device_id in self._dropped
            or report.device_id in self._pending
        ):
            return
        if self._closed:
            self._nack(report.device_id)
            return
        vector = np.asarray(report.delta_vector, dtype=np.float64)
        self._pending[report.device_id] = (self._stage(vector), report.weight)
        # The master's round state machine decides acceptance; it calls
        # back via ack_device.
        self.tell(self.master, report)

    def _on_dropped(self, dropped: msg.DeviceDropped) -> None:
        if dropped.round_id != self.round_id or self._closed:
            return
        if dropped.device_id in self._pending:
            return  # already reported; the report wins
        self._dropped.add(dropped.device_id)
        self.tell(self.master, dropped)

    def _nack(self, device_id: int) -> None:
        device = self._devices.get(device_id)
        if device is not None:
            self.tell(device, msg.ReportAck(self.round_id, accepted=False))

    def ack_device(self, device_id: int, accepted: bool) -> None:
        """Master's decision for a pending report: fold in or discard."""
        pending = self._pending.pop(device_id, None)
        if pending is not None:
            if accepted:
                self._fold_in(device_id, *pending)
            else:
                self._unstage(pending[0])
        device = self._devices.get(device_id)
        if device is not None:
            self.tell(device, msg.ReportAck(self.round_id, accepted=accepted))

    def _fold_in(self, device_id: int, vector: np.ndarray, weight: float) -> None:
        self._accepted_count += 1
        if self.secagg.enabled:
            # The crypto sim retains the vector until the round closes, so
            # a staged scratch stays checked out until flush.
            self._vectors[device_id] = vector
            self._weights[device_id] = weight
            return
        self._accumulator = fold_into(self._accumulator, vector)
        self._weight_sum += weight
        self._unstage(vector)

    # -- flush ----------------------------------------------------------------
    def flush(self, accepted_ids: set[int]) -> msg.IntermediateAggregate:
        """Produce this aggregator's intermediate sum for the round.

        ``accepted_ids`` (from the master's state machine) resolves any
        reports whose accept/reject decision is still in flight.
        """
        self._closed = True
        for device_id, (vector, weight) in list(self._pending.items()):
            if device_id in accepted_ids:
                self._fold_in(device_id, vector, weight)
        self._pending.clear()
        if self.secagg.enabled:
            return self._flush_secagg()
        # Ownership of the accumulator's buffer transfers to the message:
        # the aggregator is stopped right after the round.
        accumulator = self._accumulator
        return msg.IntermediateAggregate(
            round_id=self.round_id,
            delta_sum=None if accumulator is None else accumulator.sum_vector,
            weight_sum=self._weight_sum,
            device_count=self._accepted_count,
        )

    def _flush_secagg(self) -> msg.IntermediateAggregate:
        committed = self._vectors
        if not committed:
            return msg.IntermediateAggregate(
                round_id=self.round_id, delta_sum=None, weight_sum=0.0, device_count=0
            )
        dim = next(iter(committed.values())).shape[0]
        # The full cohort = everyone forwarded here; non-committers are
        # post-ShareKeys dropouts whose pairwise masks must be recovered.
        # Weights ride along as one extra securely-summed coordinate, since
        # FedAvg needs Σ n as well as Σ Δ (Sec. 6: sums are sufficient).
        # The cohort's augmented vectors are rows of one (n, dim+1) matrix
        # rather than n separate np.concatenate calls.
        cohort_ids = list(self._devices)
        stacked = np.zeros((len(cohort_ids), dim + 1), dtype=np.float64)
        for i, uid in enumerate(cohort_ids):
            vec = committed.get(uid)
            if vec is not None:
                stacked[i, :dim] = vec
            stacked[i, dim] = self._weights.get(uid, 0.0)
        augmented = {uid: stacked[i] for i, uid in enumerate(cohort_ids)}
        dropouts = DropoutSchedule(
            after_share=frozenset(uid for uid in self._devices if uid not in committed)
        )
        threshold = self.secagg.threshold(len(cohort_ids))
        max_abs = float(np.abs(stacked).max())
        quantizer = VectorQuantizer(
            modulus_bits=self.secagg.modulus_bits,
            clip_range=max(max_abs, 1e-6),
            max_summands=max(len(cohort_ids), 1),
        )
        try:
            total, metrics = run_secure_aggregation(
                augmented,
                threshold=threshold,
                quantizer=quantizer,
                rng=self.rng,
                dropouts=dropouts,
                timer=wall_timer,
            )
        except SecAggError:
            # Below threshold: this aggregator contributes nothing; the
            # round may still complete from other aggregators' cohorts.
            return msg.IntermediateAggregate(
                round_id=self.round_id, delta_sum=None, weight_sum=0.0, device_count=0
            )
        return msg.IntermediateAggregate(
            round_id=self.round_id,
            delta_sum=total[:-1],
            weight_sum=float(total[-1]),
            device_count=len(committed),
            secagg_metrics=metrics,
        )


class ShardAggregator(Actor):
    """Middle tier of the Sec. 4.2 aggregation tree: one per selector
    shard slot of the round, folding its leaf Aggregators' flushed
    partials into a *single* intermediate aggregate.

    Devices never talk to this actor — the report/ack control path stays
    leaf <-> master, so the round state machine is untouched.  What
    changes is the fold fan-in: the master combines one partial per shard
    aggregator instead of one per leaf, and a crashed shard aggregator
    severs exactly its own subtree's contribution (its leaves are never
    flushed), leaving the round's other shards intact — the paper's
    "only the participating devices' results are lost" failure isolation,
    lifted one level up the tree.
    """

    def __init__(self, round_id: int, task_id: str):
        self.round_id = round_id
        self.task_id = task_id
        self.leaves: list[ActorRef] = []
        #: Leaf partials folded by this node's last flush (per-shard
        #: telemetry; the master records the upward fold itself).
        self.folded_leaves = 0

    def adopt(self, leaf: ActorRef) -> None:
        self.leaves.append(leaf)

    def receive(self, sender: Optional[ActorRef], message: Any) -> None:
        pass  # folds run as synchronous intra-datacenter RPCs (flush)

    def flush(self, accepted_ids: set[int]) -> msg.IntermediateAggregate:
        """Flush every live leaf and fold the partials into one
        intermediate aggregate — the same shape the master folds, so the
        tree composes (``master.flush-of-shards`` ≡ ``shard.flush-of-
        leaves``)."""
        accumulator: ParameterAccumulator | None = None
        weight_sum = 0.0
        device_count = 0
        for leaf_ref in self.leaves:
            leaf = self.system.actor_of(leaf_ref)
            if leaf is None:
                continue  # crashed leaf: its devices are simply lost
            partial = leaf.flush(accepted_ids)  # type: ignore[attr-defined]
            if partial.delta_sum is None or partial.device_count == 0:
                continue
            self.folded_leaves += 1
            device_count += partial.device_count
            accumulator = fold_into(accumulator, partial.delta_sum)
            weight_sum += partial.weight_sum
        return msg.IntermediateAggregate(
            round_id=self.round_id,
            delta_sum=None if accumulator is None else accumulator.sum_vector,
            weight_sum=weight_sum,
            device_count=device_count,
        )
