"""The on-device FL runtime (Sec. 3, "Task Execution").

"If the device has been selected, the FL runtime receives the FL plan,
queries the app's example store for data requested by the plan, and
computes plan-determined model updates and metrics."

Two trainer implementations share the :class:`LocalTrainer` interface:

* :class:`RealTrainer` — executes the plan for real: queries an example
  store, runs the plan's epochs of minibatch SGD via
  :func:`repro.core.fedavg.client_update`, serializes the weighted delta.
* :class:`SyntheticTrainer` — produces a structurally identical but
  numerically trivial update at near-zero cost.  Used by fleet-scale
  protocol benchmarks (Figs. 5–8) where per-device SGD cost is irrelevant.

Both trainers run on the buffered model plane: training runs in
per-trainer pre-allocated buffers so a check-in's session performs no
per-step allocation, and a :class:`RealTrainer` whose model ships a
batched cohort kernel defers its training sessions to its population's
:class:`~repro.device.cohort.CohortExecutionPlane`.  Trainers are built
one per device, and a device never starts a new session while a report
is in flight, so per-trainer buffers are never aliased across sessions.  The
``delta_vector`` placed in a :class:`TrainResult` is never written again
by the trainer: training deltas are freshly-owned storage handed to the
reporting pipeline, and evaluation deltas may be one shared zero vector
— either way the pipeline treats report vectors as immutable (it only
reads them; an ``Aggregator(copy_pending=True)`` exists for report
sources that cannot honour this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.core.checkpoint import FLCheckpoint
from repro.core.config import TaskKind
from repro.core.datasets import ClientDataset
from repro.core.fedavg import ClientUpdateBuffers, client_update
from repro.core.plan import FLPlan
from repro.device.cohort import CohortExecutionPlane, PendingCohortResult
from repro.device.example_store import ExampleStore
from repro.nn.losses import softmax_cross_entropy
from repro.nn.models import Model
from repro.nn.parameters import Parameters


@dataclass
class TrainResult:
    """What one plan execution produces."""

    delta_vector: np.ndarray       # flattened weighted delta, n*(w - w0)
    weight: float                  # n
    num_examples: int
    metrics: dict[str, float]
    upload_nbytes: int
    train_compute_units: float     # example-epochs of work performed


@dataclass
class PendingTrainResult:
    """A deferred plan execution: simulated cost now, numbers later.

    Produced by :meth:`RealTrainer.defer` when the trainer is enrolled in
    a cohort execution plane.  The quantities a device needs *before* the
    numbers exist — example count and compute units, which set the
    simulated training duration and health accounting — are available
    immediately; :meth:`resolve` (called when the simulated training
    completes) executes the plane's pending cohort if this workload
    hasn't run yet and builds the final :class:`TrainResult`.
    """

    pending: PendingCohortResult
    epochs: int
    update_compression_ratio: float

    @property
    def num_examples(self) -> int:
        return self.pending.num_examples

    @property
    def train_compute_units(self) -> float:
        return float(self.pending.num_examples * self.epochs)

    def resolve(self) -> TrainResult:
        part = self.pending.resolve()
        raw_nbytes = part.delta_vector.size * 8
        return TrainResult(
            delta_vector=part.delta_vector,
            weight=part.weight,
            num_examples=part.num_examples,
            metrics={"loss": part.mean_loss, "num_examples": part.num_examples},
            upload_nbytes=int(raw_nbytes / max(self.update_compression_ratio, 1.0)),
            train_compute_units=self.train_compute_units,
        )

    def cancel(self) -> None:
        self.pending.cancel()


@dataclass(frozen=True)
class ComputeModel:
    """Maps training work to on-device wall time.

    ``seconds = compute_units / (examples_per_second * speed_factor)``
    where compute units are example-epochs.  The default corresponds to a
    mid-range phone running a small model.
    """

    examples_per_second: float = 200.0
    setup_overhead_s: float = 2.0

    def train_time_s(self, compute_units: float, speed_factor: float) -> float:
        if speed_factor <= 0:
            raise ValueError("speed_factor must be positive")
        return self.setup_overhead_s + compute_units / (
            self.examples_per_second * speed_factor
        )


class LocalTrainer(Protocol):
    """The FL runtime's pluggable plan executor."""

    def train(
        self, plan: FLPlan, checkpoint: FLCheckpoint, now_s: float,
        rng: np.random.Generator,
    ) -> TrainResult:
        ...


@dataclass
class RealTrainer:
    """Executes plans against a real model and example store.

    Training plans run local SGD and report a weighted delta; evaluation
    plans (Sec. 3: "FL plans ... can also encode evaluation tasks") run a
    forward pass over held-out data and report only metrics — the delta is
    zero and the upload is metrics-sized.

    The trainer owns the session's working buffers
    (:class:`ClientUpdateBuffers`) and caches the deserialized global
    checkpoint per round, so repeated sessions against the same round
    don't re-decode the payload.
    """

    model: Model
    store: ExampleStore
    update_compression_ratio: float = 1.0   # >1 when a codec is configured

    def __post_init__(self) -> None:
        self._buffers: ClientUpdateBuffers | None = None
        self._params_cache_key: tuple[str, str, int] | None = None
        self._params_cache: Parameters | None = None
        self._zero_delta: np.ndarray | None = None
        self._cohort_plane: CohortExecutionPlane | None = None

    def attach_cohort_plane(self, plane: CohortExecutionPlane) -> None:
        """Enroll this trainer in its population's cohort execution plane.

        Once enrolled, training plans are *deferred* via :meth:`defer`
        instead of executed inline (evaluation plans still run inline)."""
        self._cohort_plane = plane

    def defer(
        self,
        plan: FLPlan,
        checkpoint: FLCheckpoint,
        now_s: float,
        rng: np.random.Generator,
    ) -> PendingTrainResult | None:
        """Enqueue this session's training with the cohort plane.

        Returns ``None`` when the session should run inline instead (no
        plane attached, an evaluation plan, or a model without a batched
        cohort kernel).
        The store query and every RNG draw the inline path would make
        happen *here*, at the session's own simulated time, so deferring
        never perturbs the device's stream or the simulated timeline.
        """
        if self._cohort_plane is None:
            return None
        if plan.device.kind is not TaskKind.TRAINING:
            return None
        # Deferral pays off only when the model ships a true batched
        # kernel; the base fallback executes rows serially, so a model
        # without one trains cheaper inline than through the plane.
        if type(self.model).loss_and_grad_cohort is Model.loss_and_grad_cohort:
            return None
        x, y = self.store.query(plan.device.selection_criteria, now_s)
        if x.shape[0] == 0:
            raise RuntimeError("example store returned no data for the plan")
        params = self._checkpoint_params(checkpoint)
        round_key = (
            checkpoint.population_name,
            checkpoint.task_id,
            checkpoint.round_number,
        )
        pending = self._cohort_plane.enqueue(
            ClientDataset("local", x, y),
            params,
            plan.device.training,
            rng,
            round_key,
        )
        return PendingTrainResult(
            pending=pending,
            epochs=plan.device.training.epochs,
            update_compression_ratio=self.update_compression_ratio,
        )

    def _checkpoint_params(self, checkpoint: FLCheckpoint) -> Parameters:
        key = (
            checkpoint.population_name,
            checkpoint.task_id,
            checkpoint.round_number,
        )
        if self._params_cache is None or self._params_cache_key != key:
            self._params_cache = checkpoint.to_params()
            self._params_cache_key = key
        return self._params_cache

    def train(
        self,
        plan: FLPlan,
        checkpoint: FLCheckpoint,
        now_s: float,
        rng: np.random.Generator,
    ) -> TrainResult:
        x, y = self.store.query(plan.device.selection_criteria, now_s)
        if x.shape[0] == 0:
            raise RuntimeError("example store returned no data for the plan")
        params = self._checkpoint_params(checkpoint)
        cfg = plan.device.training
        dataset = ClientDataset("local", x, y)
        if plan.device.kind is not TaskKind.TRAINING:
            return self._evaluate(params, dataset)
        update = client_update(
            self.model,
            params,
            dataset,
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
            learning_rate=cfg.learning_rate,
            rng=rng,
            max_examples=cfg.max_examples,
            clip_update_norm=cfg.clip_update_norm,
            buffers=self._session_buffers(params),
        )
        # Fresh storage either way: the report outlives this session.
        vector = update.delta.to_vector()
        raw_nbytes = vector.size * 8
        return TrainResult(
            delta_vector=vector,
            weight=update.weight,
            num_examples=update.num_examples,
            metrics={"loss": update.mean_loss, "num_examples": update.num_examples},
            upload_nbytes=int(raw_nbytes / max(self.update_compression_ratio, 1.0)),
            train_compute_units=float(update.num_examples * cfg.epochs),
        )

    def _session_buffers(self, params: Parameters) -> ClientUpdateBuffers | None:
        """The working buffers for one training session (``None`` would
        select :func:`client_update`'s allocating reference path)."""
        if self._buffers is None or not self._buffers.matches(params):
            self._buffers = ClientUpdateBuffers.for_structure(params)
        return self._buffers

    def _zero_vector(self, num_parameters: int) -> np.ndarray:
        """Eval reports carry a zero delta; the reporting pipeline never
        mutates report vectors, so every eval report shares one."""
        if self._zero_delta is None or self._zero_delta.size != num_parameters:
            self._zero_delta = np.zeros(num_parameters)
        return self._zero_delta

    def _evaluate(self, params, dataset: ClientDataset) -> TrainResult:
        """Held-out metrics: "analogous to the validation step in data
        center training" (Sec. 3).

        One forward pass serves both metrics: the loss is derived from
        the same logits the accuracy needs (every bundled model's
        ``loss`` is softmax cross-entropy over its ``logits``), instead
        of running ``model.loss`` and ``model.logits`` back to back —
        halving an eval session's compute."""
        n = dataset.num_examples
        logits = np.asarray(self.model.logits(params, dataset.x))
        loss, _ = softmax_cross_entropy(logits, dataset.y)
        accuracy = float((logits.argmax(axis=-1) == dataset.y).mean())
        return TrainResult(
            delta_vector=self._zero_vector(params.num_parameters),
            weight=float(n),
            num_examples=n,
            metrics={"eval_loss": loss, "eval_accuracy": accuracy,
                     "num_examples": n},
            upload_nbytes=256,  # metrics payload only
            train_compute_units=0.3 * n,  # forward pass only
        )


@dataclass
class SyntheticTrainer:
    """Zero-cost stand-in producing protocol-identical updates.

    The delta is a small random vector (so aggregation math stays
    non-degenerate); example counts are sampled log-normally to model
    heterogeneous on-device data volumes.
    """

    num_parameters: int
    mean_examples: float = 100.0
    examples_sigma: float = 0.8
    update_compression_ratio: float = 3.0
    delta_scale: float = 1e-3
    metrics_template: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._zero_delta: np.ndarray | None = None

    def _zero_vector(self) -> np.ndarray:
        if self._zero_delta is None:
            self._zero_delta = np.zeros(self.num_parameters)
        return self._zero_delta

    def train(
        self,
        plan: FLPlan,
        checkpoint: FLCheckpoint,
        now_s: float,
        rng: np.random.Generator,
    ) -> TrainResult:
        n = max(
            1, int(self.mean_examples * np.exp(rng.normal(0.0, self.examples_sigma)))
        )
        n = min(n, plan.device.training.max_examples)
        if plan.device.kind is not TaskKind.TRAINING:
            metrics = {"eval_loss": float(rng.uniform(0.5, 2.0)),
                       "num_examples": n}
            metrics.update(self.metrics_template)
            return TrainResult(
                delta_vector=self._zero_vector(),
                weight=float(n),
                num_examples=n,
                metrics=metrics,
                upload_nbytes=256,
                train_compute_units=0.3 * n,
            )
        delta = rng.normal(0.0, self.delta_scale, size=self.num_parameters)
        # Scale the freshly-drawn vector in place: same values as the
        # functional `delta * n` without the second allocation.
        np.multiply(delta, n, out=delta)
        raw_nbytes = self.num_parameters * 8
        metrics = {"loss": float(rng.uniform(0.5, 2.0)), "num_examples": n}
        metrics.update(self.metrics_template)
        return TrainResult(
            delta_vector=delta,
            weight=float(n),
            num_examples=n,
            metrics=metrics,
            upload_nbytes=int(raw_nbytes / max(self.update_compression_ratio, 1.0)),
            train_compute_units=float(n * plan.device.training.epochs),
        )
