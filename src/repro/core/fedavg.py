"""Federated Averaging (Algorithm 1, Appendix B).

The server selects ``1.3K`` eligible clients, waits for updates from ``K``,
and applies the weighted average of the deltas::

    w̄_t = Σ_k Δ^k         (sum of weighted updates)
    n̄_t = Σ_k n^k         (sum of weights)
    w_{t+1} = w_t + w̄_t / n̄_t

``ClientUpdate`` runs ``epochs`` of minibatch SGD from the global weights
and returns ``Δ = n · (w - w_init)`` — the *weighted* delta, which the
paper notes is more amenable to compression than raw weights, and whose
sum-only structure is exactly what Secure Aggregation needs (Sec. 6).

:func:`client_update` has one production path and one reference kernel:

* **buffered** (``buffers=``:class:`ClientUpdateBuffers`, what every
  trainer passes): training runs in a pre-allocated working copy with
  zero per-step allocation, gradients are written into a reusable
  buffer, and the weighted delta lands in the buffer's flat delta vector;
* **functional** (``buffers=None``): every SGD step returns a new
  ``Parameters`` — the original implementation, reached only by the
  component tests and the perf harness's reference arms.

The two consume the identical RNG stream and perform the identical
elementwise float ops, so they are byte-identical (see
``tests/core/test_fedavg_buffered.py``).  A round's cohort trains as one
batched :func:`client_update_cohort` (byte-identical per client for
models whose cohort kernels are row-exact).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.datasets import ClientDataset
from repro.nn.models import Model
from repro.nn.optimizers import SGD, SGDConfig
from repro.nn.parameters import (
    ParameterAccumulator,
    ParameterLayout,
    Parameters,
    StackedParameters,
)

@dataclass
class ClientUpdateResult:
    """What one client reports back (Sec. 2.2 "Reporting")."""

    client_id: str
    delta: Parameters            # n * (w_local - w_init)
    weight: float                # n = number of local examples used
    num_examples: int
    mean_loss: float             # mean training loss over local steps
    steps: int

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(
                f"client {self.client_id}: update weight must be positive"
            )


class ClientUpdateBuffers:
    """Pre-allocated working state for buffered :func:`client_update`.

    One instance serves one parameter structure and is reused across
    sessions; everything it hands out (``result.delta`` included) aliases
    its buffers and is only valid until the next ``client_update`` call
    with the same buffers.  Callers that need the delta to outlive the
    session copy it out (``delta.to_vector()`` always returns fresh
    storage).
    """

    __slots__ = ("layout", "work", "params", "grad", "grads", "_batch_x", "_batch_y")

    def __init__(self, layout: ParameterLayout):
        self.layout = layout
        #: Flat working weights; ``params`` is its structured view.
        self.work = layout.empty()
        self.params = layout.unflatten(self.work)
        #: Flat gradient buffer; ``grads`` is its structured view.
        self.grad = layout.empty()
        self.grads = layout.unflatten(self.grad)
        #: Minibatch gather buffers, sized lazily to the first dataset.
        self._batch_x: np.ndarray | None = None
        self._batch_y: np.ndarray | None = None

    @classmethod
    def for_structure(cls, params: Parameters) -> "ClientUpdateBuffers":
        return cls(params.layout)

    def __reduce__(self):
        # Buffer contents are per-session scratch (every ``client_update``
        # call rewrites the working copy before reading it), but the
        # flat-buffer/structured-view aliasing would not survive a naive
        # pickle — so a snapshotted trainer simply restores fresh buffers.
        return (ClientUpdateBuffers, (self.layout,))

    def matches(self, params: Parameters) -> bool:
        return self.layout == params.layout

    def batch_buffers(
        self, x: np.ndarray, y: np.ndarray, batch_size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gather buffers for ``batch_size`` rows of ``x``/``y``;
        re-allocated only when the data shape or dtype changes (a device
        trains the same store session after session)."""
        bx, by = self._batch_x, self._batch_y
        if (
            bx is None
            or by is None
            or bx.shape != (batch_size, *x.shape[1:])
            or by.shape != (batch_size, *y.shape[1:])
            or bx.dtype != x.dtype
            or by.dtype != y.dtype
        ):
            bx = np.empty((batch_size, *x.shape[1:]), dtype=x.dtype)
            by = np.empty((batch_size, *y.shape[1:]), dtype=y.dtype)
            self._batch_x, self._batch_y = bx, by
        return bx, by


def client_update(
    model: Model,
    global_params: Parameters,
    dataset: ClientDataset,
    epochs: int,
    batch_size: int,
    learning_rate: float,
    rng: np.random.Generator,
    max_examples: int | None = None,
    clip_update_norm: float | None = None,
    buffers: ClientUpdateBuffers | None = None,
) -> ClientUpdateResult:
    """``ClientUpdate(w)`` from Algorithm 1: local SGD, weighted delta out."""
    data = dataset
    if max_examples is not None and dataset.num_examples > max_examples:
        idx = rng.choice(dataset.num_examples, size=max_examples, replace=False)
        data = dataset.subset(idx)
    n = data.num_examples
    if n == 0:
        raise ValueError(f"client {dataset.client_id} has no examples")
    optimizer = SGD(SGDConfig(learning_rate=learning_rate))
    losses = []
    steps = 0
    if buffers is None:
        # Functional path: each step materialises fresh Parameters.
        w = global_params
        for xb, yb in data.batches(batch_size, epochs, rng):
            loss, grads = model.loss_and_grad(w, xb, yb)
            w = optimizer.step(w, grads)
            losses.append(loss)
            steps += 1
        delta = (w - global_params).scale(float(n))
        if clip_update_norm is not None:
            delta = delta.clip_by_norm(clip_update_norm * n)
    else:
        # Buffered path: train in the working copy, zero per-step allocation.
        if not buffers.matches(global_params):
            raise ValueError("buffers were built for a different model structure")
        w = buffers.params
        w.copy_from_(global_params)
        batch_x, batch_y = buffers.batch_buffers(data.x, data.y, batch_size)
        for xb, yb in data.batches_into(batch_size, epochs, rng, batch_x, batch_y):
            loss = model.loss_and_grad_into(w, xb, yb, buffers.grads)
            optimizer.step_(w, buffers.grads)
            losses.append(loss)
            steps += 1
        # The working copy becomes the weighted delta in place.
        delta = w.sub_(global_params).scale_(float(n))
        if clip_update_norm is not None:
            delta = delta.clip_by_norm_(clip_update_norm * n)
    return ClientUpdateResult(
        client_id=dataset.client_id,
        delta=delta,
        weight=float(n),
        num_examples=n,
        mean_loss=float(np.mean(losses)),
        steps=steps,
    )


# ---------------------------------------------------------------------------
# Cohort-batched client updates (the cohort execution plane's numeric core)


@dataclass
class LocalStepSchedule:
    """One client's local-SGD randomness, drawn eagerly.

    Captures exactly the draws :func:`client_update` would make from the
    client's RNG — the optional ``max_examples`` subset first, then one
    shuffle permutation per epoch — so that deferring the *numeric*
    execution (the cohort plane batches many clients into one tensor
    program) never changes what any RNG stream produces.  Because the
    draws happen at schedule time, executing the cohort earlier, later,
    or grouped differently cannot perturb the results.
    """

    dataset: ClientDataset               # post-subset data
    orders: list[np.ndarray]             # one permutation per epoch
    batch_size: int

    @classmethod
    def draw(
        cls,
        dataset: ClientDataset,
        epochs: int,
        batch_size: int,
        rng: np.random.Generator,
        max_examples: int | None = None,
    ) -> "LocalStepSchedule":
        """Consume the same RNG draws, in the same order, as
        :func:`client_update` with the same arguments."""
        data = dataset
        if max_examples is not None and dataset.num_examples > max_examples:
            idx = rng.choice(dataset.num_examples, size=max_examples, replace=False)
            data = dataset.subset(idx)
        n = data.num_examples
        if n == 0:
            raise ValueError(f"client {dataset.client_id} has no examples")
        orders = [rng.permutation(n) for _ in range(epochs)]
        return cls(dataset=data, orders=orders, batch_size=batch_size)

    @property
    def num_examples(self) -> int:
        return self.dataset.num_examples

    @property
    def steps(self) -> int:
        n = self.dataset.num_examples
        per_epoch = -(-n // self.batch_size)
        return len(self.orders) * per_epoch


class CohortUpdateBuffers:
    """Stacked working state for :func:`client_update_cohort`.

    Owns the ``(K, ...)`` working-weight and gradient stacks plus the
    padded minibatch gather buffers, grown to the largest cohort (and
    batch shape) seen; everything handed to the kernels aliases these
    buffers and is valid only until the next execution.  The weighted
    deltas themselves are written to a caller-owned matrix
    (:meth:`StackedParameters.write_rows`), so nothing that escapes an
    execution aliases the buffers.
    """

    __slots__ = ("layout", "capacity", "work", "grads", "_batch_x", "_batch_y")

    def __init__(self, layout: ParameterLayout, capacity: int = 0):
        self.layout = layout
        self.capacity = 0
        self.work: StackedParameters | None = None
        self.grads: StackedParameters | None = None
        self._batch_x: np.ndarray | None = None
        self._batch_y: np.ndarray | None = None
        if capacity:
            self.ensure(capacity)

    def __reduce__(self):
        # Same contract as ClientUpdateBuffers: contents are per-execution
        # scratch (stale rows only ever serve as masked padding), so a
        # snapshot restores empty stacks at the same capacity.
        return (CohortUpdateBuffers, (self.layout, self.capacity))

    def ensure(self, k: int) -> None:
        """Grow the stacks to hold at least ``k`` rows."""
        if k > self.capacity:
            self.work = StackedParameters(self.layout, k)
            self.grads = StackedParameters(self.layout, k)
            self.capacity = k
            self._batch_x = None
            self._batch_y = None

    def batch_buffers(
        self, x: np.ndarray, y: np.ndarray, batch_size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Padded gather buffers ``(capacity, batch_size, ...)``.

        Zero-initialised on (re)allocation so padding slots are always
        finite (and, for integer inputs, valid ids); afterwards stale
        rows from earlier steps serve as padding, which the kernels mask
        to exact zeros.
        """
        shape_x = (self.capacity, batch_size, *x.shape[1:])
        shape_y = (self.capacity, batch_size, *y.shape[1:])
        bx, by = self._batch_x, self._batch_y
        if (
            bx is None
            or by is None
            or bx.shape != shape_x
            or by.shape != shape_y
            or bx.dtype != x.dtype
            or by.dtype != y.dtype
        ):
            bx = np.zeros(shape_x, dtype=x.dtype)
            by = np.zeros(shape_y, dtype=y.dtype)
            self._batch_x, self._batch_y = bx, by
        return bx, by


@dataclass
class CohortUpdateResult:
    """A whole cohort's client updates as one stacked result.

    ``delta_matrix`` is freshly-owned ``(K, dim)`` storage — row ``i`` is
    client ``i``'s flattened weighted delta, never written again after
    this result is built, so rows can be handed straight to the reporting
    pipeline as immutable report vectors (each row view keeps the matrix
    alive).
    """

    client_ids: list[str]
    delta_matrix: np.ndarray
    weights: np.ndarray                  # (K,) float n_k
    num_examples: np.ndarray             # (K,) int
    mean_losses: np.ndarray              # (K,)
    steps: np.ndarray                    # (K,) int
    layout: ParameterLayout

    @property
    def cohort_size(self) -> int:
        return len(self.client_ids)

    def delta_row(self, i: int) -> np.ndarray:
        """Client ``i``'s flat weighted delta (a view into the matrix)."""
        return self.delta_matrix[i]

    def result(self, i: int) -> ClientUpdateResult:
        """Client ``i``'s slice as a per-client :class:`ClientUpdateResult`."""
        return ClientUpdateResult(
            client_id=self.client_ids[i],
            delta=self.layout.unflatten(self.delta_matrix[i]),
            weight=float(self.weights[i]),
            num_examples=int(self.num_examples[i]),
            mean_loss=float(self.mean_losses[i]),
            steps=int(self.steps[i]),
        )


def client_update_cohort(
    model: Model,
    global_params: Parameters,
    schedules: Sequence[LocalStepSchedule] | None = None,
    *,
    datasets: Sequence[ClientDataset] | None = None,
    rngs: Sequence[np.random.Generator] | None = None,
    epochs: int = 1,
    batch_size: int = 16,
    learning_rate: float = 0.1,
    max_examples: int | None = None,
    clip_update_norm: float | None = None,
    buffers: CohortUpdateBuffers | None = None,
) -> CohortUpdateResult:
    """Run a whole cohort's ``ClientUpdate`` as stacked tensor ops.

    The numeric twin of ``K`` independent :func:`client_update` calls:
    client weights live as rows of stacked ``(K, ...)`` buffers, each
    local step runs one batched ``loss_and_grad_cohort`` over the padded
    per-client minibatches and one vectorized SGD step advancing all
    working copies, and per-client weighting/clipping apply as masked
    row-wise ops.  Clients with fewer local steps simply fall inactive
    (count 0 → zero gradient row → their weights stop moving).

    Pass either pre-drawn ``schedules`` (the cohort plane's deferred
    workloads) or ``datasets`` + ``rngs``, in which case the schedules
    are drawn here with exactly the RNG consumption of
    :func:`client_update`.  Row ``i`` of the result is bitwise-identical
    to the per-client call wherever the batched kernels reduce over the
    same shapes (full minibatches), and equal up to float summation
    order otherwise.
    """
    if schedules is None:
        if datasets is None or rngs is None:
            raise ValueError("need schedules, or datasets with rngs")
        if len(datasets) != len(rngs):
            raise ValueError(f"{len(datasets)} datasets vs {len(rngs)} rngs")
        schedules = [
            LocalStepSchedule.draw(d, epochs, batch_size, rng, max_examples)
            for d, rng in zip(datasets, rngs)
        ]
    if not schedules:
        raise ValueError("cannot update an empty cohort")
    k = len(schedules)
    batch_size = schedules[0].batch_size
    if any(s.batch_size != batch_size for s in schedules):
        raise ValueError("cohort members must share one batch size")
    layout = global_params.layout
    if buffers is None:
        buffers = CohortUpdateBuffers(layout, capacity=k)
    elif buffers.layout != layout:
        raise ValueError("buffers were built for a different model structure")
    buffers.ensure(k)
    assert buffers.work is not None and buffers.grads is not None
    work = buffers.work.head(k)
    grads = buffers.grads.head(k)
    work.broadcast_(global_params)

    first = schedules[0].dataset
    batch_x_full, batch_y_full = buffers.batch_buffers(
        first.x, first.y, batch_size
    )
    batch_x, batch_y = batch_x_full[:k], batch_y_full[:k]

    # The cohort's data fused into one array, so each local step gathers
    # every client's padded minibatch with a single flat fancy-index
    # instead of 2K small takes.  The whole (step -> indices, counts)
    # table is laid out up front from the schedules' permutations —
    # per-step work is then one gather, one batched kernel call, and one
    # stacked SGD step, with no per-client Python inside the loop.
    # Padding slots point at global row 0 (any valid row works — the
    # kernels mask those columns to exact zeros).
    x_all = np.concatenate([s.dataset.x for s in schedules], axis=0)
    y_all = np.concatenate([s.dataset.y for s in schedules], axis=0)
    ns_int = np.array([s.num_examples for s in schedules], dtype=np.int64)
    row_offsets = np.concatenate(([0], np.cumsum(ns_int)[:-1]))
    steps_per_client = np.array([s.steps for s in schedules], dtype=np.int64)
    total_steps = int(steps_per_client.max())

    idx_table = np.zeros((total_steps, k, batch_size), dtype=np.intp)
    cnt_table = np.zeros((total_steps, k), dtype=np.int64)
    for i, schedule in enumerate(schedules):
        n_i = int(ns_int[i])
        per_epoch = -(-n_i // batch_size)
        pos = np.arange(n_i)
        rows, cols = pos // batch_size, pos % batch_size
        seq = np.concatenate(schedule.orders) + row_offsets[i]
        for epoch in range(len(schedule.orders)):
            idx_table[epoch * per_epoch + rows, i, cols] = seq[
                epoch * n_i : (epoch + 1) * n_i
            ]
        epoch_counts = np.full(per_epoch, batch_size, dtype=np.int64)
        epoch_counts[-1] = n_i - (per_epoch - 1) * batch_size
        cnt_table[: schedule.steps, i] = np.tile(
            epoch_counts, len(schedule.orders)
        )

    gather_x = batch_x.reshape(k * batch_size, *x_all.shape[1:])
    gather_y = batch_y.reshape(k * batch_size, *y_all.shape[1:])
    ns = ns_int.astype(np.float64)
    step_losses = np.zeros((total_steps, k), dtype=np.float64)
    optimizer = SGD(SGDConfig(learning_rate=learning_rate))

    for step in range(total_steps):
        flat_idx = idx_table[step].reshape(-1)
        x_all.take(flat_idx, axis=0, out=gather_x)
        y_all.take(flat_idx, axis=0, out=gather_y)
        losses = model.loss_and_grad_cohort(
            work, batch_x, batch_y, cnt_table[step], out=grads
        )
        step_losses[step] = losses
        optimizer.step_stack_(work, grads)

    # The working stack becomes the weighted (and clipped) delta in place
    # — the stacked twin of ``w.sub_(global).scale_(n)``.
    work.sub_broadcast_(global_params)
    work.scale_rows_(ns)
    if clip_update_norm is not None:
        norms = work.row_norms()
        max_norms = clip_update_norm * ns
        factors = np.ones(k, dtype=np.float64)
        over = norms > max_norms
        factors[over] = max_norms[over] / norms[over]
        work.scale_rows_(factors)

    delta_matrix = np.empty((k, layout.total_size), dtype=np.float64)
    work.write_rows(delta_matrix)
    mean_losses = np.array(
        [
            float(np.mean(step_losses[: steps_per_client[i], i]))
            for i in range(k)
        ]
    )
    return CohortUpdateResult(
        client_ids=[s.dataset.client_id for s in schedules],
        delta_matrix=delta_matrix,
        weights=ns,
        num_examples=np.array([s.num_examples for s in schedules]),
        mean_losses=mean_losses,
        steps=steps_per_client,
        layout=layout,
    )


@dataclass(frozen=True)
class FedAvgConfig:
    """Hyperparameters of the server loop."""

    clients_per_round: int = 10           # K
    epochs: int = 1
    batch_size: int = 16
    learning_rate: float = 0.1
    server_learning_rate: float = 1.0     # scales the averaged delta
    max_examples_per_client: int | None = None
    clip_update_norm: float | None = None

    def __post_init__(self) -> None:
        if self.clients_per_round <= 0:
            raise ValueError("clients_per_round must be positive")
        if self.server_learning_rate <= 0:
            raise ValueError("server_learning_rate must be positive")


@dataclass
class RoundStats:
    """Per-round training telemetry."""

    round_number: int
    num_clients: int
    total_examples: int
    mean_client_loss: float
    update_norm: float
    eval_metrics: dict[str, float] = field(default_factory=dict)


class FederatedAveraging:
    """The FedAvg server loop over in-memory clients.

    This is the algorithm layer: no networking, no failures — those live in
    the protocol/actor layers, which call :meth:`aggregate` with whatever
    updates survived the round.  The loop owns one set of client-update
    buffers and one delta accumulator, reused across every round.
    """

    def __init__(self, model: Model, config: FedAvgConfig | None = None):
        self.model = model
        self.config = config or FedAvgConfig()
        self._buffers: ClientUpdateBuffers | None = None
        self._accumulator: ParameterAccumulator | None = None

    def initialize(self, rng: np.random.Generator) -> Parameters:
        return self.model.init(rng)

    def _buffers_for(self, params: Parameters) -> ClientUpdateBuffers:
        if self._buffers is None or not self._buffers.matches(params):
            self._buffers = ClientUpdateBuffers.for_structure(params)
        return self._buffers

    def _accumulator_for(self, params: Parameters) -> ParameterAccumulator:
        if self._accumulator is None or self._accumulator.dim != params.num_parameters:
            self._accumulator = ParameterAccumulator.like(params)
        else:
            self._accumulator.reset()
        return self._accumulator

    def aggregate(
        self, global_params: Parameters, updates: Sequence[ClientUpdateResult]
    ) -> Parameters:
        """Apply Algorithm 1's combination rule to surviving updates.

        Streaming: each delta folds into a reused accumulator buffer —
        byte-identical to the original ``delta_sum + delta`` chain.
        """
        if not updates:
            raise ValueError("cannot aggregate zero updates")
        acc = self._accumulator_for(updates[0].delta)
        weight_sum = 0.0
        for u in updates:
            # Deltas are already weighted by their example counts, so they
            # fold with weight 1; the divisor is tracked separately.
            acc.add(u.delta, 1.0)
            weight_sum += u.weight
        return self._apply_mean_delta(global_params, acc, weight_sum)

    def _apply_mean_delta(
        self,
        global_params: Parameters,
        acc: ParameterAccumulator,
        weight_sum: float,
    ) -> Parameters:
        avg_delta = global_params.from_vector(acc.scaled_sum(1.0 / weight_sum))
        return global_params.axpy(self.config.server_learning_rate, avg_delta)

    def run_round(
        self,
        round_number: int,
        global_params: Parameters,
        clients: Sequence[ClientDataset],
        rng: np.random.Generator,
    ) -> tuple[Parameters, RoundStats]:
        """Select K clients uniformly, run ClientUpdate on each, aggregate."""
        cfg = self.config
        k = min(cfg.clients_per_round, len(clients))
        if k == 0:
            raise ValueError("no clients available")
        chosen_idx = rng.choice(len(clients), size=k, replace=False)
        buffers = self._buffers_for(global_params)
        acc = self._accumulator_for(global_params)
        weight_sum = 0.0
        total_examples = 0
        client_losses = []
        for i in chosen_idx:
            update = client_update(
                self.model,
                global_params,
                clients[i],
                epochs=cfg.epochs,
                batch_size=cfg.batch_size,
                learning_rate=cfg.learning_rate,
                rng=rng,
                max_examples=cfg.max_examples_per_client,
                clip_update_norm=cfg.clip_update_norm,
                buffers=buffers,
            )
            # The delta aliases the shared buffers, so it must be folded
            # into the accumulator before the next client trains.
            acc.add(update.delta, 1.0)
            weight_sum += update.weight
            total_examples += update.num_examples
            client_losses.append(update.mean_loss)
        new_params = self._apply_mean_delta(global_params, acc, weight_sum)
        stats = RoundStats(
            round_number=round_number,
            num_clients=k,
            total_examples=total_examples,
            mean_client_loss=float(np.mean(client_losses)),
            update_norm=(new_params - global_params).l2_norm(),
        )
        return new_params, stats

    def fit(
        self,
        clients: Sequence[ClientDataset],
        num_rounds: int,
        rng: np.random.Generator,
        initial_params: Parameters | None = None,
        eval_fn: Callable[[Parameters, int], dict[str, float]] | None = None,
        eval_every: int = 10,
    ) -> tuple[Parameters, list[RoundStats]]:
        """Run ``num_rounds`` of FedAvg; optionally evaluate periodically."""
        params = initial_params if initial_params is not None else self.initialize(rng)
        history: list[RoundStats] = []
        for t in range(1, num_rounds + 1):
            params, stats = self.run_round(t, params, clients, rng)
            if eval_fn is not None and (t % eval_every == 0 or t == num_rounds):
                stats.eval_metrics = eval_fn(params, t)
            history.append(stats)
        return params, history
