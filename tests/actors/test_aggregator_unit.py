"""Aggregator unit tests: pending-until-ack accounting and SecAgg flush."""

import numpy as np
import pytest

from repro.actors.aggregator import Aggregator
from repro.actors.kernel import Actor, ActorSystem
from repro.actors import messages as msg
from repro.core.config import SecAggConfig
from repro.sim.event_loop import EventLoop


class Sink(Actor):
    def __init__(self):
        self.messages = []

    def receive(self, sender, message):
        self.messages.append(message)


def make_harness(secagg=None):
    loop = EventLoop()
    system = ActorSystem(loop, np.random.default_rng(0), mean_latency_s=0.0)
    master = Sink()
    master_ref = system.spawn(master, "master")
    agg = Aggregator(
        round_id=1,
        task_id="t",
        master=master_ref,
        secagg=secagg or SecAggConfig(enabled=False),
        rng=np.random.default_rng(1),
    )
    agg_ref = system.spawn(agg, "agg")
    return loop, system, master, agg, agg_ref


def report(device_id, vec, weight=10.0):
    return msg.DeviceReport(
        device_id=device_id,
        round_id=1,
        delta_vector=np.asarray(vec, dtype=float),
        weight=weight,
        num_examples=int(weight),
        train_metrics={},
        upload_nbytes=80,
    )


def test_report_held_pending_until_ack():
    loop, system, master, agg, agg_ref = make_harness()
    device = Sink()
    device_ref = system.spawn(device, "device-7")
    agg.register_device(7, device_ref)
    system.tell(agg_ref, report(7, [1.0, 2.0]))
    loop.run()
    # Forwarded to the master, but not yet folded into the sum.
    assert len(master.messages) == 1
    partial = agg.flush(accepted_ids=set())
    assert partial.device_count == 0  # never accepted
    assert partial.delta_sum is None


def test_ack_accept_folds_into_sum():
    loop, system, master, agg, agg_ref = make_harness()
    device = Sink()
    device_ref = system.spawn(device, "device-7")
    agg.register_device(7, device_ref)
    system.tell(agg_ref, report(7, [1.0, 2.0], weight=5.0))
    loop.run()
    agg.ack_device(7, accepted=True)
    loop.run()
    # Device got the ack message.
    assert any(
        isinstance(m, msg.ReportAck) and m.accepted for m in device.messages
    )
    partial = agg.flush(accepted_ids=set())
    assert partial.device_count == 1
    np.testing.assert_array_equal(partial.delta_sum, [1.0, 2.0])
    assert partial.weight_sum == 5.0


def test_ack_reject_discards():
    loop, system, master, agg, agg_ref = make_harness()
    device = Sink()
    device_ref = system.spawn(device, "device-7")
    agg.register_device(7, device_ref)
    system.tell(agg_ref, report(7, [1.0, 2.0]))
    loop.run()
    agg.ack_device(7, accepted=False)
    partial = agg.flush(accepted_ids=set())
    assert partial.device_count == 0


def test_flush_resolves_in_flight_pending_with_accepted_set():
    loop, system, master, agg, agg_ref = make_harness()
    for d in (1, 2, 3):
        agg.register_device(d, system.spawn(Sink(), f"device-{d}"))
    system.tell(agg_ref, report(1, [1.0], weight=1.0))
    system.tell(agg_ref, report(2, [2.0], weight=1.0))
    system.tell(agg_ref, report(3, [4.0], weight=1.0))
    loop.run()
    # Master accepted 1 and 3 but the acks never reached the aggregator.
    partial = agg.flush(accepted_ids={1, 3})
    assert partial.device_count == 2
    np.testing.assert_array_equal(partial.delta_sum, [5.0])


def test_duplicate_and_post_drop_reports_ignored():
    loop, system, master, agg, agg_ref = make_harness()
    agg._devices = {4: None}
    system.tell(
        agg_ref,
        msg.DeviceDropped(device_id=4, round_id=1, reason="eligibility"),
    )
    loop.run()
    system.tell(agg_ref, report(4, [9.0]))
    loop.run()
    partial = agg.flush(accepted_ids={4})
    assert partial.device_count == 0  # dropped devices cannot report
    # The drop was forwarded to the master exactly once.
    drops = [m for m in master.messages if isinstance(m, msg.DeviceDropped)]
    assert len(drops) == 1


def test_wrong_round_ignored():
    loop, system, master, agg, agg_ref = make_harness()
    agg._devices = {5: None}
    bad = msg.DeviceReport(
        device_id=5, round_id=99, delta_vector=np.ones(2), weight=1.0,
        num_examples=1, train_metrics={}, upload_nbytes=8,
    )
    system.tell(agg_ref, bad)
    loop.run()
    assert master.messages == []


def test_secagg_flush_recovers_exact_sum():
    config = SecAggConfig(enabled=True, group_size=4, threshold_fraction=0.6)
    loop, system, master, agg, agg_ref = make_harness(secagg=config)
    rng = np.random.default_rng(3)
    vectors = {d: rng.normal(size=6) for d in range(6)}
    agg._devices = {d: None for d in range(6)}
    for d, vec in vectors.items():
        system.tell(agg_ref, report(d, vec, weight=float(d + 1)))
    loop.run()
    for d in vectors:
        agg.ack_device(d, accepted=True)
    partial = agg.flush(accepted_ids=set(vectors))
    assert partial.device_count == 6
    assert partial.secagg_metrics is not None
    expected = sum(vectors.values())
    np.testing.assert_allclose(partial.delta_sum, expected, atol=1e-3)
    assert partial.weight_sum == pytest.approx(sum(range(1, 7)), abs=1e-3)


def test_secagg_flush_with_non_reporting_devices():
    """Forwarded-but-silent devices enter the protocol as dropouts."""
    config = SecAggConfig(enabled=True, group_size=4, threshold_fraction=0.6)
    loop, system, master, agg, agg_ref = make_harness(secagg=config)
    rng = np.random.default_rng(4)
    agg._devices = {d: None for d in range(8)}
    vectors = {d: rng.normal(size=5) for d in range(6)}  # 2 never report
    for d, vec in vectors.items():
        system.tell(agg_ref, report(d, vec))
        loop.run()
        agg.ack_device(d, accepted=True)
    partial = agg.flush(accepted_ids=set(vectors))
    assert partial.device_count == 6
    np.testing.assert_allclose(
        partial.delta_sum, sum(vectors.values()), atol=1e-3
    )


# -- buffered fold path -------------------------------------------------------

def accept_all(agg, ids):
    for device_id in ids:
        agg.ack_device(device_id, accepted=True)


def test_fold_buffered_and_functional_byte_identical():
    """The in-place fold equals the allocating left-to-right ``+`` chain
    over the same reports, bit for bit."""
    rng = np.random.default_rng(3)
    vectors = {i: rng.normal(size=32) for i in range(6)}
    loop, system, master, agg, agg_ref = make_harness()
    for device_id, vec in vectors.items():
        system.tell(agg_ref, report(device_id, vec, weight=device_id + 1.0))
    loop.run()
    accept_all(agg, vectors)
    partial = agg.flush(accepted_ids=set(vectors))
    chain = vectors[0].copy()
    for device_id in range(1, 6):
        chain = chain + vectors[device_id]
    np.testing.assert_array_equal(np.asarray(partial.delta_sum), chain)
    assert partial.weight_sum == sum(range(1, 7))
    assert partial.device_count == len(vectors)


def test_copy_pending_stages_report_vectors():
    """With ``copy_pending`` the aggregator owns staged copies: mutating
    (reusing) the reporter's buffer after upload cannot corrupt the sum,
    and resolved stagings return to the per-round scratch pool."""
    loop, system, master, agg, agg_ref = make_harness()
    agg.copy_pending = True
    shared = np.ones(8)
    system.tell(agg_ref, report(1, shared))
    loop.run()
    shared[:] = 999.0  # reporter reuses its buffer before the ack resolves
    agg.ack_device(1, accepted=True)
    partial = agg.flush(accepted_ids=set())
    np.testing.assert_array_equal(partial.delta_sum, np.ones(8))
    assert len(agg._staging_pool) == 1
    # Rejected reports also return their staging scratch to the pool.
    loop2, system2, master2, agg2, agg_ref2 = make_harness()
    agg2.copy_pending = True
    system2.tell(agg_ref2, report(4, np.ones(8)))
    loop2.run()
    agg2.ack_device(4, accepted=False)
    assert len(agg2._staging_pool) == 1
    system2.tell(agg_ref2, report(5, np.full(8, 2.0)))
    loop2.run()
    assert len(agg2._staging_pool) == 0  # scratch reused, not re-allocated


def test_flush_secagg_stacked_augmentation_matches_per_device_concat():
    """The (n, dim+1) stacked augmentation must feed the protocol exactly
    what the per-device np.concatenate construction did."""
    rng = np.random.default_rng(4)
    secagg = SecAggConfig(enabled=True, group_size=4, threshold_fraction=0.6)
    loop, system, master, agg, agg_ref = make_harness(secagg=secagg)
    vectors = {i: rng.normal(size=12) for i in range(4)}
    for device_id, vec in vectors.items():
        device = Sink()
        agg.register_device(device_id, system.spawn(device, f"d{device_id}"))
        system.tell(agg_ref, report(device_id, vec, weight=device_id + 5.0))
    loop.run()
    accept_all(agg, vectors)
    partial = agg.flush(accepted_ids=set(vectors))
    assert partial.device_count == 4
    # The decoded sum approximates sum of vectors and weights (quantized).
    expected_sum = np.sum(list(vectors.values()), axis=0)
    np.testing.assert_allclose(partial.delta_sum, expected_sum, atol=1e-3)
    expected_weight = sum(i + 5.0 for i in vectors)
    assert abs(partial.weight_sum - expected_weight) < 1e-3
