"""Scalar vs vectorized plane: byte-identity, boundaries, error parity.

The vectorized plane's contract is not "approximately the same sum" —
it is byte-for-byte equivalence of every observable artifact with the
scalar plane from the same rng: masked vectors, delivered shares, ring
sum, decoded total, server metrics, post-run rng position, and the
exact SecAggError on every failure path.
"""

import numpy as np
import pytest

from repro.secagg.grouped import grouped_secure_sum
from repro.secagg.masking import VectorQuantizer
from repro.secagg.protocol import (
    DropoutSchedule,
    SecAggError,
    run_secure_aggregation,
    run_secure_aggregation_transcript,
)


def quantizer(n=16):
    return VectorQuantizer(modulus_bits=32, clip_range=4.0, max_summands=n)


def make_inputs(n=12, dim=33, seed=5):
    r = np.random.default_rng(seed)
    return {100 + u: r.uniform(-3, 3, size=dim) for u in range(n)}


def run_both(inputs, threshold, dropouts, seed=2019, q=None):
    """Run each plane from a fresh identically-seeded rng; return both
    (total, metrics, transcript, rng-position probe) tuples."""
    out = {}
    for plane in ("scalar", "vectorized"):
        rng = np.random.default_rng(seed)
        total, metrics, transcript = run_secure_aggregation_transcript(
            inputs, threshold, q or quantizer(), rng, dropouts, plane=plane
        )
        out[plane] = (total, metrics, transcript, rng.bytes(8))
    return out["scalar"], out["vectorized"]


def assert_identical(scalar, vectorized):
    (t_s, m_s, tr_s, probe_s), (t_v, m_v, tr_v, probe_v) = scalar, vectorized
    assert np.array_equal(t_s, t_v)
    assert t_s.dtype == t_v.dtype
    assert m_s == m_v
    assert probe_s == probe_v  # both planes consumed the same rng draws
    assert set(tr_s.masked) == set(tr_v.masked)
    for uid in tr_s.masked:
        assert np.array_equal(tr_s.masked[uid], tr_v.masked[uid])
        assert tr_s.masked[uid].dtype == np.uint64
    assert tr_s.shares == tr_v.shares
    assert np.array_equal(tr_s.ring_sum, tr_v.ring_sum)


@pytest.mark.parametrize(
    "dropouts",
    [
        DropoutSchedule.none(),
        DropoutSchedule(after_advertise=frozenset({103, 110})),
        DropoutSchedule(after_share=frozenset({101, 105})),
        DropoutSchedule(after_mask=frozenset({102, 111})),
        DropoutSchedule(
            after_advertise=frozenset({100}),
            after_share=frozenset({104, 109}),
            after_mask=frozenset({106, 111}),
        ),
    ],
    ids=["none", "after_advertise", "after_share", "after_mask", "all_stages"],
)
def test_planes_byte_identical_across_dropout_stages(dropouts):
    scalar, vectorized = run_both(make_inputs(), threshold=7, dropouts=dropouts)
    assert_identical(scalar, vectorized)
    # and the sum is still correct
    total, metrics, _, _ = vectorized
    survivors = set(make_inputs()) - dropouts.after_advertise - dropouts.after_share
    expected = sum(v for u, v in make_inputs().items() if u in survivors)
    assert np.abs(total - expected).max() <= quantizer().max_quantization_error(12)
    assert metrics.succeeded


def test_exactly_threshold_survivors_boundary():
    """t committers remain after round 3 — the minimum that can unmask."""
    inputs = make_inputs(n=10)
    dropouts = DropoutSchedule(
        after_share=frozenset({100}),          # one dangling-mask recovery
        after_mask=frozenset({101, 109}),      # 9 committed, 7 respond = t
    )
    scalar, vectorized = run_both(inputs, threshold=7, dropouts=dropouts)
    assert_identical(scalar, vectorized)
    _, metrics, _, _ = vectorized
    assert metrics.committed == 9
    assert metrics.dropped_after_commit == 2
    assert metrics.key_agreements == 9  # 1 dropped x 9 survivors


@pytest.mark.parametrize(
    "dropouts,expected",
    [
        (
            DropoutSchedule(after_advertise=frozenset(range(100, 106))),
            "only 4 devices shared keys, threshold is 7",
        ),
        (
            DropoutSchedule(after_share=frozenset(range(100, 106))),
            "only 4 devices committed, threshold is 7",
        ),
        (
            DropoutSchedule(after_mask=frozenset(range(100, 106))),
            "only 4 devices answered unmasking, threshold is 7",
        ),
    ],
    ids=["share_keys", "commit", "unmask"],
)
def test_below_threshold_error_identical_on_both_planes(dropouts, expected):
    inputs = make_inputs(n=10)
    observed = {}
    for plane in ("scalar", "vectorized"):
        rng = np.random.default_rng(2019)
        with pytest.raises(SecAggError) as exc:
            run_secure_aggregation(
                inputs, 7, quantizer(), rng, dropouts, plane=plane
            )
        # Error message, type, and the rng position afterwards all match:
        # a fleet that catches the error and reuses the rng stays
        # deterministic regardless of plane.
        observed[plane] = (str(exc.value), rng.bytes(8))
    assert observed["scalar"] == observed["vectorized"]
    assert observed["scalar"][0] == expected


def test_grouped_secure_sum_identical_across_planes():
    inputs = make_inputs(n=40, dim=17)
    dropouts = DropoutSchedule(
        after_share=frozenset({103, 117}), after_mask=frozenset({125})
    )
    results = {}
    for plane in ("scalar", "vectorized"):
        total, metrics = grouped_secure_sum(
            inputs,
            min_group_size=12,
            threshold_fraction=0.66,
            quantizer=quantizer(n=40),
            rng=np.random.default_rng(7),
            dropouts=dropouts,
            plane=plane,
        )
        results[plane] = (total, metrics)
    t_s, m_s = results["scalar"]
    t_v, m_v = results["vectorized"]
    assert np.array_equal(t_s, t_v)
    assert m_s == m_v
    assert len(m_s) == 3


def test_plane_lever_default_and_override():
    """The per-call ``plane=`` argument is the only plane selector: the
    vectorized plane by default, the scalar reference on request."""
    inputs = make_inputs(n=8, dim=9)
    outs = {}
    for plane in (None, "vectorized", "scalar"):
        rng = np.random.default_rng(3)
        kwargs = {} if plane is None else {"plane": plane}
        total, metrics = run_secure_aggregation(
            inputs, 6, quantizer(), rng, **kwargs
        )
        outs[plane] = (total, metrics, rng.bytes(8))
    assert np.array_equal(outs[None][0], outs["vectorized"][0])
    assert outs[None][1:] == outs["vectorized"][1:]
    assert np.array_equal(outs[None][0], outs["scalar"][0])
    with pytest.raises(ValueError, match="secagg plane must be one of"):
        run_secure_aggregation(
            make_inputs(n=8, dim=9), 6, quantizer(),
            np.random.default_rng(3), plane="turbo",
        )


def test_server_seconds_zero_without_timer_and_positive_with():
    ticks = iter(float(i) for i in range(100))
    inputs = make_inputs(n=8, dim=9)
    for plane in ("scalar", "vectorized"):
        _, metrics = run_secure_aggregation(
            inputs, 6, quantizer(), np.random.default_rng(3), plane=plane
        )
        assert metrics.server_seconds == 0.0
    _, metrics = run_secure_aggregation(
        inputs, 6, quantizer(), np.random.default_rng(3),
        plane="vectorized", timer=lambda: next(ticks),
    )
    assert metrics.server_seconds == 1.0  # two injected ticks, one apart


def test_phase_seconds_on_single_instance():
    inputs = make_inputs(n=8, dim=9)
    _, metrics = run_secure_aggregation(
        inputs, 6, quantizer(), np.random.default_rng(3), plane="vectorized"
    )
    assert (metrics.key_agreement_seconds, metrics.masking_seconds,
            metrics.recovery_seconds) == (0.0, 0.0, 0.0)
    ticks = iter(float(i) for i in range(100))
    _, metrics = run_secure_aggregation(
        inputs, 6, quantizer(), np.random.default_rng(3),
        plane="vectorized", timer=lambda: next(ticks),
    )
    assert metrics.key_agreement_seconds > 0.0
    assert metrics.masking_seconds > 0.0
    # Phases partition the instrumented span.
    assert (
        metrics.key_agreement_seconds
        + metrics.masking_seconds
        + metrics.recovery_seconds
    ) > 0.0
