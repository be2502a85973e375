"""The tenant-starvation metric right-censors round-start gaps, so a
tenant that stalls (or never starts a round) cannot drop out of it."""

import numpy as np

from repro.tools.perf import censored_start_gaps


def test_gaps_end_with_the_open_gap_to_the_window_end():
    gaps = censored_start_gaps([900.0, 100.0, 400.0], 0.0, 1000.0)
    np.testing.assert_array_equal(gaps, [300.0, 500.0, 100.0])


def test_single_round_tenant_reports_its_stall():
    gaps = censored_start_gaps([200.0], 0.0, 86_400.0)
    np.testing.assert_array_equal(gaps, [86_200.0])


def test_tenant_without_rounds_spans_the_whole_window():
    gaps = censored_start_gaps([], 50.0, 86_450.0)
    np.testing.assert_array_equal(gaps, [86_400.0])
    # It is the worst tenant, not a skipped one.
    p95s = [
        float(np.percentile(censored_start_gaps(starts, 50.0, 86_450.0), 95))
        for starts in ([100.0, 1_000.0, 2_000.0], [])
    ]
    assert max(p95s) == 86_400.0
