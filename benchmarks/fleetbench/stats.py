"""Order statistics for the benchmark's reported figures."""

from __future__ import annotations

import math
import statistics

#: A p90 needs at least 10 samples beyond it to mean anything.
MIN_SAMPLES_FOR_P90 = 100


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0-100), linearly interpolated between
    closest ranks.  Refuses tail percentiles on too few samples: a p90
    over fewer than 100 samples rests on fewer than 10 values."""
    values = sorted(samples)
    if not values:
        raise ValueError("percentile of no samples")
    if q > 50 and len(values) < MIN_SAMPLES_FOR_P90:
        raise ValueError(
            f"p{q:g} needs at least {MIN_SAMPLES_FOR_P90} samples, "
            f"got {len(values)}"
        )
    rank = (len(values) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (rank - lo)


def step_medians(runs) -> list[float]:
    """Element-wise median of equally long timing series: replays of one
    seed do the same work step for step (their digests agree)."""
    runs = [list(run) for run in runs]
    if not runs:
        raise ValueError("step_medians needs at least one run")
    if len({len(run) for run in runs}) != 1:
        raise ValueError(f"runs differ in length: {[len(r) for r in runs]}")
    return [statistics.median(step) for step in zip(*runs)]
