"""Host-speed probe: times a fixed piece of work next to each measured
step, so that a step's time can be expressed on a steady scale.

A benchmark host shared with other machines slows down by up to 2x for
seconds to minutes at a time: their threads contend for the same
cores.  That is far more than the changes the benchmark has to resolve.
Every measured step is therefore bracketed by two probes of this
module's fixed workload — Python objects, dicts, a heap, small and
mid-size numpy arrays, a pickle round trip, the same kinds of work the
fleet does — and reported as

    normalised = measured × REFERENCE_PROBE_S / mean(probe before, probe after)

that is, the step's time on a host on which one probe takes
``REFERENCE_PROBE_S``.  The probe is part of the benchmark, never of the
program, so a change to the program moves the normalised time exactly
as it moves the measured one; only the host's speed cancels.

All times are CPU seconds of the benchmark's single-threaded process
(``time.process_time``): time the host spends running other machines'
work instead of ours is not counted.
"""

from __future__ import annotations

import gc
import heapq
import pickle
import statistics
import time
from typing import Callable, TypeVar

import numpy as np

T = TypeVar("T")

#: One probe's time on this benchmark's reference host (2 vCPU Xeon,
#: Sapphire Rapids, KVM guest) when nothing else contends for it.
REFERENCE_PROBE_S = 1.0e-3
#: Chunks per probe; a probe reports their median.  Slices, which take
#: milliseconds, get short probes; the other steps take up to seconds,
#: and longer probes bound their error better.
SLICE_CHUNKS = 3
STEP_CHUNKS = 15


class _Item:
    __slots__ = ("key", "weight", "attrs")

    def __init__(self, i: int):
        self.key = i
        self.weight = i * 0.5
        self.attrs = {"id": i}


class HostSpeed:
    """Probe the host's speed and normalise step times by it."""

    def __init__(self, items: int = 40_000, floats: int = 1 << 18):
        self._items = [_Item(i) for i in range(items)]
        self._floats = np.arange(floats, dtype=np.float64)
        self._small = np.ones(16)
        self._blob = [{"id": i, "v": [i, i + 1, i + 2]} for i in range(200)]
        self._offset = 0
        #: Every probe taken, in order (seconds).
        self.probes: list[float] = []
        for _ in range(10):
            self._chunk()

    def _chunk(self) -> None:
        items = self._items
        n = len(items)
        start = self._offset
        self._offset = (start + 4001) % n
        counts: dict[int, int] = {}
        heap: list[int] = []
        total = 0.0
        for j in range(1000):
            item = items[(start + 7 * j) % n]
            total += item.weight
            counts[item.key & 255] = counts.get(item.key & 255, 0) + 1
            heapq.heappush(heap, (item.key * 2654435761) & 0xFFFF)
        while heap:
            heapq.heappop(heap)
        small = self._small
        for _ in range(75):
            small = small * 1.0000001 + 1e-9
        lo = (start * 16) % (self._floats.size - 32768)
        total += float(np.sum(self._floats[lo:lo + 32768] * 1.5))
        pickle.loads(pickle.dumps(self._blob, protocol=pickle.HIGHEST_PROTOCOL))

    def probe(self, chunks: int = STEP_CHUNKS) -> float:
        """Median time of ``chunks`` chunks of the fixed work.  The
        collector is paused meanwhile: a full collection of a large
        fleet's heap, triggered by the probe's own allocations, would
        time the fleet instead of the host."""
        clock = time.process_time
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(chunks):
                t = clock()
                self._chunk()
                times.append(clock() - t)
        finally:
            if was_enabled:
                gc.enable()
        probe_s = statistics.median(times)
        self.probes.append(probe_s)
        return probe_s

    def time(self, fn: Callable[[], T], before: float | None = None,
             chunks: int = STEP_CHUNKS) -> tuple[T, float, float, float]:
        """Run ``fn`` between two probes of ``chunks`` chunks.

        Returns ``(result, measured_s, normalised_s, probe_after)``.
        Pass the previous step's ``probe_after`` as ``before`` when
        nothing ran in between, to probe once per step.
        """
        if before is None:
            before = self.probe(chunks)
        t = time.process_time()
        result = fn()
        measured = time.process_time() - t
        after = self.probe(chunks)
        normalised = measured * REFERENCE_PROBE_S * 2 / (before + after)
        return result, measured, normalised, after

    def slowdown(self) -> float:
        """Median probe over the reference: how much slower than the
        reference host this run's host was."""
        return statistics.median(self.probes) / REFERENCE_PROBE_S
