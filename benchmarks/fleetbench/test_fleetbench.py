"""The benchmark's own tests: span arithmetic, percentile guard, wrapper
hygiene, the layer table on small fleets, and repro-lint cleanliness."""

from __future__ import annotations

import dataclasses
import functools
import os

import pytest

from repro.tools.lint.runner import lint_paths

from .layers import SPECS, expectation_failures, per_layer_metrics
from .lifecycle import run_lifecycle
from .stats import percentile, step_medians
from .tracing import Tracer, WrapSpec, install, resolve
from .workloads import HOUR, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


class ScriptedClock:
    def __init__(self, *times: float):
        self.times = list(times)

    def __call__(self) -> float:
        return self.times.pop(0)


def test_self_time_of_nested_spans():
    # outer [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    clock = ScriptedClock(0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0)
    tracer = Tracer(clock=clock)
    with tracer.span("outer", "L0"):
        with tracer.span("a", "L1"):
            with tracer.span("b", "L2"):
                pass
        with tracer.span("c", "L1"):
            pass
    assert tracer.layer_self_s == {"L0": 3.0, "L1": 2.0 + 4.0, "L2": 1.0}
    assert sum(tracer.layer_self_s.values()) == 10.0
    assert tracer.inclusive_s["a"] == 3.0
    parents = {name: parent for _, name, _, _, _, parent in tracer.spans}
    ids = {name: span_id for span_id, name, _, _, _, _ in tracer.spans}
    assert parents == {"outer": 0, "a": ids["outer"], "b": ids["a"],
                       "c": ids["outer"]}


def test_trace_file_is_trace_event_json(tmp_path):
    tracer = Tracer(clock=ScriptedClock(0.0, 1.0, 2.0, 3.0, 4.0),
                    max_spans_per_name=1)
    with tracer.span("x", "L"):
        pass
    with tracer.span("x", "L"):
        pass
    doc = tracer.trace_events()
    assert [e["ph"] for e in doc["traceEvents"]] == ["X"]
    assert doc["traceEvents"][0]["dur"] == 1e6
    assert doc["otherData"]["dropped_spans"] == {"x": 1}
    assert tracer.calls["x"] == 2
    tracer.write(str(tmp_path / "t.json"))


def test_p90_refuses_fewer_than_100_samples():
    with pytest.raises(ValueError, match="100 samples"):
        percentile(range(99), 90)
    assert percentile(range(101), 90) == 90.0
    assert percentile(range(5), 50) == 2.0


def test_step_medians_pairs_the_steps_of_replays():
    assert step_medians([[3.0, 1.0, 5.0], [2.0, 4.0, 5.5], [2.5, 1.5, 4.0]]) == [
        2.5, 1.5, 5.0]
    with pytest.raises(ValueError, match="differ in length"):
        step_medians([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        step_medians([])


def test_install_and_remove_restore_the_originals():
    originals = [resolve(spec)[1] for spec in SPECS]
    installation = install(SPECS, Tracer())
    assert all(resolve(s)[1] is not fn for s, fn in zip(SPECS, originals))
    installation.remove()
    assert all(resolve(s)[1] is fn for s, fn in zip(SPECS, originals))


def test_failed_install_leaves_nothing_patched():
    bogus = (SPECS[0], WrapSpec("repro.sim.rng", "RngRegistry", "nope", "x"))
    original = resolve(SPECS[0])[1]
    with pytest.raises(KeyError):
        install(bogus, Tracer())
    assert resolve(SPECS[0])[1] is original


#: Small versions of the four workloads: same builders and code paths,
#: a few hundred devices and a window of hours.
SMALL = {
    "idle_fleet": (1500, 4 * HOUR),
    "tenant_control": (300, 2 * HOUR),
    "cohort_training": (120, 1 * HOUR),
    "secure_chaos": (200, 2 * HOUR),
}


def small_workload(name: str):
    devices, window_s = SMALL[name]
    workload = WORKLOADS[name]
    return dataclasses.replace(
        workload,
        build=functools.partial(workload.build, devices=devices),
        window_s=window_s,
        slices=8,
        repeats=(2, 2, 2),
    )


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_matches_and_fills_the_layer_table(name, tmp_path):
    workload = small_workload(name)
    plain = run_lifecycle(
        workload, 3, str(tmp_path / "a.snapshot"), check_restore=True
    )
    assert plain["restore_ok"] is True
    assert plain["counters"]["rounds_started"] >= 1

    tracer = Tracer()
    with install(SPECS, tracer):
        traced = run_lifecycle(
            workload, 3, str(tmp_path / "b.snapshot"), repeat=False
        )
    assert traced["digest"] == plain["digest"]
    assert expectation_failures(name, tracer.layer_calls) == []

    traced_s = traced["measured"]["lifecycle_s"]
    metrics = per_layer_metrics(tracer, traced["counters"], traced_s)
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    # The split closes: layer self times + unattributed = traced run time.
    assert self_total + metrics["trace.unattributed_s"] == pytest.approx(
        traced_s, abs=1e-9)
    assert 0.0 <= metrics["trace.unattributed_s"] < 0.05 * traced_s


def test_benchmark_files_are_lint_clean():
    findings, checked = lint_paths([HERE])
    assert checked >= 5
    assert findings == []
