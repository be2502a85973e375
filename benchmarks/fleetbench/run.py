#!/usr/bin/env python3
"""Whole-lifecycle fleet benchmark: build → run → report → snapshot →
restore, per workload, with a correctness gate and a traced layer split.

Usage (from the repository root)::

    python3 benchmarks/fleetbench/run.py --workload idle_fleet --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics: fresh child processes
each build and run the workload once and time its report, snapshot and
restore, while another child still fits in ``--seconds`` (at least
two children).  Times are CPU seconds, normalised by host-speed probes
taken around each timed step (see ``hostspeed.py``).  The figures are
medians over the children, slice by slice for the slice figures and the
run time.
``--trace 1`` runs one untraced and one traced child, reports the
per-layer split and writes the spans to ``benchmarks/fleetbench/out/``
as trace-event JSON.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
OUT = os.path.join(HERE, "out")

#: Children per timed run, at least; more while ``--seconds`` allows.
MIN_CHILDREN = 2
#: Stop spawning children once another one could overrun this budget.
RUN_BUDGET_S = 150.0
CHILD_TIMEOUT_S = 170.0

#: End-to-end metrics and their units, in report order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_days_per_s": "1/s",
    "slice_ms_p50": "ms",
    "slice_ms_p90": "ms",
    "round_ms": "ms",
    "checkin_us": "us",
    "report_s": "s",
    "snapshot_s": "s",
    "restore_s": "s",
    "peak_rss_mb": "MB",
    "rounds_per_sim_day": "1/day",
    "round_commit_share": "share",
    "tenant_served_share": "share",
    "eval_loss": "nats",
}


def _import_benchmark() -> None:
    for path in (SRC, os.path.dirname(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


# -- child: one lifecycle in this process -----------------------------------------


def child_main(args: argparse.Namespace) -> None:
    from fleetbench.layers import SPECS, expectation_failures, per_layer_metrics
    from fleetbench.lifecycle import run_lifecycle
    from fleetbench.tracing import Tracer, install, resolve
    from fleetbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    snapshot_path = os.path.join(OUT, f"{stem}.snapshot")
    if not args.trace:
        result = run_lifecycle(
            workload, args.seed, snapshot_path, check_restore=args.check_restore
        )
        _emit(result)

    originals = [resolve(spec)[1] for spec in SPECS]
    tracer = Tracer()
    installation = install(SPECS, tracer)
    try:
        result = run_lifecycle(workload, args.seed, snapshot_path, repeat=False)
    finally:
        installation.remove()
    result["wrappers_removed"] = all(
        resolve(spec)[1] is fn for spec, fn in zip(SPECS, originals)
    )
    # The split closes against the measured CPU time of the traced pass.
    result["per_layer"] = per_layer_metrics(
        tracer, result["counters"], result["measured"]["lifecycle_s"]
    )
    result["layer_failures"] = expectation_failures(
        args.workload, tracer.layer_calls
    )
    trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    tracer.write(trace_path, workload=args.workload, seed=args.seed,
                 digest=result["digest"])
    result["trace_path"] = os.path.relpath(trace_path, REPO)
    _emit(result)


def _emit(result: dict) -> None:
    """Print the child's result and exit at once: tearing down a fleet's
    heap object by object would only add time to the run."""
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    os._exit(0)


# -- parent: spawn children, aggregate, gate ---------------------------------------


def spawn_child(workload: str, seed: int, trace: bool, check_restore: bool) -> dict:
    cmd = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(seed),
        "--trace", "1" if trace else "0",
        "--check-restore", "1" if check_restore else "0",
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        cmd, cwd=REPO, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def end_to_end_metrics(children: list[dict], window_s: float) -> dict:
    """The run's end-to-end figures, from normalised times.  Every child
    replays the same seed (the gate checks their digests agree), so the
    slice figures and the run time use each slice's median over the
    children."""
    from fleetbench.stats import percentile, step_medians

    slice_s = step_medians(ch["slice_s"] for ch in children)
    slices_ms = [s * 1e3 for s in slice_s]
    run_s = sum(slice_s)
    first = children[0]
    c = first["counters"]
    sim_days = window_s / 86400.0
    return {
        "setup_s": median([ch["setup_s"] for ch in children]),
        "sim_days_per_s": sim_days / run_s,
        "slice_ms_p50": percentile(slices_ms, 50),
        "slice_ms_p90": percentile(slices_ms, 90),
        "round_ms": _per(run_s, c["rounds_total"], 1e3),
        "checkin_us": _per(run_s, c["checkins"], 1e6),
        "report_s": median([ch["report_s"] for ch in children]),
        "snapshot_s": median([ch["snapshot_s"] for ch in children]),
        "restore_s": median([ch["restore_s"] for ch in children]),
        "peak_rss_mb": median([ch["peak_rss_mb"] for ch in children]),
        "rounds_per_sim_day": c["rounds_committed"] / sim_days,
        "round_commit_share": _per(c["rounds_committed"], c["rounds_started"]),
        "tenant_served_share": c["tenant_served_share"],
        "eval_loss": first["eval_loss"],
    }


def correctness_failures(children: list[dict], trains: bool) -> list[str]:
    failures = []
    digests = sorted({ch["digest"] for ch in children})
    if len(digests) != 1:
        failures.append(f"(a) runs disagree on the RunReport digest: {digests}")
    for ch in children:
        if ch["restore_ok"] is False:
            failures.append("(b) restored fleet diverged from the original")
    first = children[0]
    if trains and not first["eval_loss"] < first["initial_loss"]:
        failures.append(
            f"(c) eval_loss {first['eval_loss']:.4f} not below the initial "
            f"model's {first['initial_loss']:.4f}"
        )
    if first["counters"]["rounds_started"] < 1:
        failures.append("(d) no round started")
    return failures


def parent_main(args: argparse.Namespace) -> int:
    from fleetbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    start = time.monotonic()
    children: list[dict] = []
    if args.trace:
        children.append(spawn_child(args.workload, args.seed, False, True))
        traced = spawn_child(args.workload, args.seed, True, False)
        children.append(traced)
    else:
        while True:
            children.append(spawn_child(
                args.workload, args.seed, False, check_restore=not children
            ))
            elapsed = time.monotonic() - start
            # Spawn another child only while it should fit in the run.
            finish = elapsed + elapsed / len(children)
            if len(children) >= MIN_CHILDREN and finish > args.seconds:
                break
            if finish > RUN_BUDGET_S:
                break

    failures = correctness_failures(children, workload.trains)
    c = children[0]["counters"]
    print(
        f"workload={args.workload} seed={args.seed} devices={c['devices']} "
        f"slices={workload.slices}x{len(children)} "
        f"window_s={workload.window_s:g} digest={children[0]['digest']}"
    )
    started, committed = c["rounds_started"], c["rounds_committed"]
    print(
        f"rounds started={started} committed={committed} "
        f"round_fail_share={_per(started - committed, started):.4f} "
        f"tenant_starved_share={1.0 - c['tenant_served_share']:.4f}"
    )
    # The phases' CPU seconds as measured, and how much slower than the
    # reference host each child found the host to be.
    phases = ("setup_s", "run_s", "report_s", "snapshot_s", "restore_s")
    print("measured " + " ".join(
        f"{k}={median([ch['measured'][k] for ch in children]):.4g}" for k in phases
    ) + " host_slowdown=" + ",".join(
        f"{ch['host_slowdown']:.2f}" for ch in children))
    if args.trace:
        untraced, traced = children
        if not traced["wrappers_removed"]:
            failures.append("trace wrappers were not removed")
        failures.extend(f"layer table: {f}" for f in traced["layer_failures"])
        per_layer = dict(traced["per_layer"])
        per_layer["trace.overhead_ratio"] = (
            traced["lifecycle_s"] / untraced["lifecycle_s"]
        )
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in per_layer.items()}
        print(f"trace written to {traced['trace_path']}")
    else:
        values = end_to_end_metrics(children, workload.window_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        # Timed operations: every build, slice, report, snapshot and
        # restore of every child.  Any that raised would have aborted the run.
        "attempted": sum(ch["steps_timed"] for ch in children),
        "failed": 0,
        "metrics": metrics,
    }))
    return 1 if failures else 0


def _layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    if "us_per" in suffix or suffix.endswith("_us"):
        return "us"
    if "ms_per" in suffix or suffix.endswith("_ms"):
        return "ms"
    if suffix == "s" or suffix.endswith("_s"):
        return "s"
    if "bytes" in suffix:
        return "bytes"
    if suffix.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    # Pin BLAS/OpenMP pools before numpy loads (children inherit this):
    # all load comes from one process with one thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"fleetbench: no repro package under {SRC}\n")
        return 2
    _import_benchmark()
    from fleetbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--check-restore", type=int, choices=(0, 1), default=0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child_main(args)  # exits with the result
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
