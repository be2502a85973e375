#!/usr/bin/env python
"""Tiny runner for the hot-path perf harness.

Writes ``BENCH_hotpath.json`` at the repo root (override with ``--out``)
and optionally checks the fresh run against a committed reference::

    python benchmarks/perf/run.py                      # full run, write JSON
    python benchmarks/perf/run.py --quick              # CI-sized run
    python benchmarks/perf/run.py --quick --check BENCH_hotpath.json

``--check`` compares *speedup ratios* (machine-independent) and exits
non-zero when a guarded benchmark regressed more than ``--tolerance``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.tools import perf  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small repeats / tiny fleet (CI smoke)")
    parser.add_argument("--scale-quick", action="store_true",
                        help="full classic benches, CI-sized fleet_scale "
                             "(1k devices only, reference-length window, no profiling)")
    parser.add_argument("--no-fleet", action="store_true",
                        help="skip the fleet_run_days benchmark")
    parser.add_argument("--no-scale", action="store_true",
                        help="skip the fleet_scale benchmark")
    parser.add_argument("--out", default=os.path.join(_REPO_ROOT, "BENCH_hotpath.json"),
                        help="where to write the JSON report (default: repo root)")
    parser.add_argument("--no-write", action="store_true",
                        help="print the report without writing it")
    parser.add_argument("--check", metavar="REFERENCE",
                        help="compare speedups against a committed reference JSON")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed relative speedup regression (default 0.30)")
    parser.add_argument("--history",
                        default=os.path.join(_REPO_ROOT, "BENCH_history.jsonl"),
                        help="perf-trajectory JSONL a full run appends its "
                             "headline speedups to (default: repo root)")
    parser.add_argument("--no-history", action="store_true",
                        help="skip appending to the perf trajectory")
    args = parser.parse_args(argv)

    config = perf.HarnessConfig.quick() if args.quick else perf.HarnessConfig()
    if args.scale_quick:
        config = config.scale_quick()
    report = perf.run_harness(
        config,
        include_fleet=not args.no_fleet,
        include_scale=not args.no_scale,
    )

    for name, entry in report["results"].items():
        speedup = entry.get("speedup")
        line = f"  {name:20s}"
        if speedup is not None:
            line += f" {speedup:6.2f}x  ({entry['workload']})"
        else:
            line += f" {entry.get('ops_per_sec', 0):,.0f} ops/s  ({entry['workload']})"
        print(line)

    secagg = report["results"].get("secagg_round")
    if secagg is not None and "phase_seconds" in secagg:
        phases = secagg["phase_seconds"]
        print(
            "  secagg_round phases (cross-group plane, summed over groups): "
            + ", ".join(f"{name}={secs:.3f}s" for name, secs in phases.items())
            + f"; dominant: {secagg['dominant_phase']}"
        )

    scale = report["results"].get("fleet_scale")
    if scale is not None:
        print("  fleet_scale scaling curve:")
        for count, entry in scale["by_devices"].items():
            line = (
                f"    {count:>6s} devices: "
                f"{entry['vectorized_sim_days_per_sec']:8.3f} sim-days/s vectorized"
            )
            if "speedup" in entry:
                line += (
                    f", {entry['actor_sim_days_per_sec']:8.3f} actor"
                    f"  ({entry['speedup']:.2f}x)"
                )
            print(line)
        sharded = report["results"].get("fleet_scale_sharded")
        if sharded is not None:
            print("  fleet_scale_sharded (devices x tenants) x shards curve:")
            for cell, cell_entry in sharded["by_cell"].items():
                for shards, entry in cell_entry["by_shards"].items():
                    line = (
                        f"    {cell:>9s} @ {shards:>2s} shards: "
                        f"{entry['sim_days_per_sec']:8.3f} sim-days/s"
                    )
                    if "speedup" in entry:
                        line += f"  ({entry['speedup']:.2f}x vs flat)"
                    print(line)
        profile = scale.get("profile")
        if profile is not None:
            verdict = "IN TOP-3 (!)" if profile["idle_plane_in_top3"] else "not in top-3"
            print(
                f"    profile @ {profile['devices']} devices: idle plane "
                f"{verdict}; hottest: "
                + ", ".join(
                    f["frame"] for f in profile["top_frames"][:3]
                )
            )

    if not args.no_write:
        perf.write_report(report, args.out)
        print(f"wrote {args.out}")

    if args.check:
        with open(args.check) as f:
            reference = json.load(f)
        if not isinstance(reference.get("results"), dict):
            print(
                f"PERF CHECK ERROR: {args.check} is not a benchmark "
                "reference (no 'results' section) — pass the committed "
                "BENCH_hotpath.json"
            )
            return 1
        failures = perf.check_against_reference(report, reference, args.tolerance)
        if failures:
            # Mismatched benchmark sets (renamed/new guarded benchmarks)
            # and genuine regressions both land here: never exit 0 when
            # any guarded benchmark went unchecked.
            print("PERF CHECK FAILED:")
            for failure in failures:
                print(f"  {failure}")
            # A failed check never pollutes the perf trajectory.
            return 1
        print(f"perf check ok (tolerance {args.tolerance:.0%} vs {args.check})")

    # The perf trajectory records one line per *full* run (quick modes
    # measure reduced workloads whose ratios aren't comparable across
    # PRs, so they never pollute the history).
    full_run = not (args.quick or args.scale_quick or args.no_fleet or args.no_scale)
    if full_run and not args.no_write and not args.no_history:
        line = perf.append_history(report, args.history)
        print(f"appended speedups for {line['git_commit']} to {args.history}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
