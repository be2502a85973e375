#!/usr/bin/env python
"""Runner for the tenant-starvation fairness benchmark.

Many concurrent populations contend for the same devices; this measures
each tenant's round-start gap p50/p95 under ``fifo`` vs ``fair_share``
on-device scheduling (see
:func:`repro.tools.perf.bench_tenant_starvation`) and writes the JSON::

    python benchmarks/perf/starvation.py                 # full run
    python benchmarks/perf/starvation.py --quick         # CI-sized
    python benchmarks/perf/starvation.py --out PATH

Fairness telemetry, not a speed guard: the run always exits 0 unless the
benchmark itself fails (e.g. a policy changes simulation outcomes it
must not).
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
                        help="CI-sized run (fewer devices, shorter window)")
    parser.add_argument("--days", type=float, default=None,
                        help="simulated days (overrides the size preset)")
    parser.add_argument("--out",
                        default=os.path.join(_REPO_ROOT, "BENCH_starvation.json"),
                        help="where to write the JSON report")
    parser.add_argument("--no-write", action="store_true",
                        help="print the report without writing it")
    args = parser.parse_args(argv)

    if args.quick:
        days, devices, tenants, selectors = 0.1, 120, 6, 8
    else:
        days, devices, tenants, selectors = 1.0, 150, 10, 8
    if args.days is not None:
        days = args.days

    result = perf.bench_tenant_starvation(
        days, devices, tenants, selectors=selectors
    )
    print(f"  {result['workload']}")
    for policy, entry in result["by_policy"].items():
        print(
            f"  {policy:>10s}: {entry['rounds_started_total']} rounds, "
            f"{entry['tenants_starved']} tenant(s) without a round, "
            f"worst tenant p95 gap {entry['worst_p95_s']}s, "
            f"p95 spread {entry['p95_spread_s']}s"
        )
    print(
        "  fifo/fair_share worst-p95 ratio: "
        f"{result['fair_share_worst_p95_ratio']:.2f}"
    )

    if not args.no_write:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=2)
            f.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
