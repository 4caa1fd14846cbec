#!/usr/bin/env python3
"""Self-test of the benchmark, at a small size (about 30 s):

    python3 bench/selftest.py

Runs every workload in both modes and checks that:
  * every metric BENCHMARK.json names is reported, with its unit, and no other;
  * every item meets its known answer on the code as it stands;
  * the traced run's self times plus the unattributed time add up to the
    traced wall time;
  * the digests and exact counts do not depend on the mode or the run;
  * `campaign` with a transformer mutation reports failures and a different
    digest, so the correctness gate and the digests can see a wrong rewrite.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import sys

import run

SECONDS = "0.5"
EXACT_ITEMS = "3"


def result(workload: str, trace: int, mutation=None) -> dict:
    argv = ["--workload", workload, "--seed", "7", "--seconds", SECONDS,
            "--trace", str(trace), "--exact-items", EXACT_ITEMS]
    return run.run_workload(run.build_parser().parse_args(argv), mutation=mutation)


def check(where: str, r: dict, declared: dict, trace: int) -> list:
    """Problems with one result."""
    problems = []
    units = {k: m["unit"] for k, m in r["metrics"].items()}
    if units != declared:
        problems.append(f"{where}: metrics and units {units} != declared {declared}")
    if not r["correct"] or r["failed"]:
        problems.append(f"{where}: correct={r['correct']} failed={r['failed']} "
                        f"outcomes={r['detail']['outcomes']}")
    if not trace:
        return problems
    v = {k: m["value"] for k, m in r["metrics"].items()}
    parts = sum(x for k, x in v.items() if units[k] == "ms"
                and not k.startswith("trace.")) + v["trace.unattributed_ms"]
    if abs(parts - v["trace.wall_ms"]) > 1e-6 * v["trace.wall_ms"]:
        problems.append(f"{where}: self times sum to {parts}, wall is {v['trace.wall_ms']}")
    negative = [k for k, x in v.items()
                if units[k] == "ms" and x < 0 and k != "trace.overhead_ms"]
    if negative:
        problems.append(f"{where}: negative times {negative}")
    return problems


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    unknown = {w["name"] for w in spec["workloads"]} - set(run.workloads.NAMES)
    if unknown:
        problems.append(f"BENCHMARK.json names unknown workloads {sorted(unknown)}")
    run.SLICES, run.SLICES_PER_WINDOW = 2, 1  # two windows, two set-up samples
    digests = {}
    for workload in run.workloads.NAMES:
        for trace in (0, 1):
            where = f"{workload} --trace {trace}"
            r = result(workload, trace)
            problems += check(where, r, declared[trace], trace)
            exact = (r["detail"]["digests"], r["detail"]["exact"])
            if digests.setdefault(workload, exact) != exact:
                problems.append(f"{where}: digests or exact counts differ between modes")

    bad = result("campaign", 0, mutation="omit_return_var")
    ok_frac = bad["metrics"]["ok_frac"]["value"]
    if bad["correct"] or ok_frac >= 1.0 or bad["detail"]["failed_frac"] <= 0:
        problems.append(f"mutated campaign not caught: ok_frac={ok_frac}")
    if bad["detail"]["digests"] == digests["campaign"][0]:
        problems.append("mutated campaign has the same digests")

    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
