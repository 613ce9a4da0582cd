#!/usr/bin/env python3
"""Compare a fresh Google Benchmark JSON against a committed baseline.

Per-benchmark real_time comparison with a configurable regression
tolerance, used by the perf-smoke CI job so that pipeline slowdowns fail
loudly instead of silently drifting through the artifact history.

Two guard rails beyond the timing diff:

* The candidate run must come from a Release build of the library. The
  stock `library_build_type` context key reports how *libbenchmark* was
  compiled (often "debug" for distro packages), so the harness stamps
  its own `v6mon_build_type` key; anything but "release" is rejected —
  a debug-build bench JSON is worthless as a baseline or a candidate.
* A baseline benchmark missing from the candidate run is a hard failure
  — a silently dropped benchmark is how coverage rots, and a rename or a
  deleted BENCHMARK() must come with a baseline update in the same
  change. Candidate-only benchmarks (new coverage) are merely noted.

A baseline and a candidate recorded on hosts with different CPU counts
(the `num_cpus` context key) are still compared, with a note naming both
counts: shared CI runners need not match the baseline host, and a
threaded benchmark then times a different degree of parallelism.

When a run used --benchmark_repetitions, the median aggregate is used;
otherwise the plain iteration row.

Exit status: 0 clean, 1 regression past tolerance / baseline benchmark
missing from the candidate, 2 input/guard error.
"""

from __future__ import annotations

import argparse
import json
import sys


def load_times(path: str) -> tuple[dict, dict[str, float]]:
    """Return (context, {benchmark name -> real_time}) for one JSON file."""
    with open(path) as f:
        data = json.load(f)
    iterations: dict[str, float] = {}
    medians: dict[str, float] = {}
    for row in data.get("benchmarks", []):
        name = row["name"]
        if row.get("run_type", "iteration") == "iteration":
            iterations[name] = float(row["real_time"])
        elif row.get("aggregate_name") == "median":
            medians[name.removesuffix("_median")] = float(row["real_time"])
    # Median aggregates are stabler than single iterations; prefer them
    # wherever the run produced both.
    times = dict(iterations)
    times.update(medians)
    return data.get("context", {}), times


def check_release(context: dict, path: str, *, required: bool) -> str | None:
    """Return an error string when `context` fails the release gate."""
    build = context.get("v6mon_build_type")
    if build == "release":
        return None
    if build is None:
        # Pre-stamping JSON (no v6mon_build_type key): tolerated for the
        # committed baseline, never for a fresh candidate.
        if required:
            return f"{path}: context lacks v6mon_build_type (re-run the bench)"
        print(f"note: {path} predates the v6mon_build_type stamp")
        return None
    return f"{path}: v6mon_build_type is {build!r}, need a Release build"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("candidate", help="freshly generated JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed relative real_time regression per benchmark "
        "(default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--filter",
        default="",
        help="only compare benchmarks whose name contains this substring",
    )
    parser.add_argument(
        "--no-require-release",
        action="store_true",
        help="skip the v6mon_build_type == release gate on the candidate",
    )
    args = parser.parse_args()

    base_ctx, base = load_times(args.baseline)
    cand_ctx, cand = load_times(args.candidate)

    for err in (
        check_release(base_ctx, args.baseline, required=False),
        None
        if args.no_require_release
        else check_release(cand_ctx, args.candidate, required=True),
    ):
        if err:
            print(f"error: {err}", file=sys.stderr)
            return 2

    base_cpus = base_ctx.get("num_cpus", "unknown")
    cand_cpus = cand_ctx.get("num_cpus", "unknown")
    if base_cpus != cand_cpus:
        print(
            f"note: num_cpus differs: baseline {base_cpus}, candidate "
            f"{cand_cpus} — threaded timings are not like for like"
        )

    if args.filter:
        base = {k: v for k, v in base.items() if args.filter in k}
        cand = {k: v for k, v in cand.items() if args.filter in k}

    shared = sorted(base.keys() & cand.keys())
    if not shared:
        print("error: no benchmarks in common", file=sys.stderr)
        return 2

    width = max(len(n) for n in shared)
    regressions = []
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'candidate':>12}  delta")
    for name in shared:
        b, c = base[name], cand[name]
        delta = (c - b) / b if b > 0 else float("inf")
        flag = "  << REGRESSION" if delta > args.tolerance else ""
        print(f"{name:<{width}}  {b:>12.3f}  {c:>12.3f}  {delta:+7.1%}{flag}")
        if delta > args.tolerance:
            regressions.append(name)

    dropped = sorted(base.keys() - cand.keys())
    for name in dropped:
        print(f"error: {name} in baseline but missing from candidate")
    for name in sorted(cand.keys() - base.keys()):
        print(f"note: {name} only in candidate (new)")
    if dropped:
        print(
            f"FAIL: {len(dropped)} baseline benchmark(s) missing from the "
            f"candidate run: {', '.join(dropped)} — update the committed "
            f"baseline if they were intentionally removed or renamed",
            file=sys.stderr,
        )
        return 1

    if regressions:
        print(
            f"FAIL: {len(regressions)} benchmark(s) regressed past "
            f"{args.tolerance:.0%}: {', '.join(regressions)}",
            file=sys.stderr,
        )
        return 1
    print(f"OK: {len(shared)} benchmarks within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
