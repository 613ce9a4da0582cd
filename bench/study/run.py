#!/usr/bin/env python3
"""End-to-end v6mon study benchmark.

Builds bench/study (Release) into build-study/ at the root of the tree and
runs whole studies with the `study_bench` program: one study per process,
one process at a time (a batch job, neither an open nor a closed loop).
Every study's CSV outputs are hashed and checked against the committed
golden digests (seed 2011) or against the other studies of the same
invocation (any other seed).

Modes:
  run.py
      Full set. Every workload gets 1 discarded warm-up study, then
      5 timed studies interleaved round-robin across workloads, then
      1 traced study. Prints every metric with unit, median, quartiles
      and n, and writes build-study/results/<timestamp>.json.
  run.py --workload W [--seed N] [--seconds S] [--trace 0|1]
      One workload: 1 warm-up study, timed studies for about S seconds,
      and with --trace 1 one traced study after them. The last
      stdout line is one JSON object: {correct, attempted, failed,
      metrics}, the end-to-end metrics (medians) or, traced, the per-layer
      metrics of the traced study.
  run.py --check
      Asserts the scenario-file workloads write byte-identical CSVs to
      `full_study` built from the same tree (`full_study 2011 1.0` for
      paper).
  run.py --compare A.json B.json
      Per (workload, end-to-end metric): both medians and quartiles, the
      delta against the BENCHMARK.json bound, and a verdict.
  run.py --pairs N --parent-tree DIR
      N alternating pairs of studies, parent tree vs this tree, built with
      identical benchmark code; applies the 9-of-10 pair rule.

Exit status: 0 ok, 1 a study failed or an output mismatched (or
--compare found a regression), 2 usage, build or manifest error.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent.parent
BUILD_DIR = ROOT / "build-study"
STUDY_TIMEOUT_S = 60

NPROC = len(os.sched_getaffinity(0))
THREADS = min(4, NPROC)

# name -> scenario file, or None for the built-in multi-VP world
WORKLOADS = {
    "paper": "paper.conf",
    "evolving": "evolving.conf",
    "dns_loss": "dns_loss.conf",
    "multi_vp": None,
}

# Metric names, units, directions and regression bounds live in
# BENCHMARK.json at the root of the tree; this runner reads them from there.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Absolute regression floors under the relative bounds, so near-zero values
# (multi_vp sets up in ~4 ms) cannot flap.
UNIT_FLOORS = {"s": 0.01, "MB": 2.0}

MIN_ATTRIBUTED = 0.95
GOLDEN_SEED = 2011
RUNS = 5  # timed studies per workload in a full set


class BenchError(Exception):
    """A build, manifest or usage problem (exit 2)."""


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build and single studies.
# --------------------------------------------------------------------------


def build(build_dir: Path, source_dir: Path | None = None, target: str | None = None) -> Path:
    """Configure and build a Release target; return its path.

    A given source_dir is passed on every call: V6MON_SOURCE_DIR is a cache
    variable, so a build tree configured for another tree would otherwise
    keep building that one.
    """
    if source_dir is not None or not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if source_dir is not None:
            cmd.append(f"-DV6MON_SOURCE_DIR={source_dir.resolve()}")
        run_build_step(cmd)
    cmd = ["cmake", "--build", str(build_dir), "-j", str(NPROC)]
    if target:
        cmd += ["--target", target]
    run_build_step(cmd)
    return build_dir / (target or "study_bench")


def run_build_step(cmd: list[str]) -> None:
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = "\n".join((proc.stdout + proc.stderr).splitlines()[-20:])
        raise BenchError(f"build step failed: {' '.join(cmd)}\n{tail}")


def run_study(binary: Path, workload: str, seed: int, out_dir: Path,
              trace_path: Path | None = None) -> dict | None:
    """Run one study in a fresh process; None when it failed."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    config = WORKLOADS[workload]
    cmd = [str(binary)]
    cmd += ["--config", str(BENCH_DIR / "workloads" / config)] if config else ["--multi-vp"]
    cmd += ["--seed", str(seed), "--threads", str(THREADS),
            "--out", str(out_dir)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=STUDY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: study timed out after {STUDY_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        log(f"{workload}: study exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return None
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{workload}: study printed no result")
        return None
    if result["build_type"] != "Release" or result["contract_level"] != 0:
        raise BenchError(f"study_bench is a {result['build_type']} build with contract "
                         f"level {result['contract_level']}; timings need plain Release")
    return result


class Tally:
    """Studies of one workload in one invocation, checked as they land."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.golden = load_golden().get(workload) if seed == GOLDEN_SEED else None
        self.digest: str | None = self.golden
        self.attempted = 0
        self.failed = 0
        self.timed: list[dict] = []
        self.traced: dict | None = None

    def add(self, result: dict | None, *, timed: bool = False, traced: bool = False) -> None:
        self.attempted += 1
        if result is None:
            self.failed += 1
            return
        self.digest = self.digest or result["digest"]
        if result["digest"] != self.digest:
            expected = "golden" if self.golden else "first study's"
            log(f"{self.workload}: output digest {result['digest']} != {expected} {self.digest}")
            self.failed += 1
            return
        if traced and result["attributed_share"] < MIN_ATTRIBUTED:
            log(f"{self.workload}: spans under `study` cover only "
                f"{result['attributed_share']:.1%} of total_s (need {MIN_ATTRIBUTED:.0%})")
            self.failed += 1
            return
        if timed:
            self.timed.append(result)
        if traced:
            self.traced = result

    def summary(self) -> dict:
        out = {}
        for name, m in END_TO_END.items():
            values = [r[name] for r in self.timed]
            out[name] = {"unit": m["unit"], **quartiles(values), "values": values}
        return out

    def layers(self) -> dict:
        if self.traced is None:
            return {}
        layers = dict(self.traced["layers"])
        layers["report_s"] = self.traced["report_s"]
        layers["trace.overhead_s"] = (self.traced["total_s"]
                                      - statistics.median(r["total_s"] for r in self.timed))
        return layers


def quartiles(values: list[float]) -> dict:
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def load_golden() -> dict:
    return json.loads((BENCH_DIR / "golden.json").read_text())["digests"]


def out_dir_for(workload: str) -> Path:
    return BUILD_DIR / "out" / workload


# --------------------------------------------------------------------------
# Modes.
# --------------------------------------------------------------------------


def workload_mode(args: argparse.Namespace) -> int:
    """One workload for --seconds; one JSON result line."""
    binary = build(BUILD_DIR)
    tally = Tally(args.workload, args.seed)
    out = out_dir_for(args.workload)
    started = time.monotonic()
    tally.add(run_study(binary, args.workload, args.seed, out))  # warm-up
    study_s = time.monotonic() - started
    deadline = time.monotonic() + args.seconds
    # Start a study only while it should end nearer the deadline than past
    # it, so a run measures about --seconds rather than up to one study more.
    while not tally.timed or time.monotonic() + study_s / 2 < deadline:
        started = time.monotonic()
        tally.add(run_study(binary, args.workload, args.seed, out), timed=True)
        study_s = time.monotonic() - started
        if tally.failed:
            break
    if args.trace and not tally.failed:
        tally.add(run_study(binary, args.workload, args.seed, out,
                            BUILD_DIR / f"trace_{args.workload}.json"), traced=True)
    if args.trace:
        values = tally.layers()
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()
                   if k in values}
    else:
        metrics = {k: {"value": v["median"], "unit": v["unit"]}
                   for k, v in tally.summary().items() if v["n"]}
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def full_mode(args: argparse.Namespace) -> int:
    binary = build(BUILD_DIR)
    tallies = {w: Tally(w, args.seed) for w in WORKLOADS}
    for w, t in tallies.items():
        log(f"warm-up: {w}")
        t.add(run_study(binary, w, args.seed, out_dir_for(w)))
    for i in range(RUNS):
        for w, t in tallies.items():
            log(f"run {i + 1}/{RUNS}: {w}")
            t.add(run_study(binary, w, args.seed, out_dir_for(w)), timed=True)
    traces = BUILD_DIR / "results"
    traces.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%d-%H%M%S")
    for w, t in tallies.items():
        log(f"traced: {w}")
        t.add(run_study(binary, w, args.seed, out_dir_for(w), traces / f"{stamp}_{w}.trace.json"),
              traced=True)

    results = {"manifest": manifest(args.seed, tallies), "workloads": {}}
    for w, t in tallies.items():
        results["workloads"][w] = {
            "attempted": t.attempted, "failed": t.failed,
            "failed_share": t.failed / t.attempted, "digest": t.digest,
            "end_to_end": t.summary(), "per_layer": t.layers(),
        }
    print_results(results)
    path = traces / f"{stamp}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nresults: {path.relative_to(ROOT)}")
    return 0 if all(t.failed == 0 for t in tallies.values()) else 1


def print_results(results: dict) -> None:
    for w, r in results["workloads"].items():
        print(f"\n== {w}  (threads {results['manifest']['threads']}, "
              f"failed_share {r['failed_share']:.3f} = {r['failed']}/{r['attempted']}, "
              f"digest {r['digest']})")
        print(f"  {'metric':<36} {'unit':>6} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}")
        for name, s in r["end_to_end"].items():
            if s["n"]:
                print(f"  {name:<36} {s['unit']:>6} {s['median']:>14.6g} "
                      f"{s['q1']:>14.6g} {s['q3']:>14.6g} {s['n']:>3}")
        for name, unit in PER_LAYER.items():
            if name in r["per_layer"]:
                print(f"  {name:<36} {unit:>6} {r['per_layer'][name]:>14.6g}   (traced, n=1)")


def manifest(seed: int, tallies: dict) -> dict:
    some = next((t.timed[0] for t in tallies.values() if t.timed), None)
    if some is None:
        raise BenchError("no study completed; nothing to stamp")
    files = sorted((BENCH_DIR / "workloads").glob("*.conf")) + [BENCH_DIR / "study_bench.cpp"]
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or "unknown"
    except OSError:
        rev = "unknown"
    return {
        "seed": seed,
        "workload_files": {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files},
        "nproc": NPROC,
        "threads": THREADS,
        "build_type": some["build_type"],
        "contract_level": some["contract_level"],
        "compiler": some["compiler"],
        "git_rev": rev,
    }


def check_mode(args: argparse.Namespace) -> int:
    """Scenario-file workloads must write exactly full_study's CSVs.

    paper is compared with the plain `full_study 2011 1.0` users run; the
    other scenario files go through `full_study --config FILE 2011`.
    """
    binary = build(BUILD_DIR)
    full_study = build(BUILD_DIR, target="full_study")
    failed = 0
    for workload, config in WORKLOADS.items():
        if config is None:
            continue
        argv = ([str(GOLDEN_SEED), "1.0"] if workload == "paper"
                else ["--config", str(BENCH_DIR / "workloads" / config), str(GOLDEN_SEED)])
        check_dir = BUILD_DIR / "check" / workload
        if check_dir.exists():
            shutil.rmtree(check_dir)
        # full_study dumps observations before anything creates its output
        # directory, so in a fresh directory those dumps fail; pre-create it.
        (check_dir / "full_study_out").mkdir(parents=True)
        proc = subprocess.run([str(full_study), *argv], cwd=check_dir,
                              capture_output=True, text=True, timeout=STUDY_TIMEOUT_S)
        ours = check_dir / "study_bench"
        if proc.returncode != 0:
            log(f"{workload}: full_study exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        elif run_study(binary, workload, GOLDEN_SEED, ours) is not None:
            theirs = check_dir / "full_study_out"
            want = sorted(p.name for p in theirs.glob("*.csv"))
            have = sorted(p.name for p in ours.glob("*.csv"))
            differ = [n for n in want
                      if n in have and (theirs / n).read_bytes() != (ours / n).read_bytes()]
            if want == have and not differ:
                print(f"check ok: {workload}: {len(want)} CSVs byte-identical to "
                      f"full_study {' '.join(argv)}")
                continue
            log(f"{workload}: CSVs differ from full_study: "
                f"{sorted(set(want) ^ set(have)) + differ}")
        failed += 1
    return 1 if failed else 0


def worse_by(name: str, base: float, new: float) -> float:
    """How much worse `new` is than `base`, in the metric's own units."""
    return new - base if END_TO_END[name]["better"] == "lower" else base - new


def compare_mode(args: argparse.Namespace) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in args.compare)
    for key in ("nproc", "threads", "build_type"):
        if a["manifest"][key] != b["manifest"][key]:
            raise BenchError(f"refusing to compare: {key} differs "
                             f"({a['manifest'][key]} vs {b['manifest'][key]})")
    regressed = 0
    print(f"{'workload':<16} {'metric':<18} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'delta':>8} {'bound':>6}  verdict")
    for w in a["workloads"]:
        if w not in b["workloads"]:
            continue
        for name, m in END_TO_END.items():
            sa = a["workloads"][w]["end_to_end"][name]
            sb = b["workloads"][w]["end_to_end"][name]
            verdict, delta = judge(name, sa, sb)
            regressed += verdict == "regressed"
            print(f"{w:<16} {name:<18} {fmt(sa):>34} {fmt(sb):>34} "
                  f"{delta:>+8.1%} {m['bound']:>6.0%}  {verdict}")
    return 1 if regressed else 0


def judge(name: str, sa: dict, sb: dict) -> tuple[str, float]:
    """within / regressed / unresolved for B against A under the metric's bound."""
    m = END_TO_END[name]
    worse = worse_by(name, sa["median"], sb["median"])
    delta = worse / sa["median"]
    allowed = max(m["bound"] * sa["median"], UNIT_FLOORS.get(m["unit"], 0.0))
    spread = max(sa["q3"] - sa["q1"], sb["q3"] - sb["q1"])
    if worse <= allowed and spread <= allowed:
        return "within", delta
    if all(worse_by(name, x, y) < 0 for x in sa["values"] for y in sb["values"]):
        return "within", delta  # every B run beats every A run
    if spread > allowed:
        return "unresolved", delta
    return "regressed", delta


def fmt(s: dict) -> str:
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"


def pairs_mode(args: argparse.Namespace) -> int:
    """Alternate parent and change studies; apply the 9-of-10 pair rule."""
    sides = {"parent": build(BUILD_DIR / "parent", source_dir=Path(args.parent_tree)),
             "change": build(BUILD_DIR)}
    tallies = {(w, s): Tally(w, args.seed) for w in WORKLOADS for s in sides}
    for (w, s), t in tallies.items():
        t.add(run_study(sides[s], w, args.seed, out_dir_for(w)))  # warm-up
    for i in range(1, args.pairs + 1):
        order = ("change", "parent") if i % 2 else ("parent", "change")
        for w in WORKLOADS:
            for s in order:
                log(f"pair {i}/{args.pairs}: {w} {s}")
                tallies[(w, s)].add(run_study(sides[s], w, args.seed, out_dir_for(w)),
                                    timed=True)
    failed = sum(t.failed for t in tallies.values())
    if failed:
        log(f"{failed} studies failed; a gain does not count when studies fail")
        return 1
    print(f"{'workload':<16} {'metric':<18} {'parent median':>14} {'change median':>14} "
          f"{'parent IQR':>11} {'wins':>6}  verdict")
    for w in WORKLOADS:
        for name in END_TO_END:
            p = [r[name] for r in tallies[(w, "parent")].timed]
            c = [r[name] for r in tallies[(w, "change")].timed]
            wins = sum(worse_by(name, x, y) < 0 for x, y in zip(p, c))
            sp, sc = quartiles(p), quartiles(c)
            iqr = sp["q3"] - sp["q1"]
            gain = (len(p) >= 10 and wins >= 0.9 * len(p)
                    and -worse_by(name, sp["median"], sc["median"]) > iqr)
            print(f"{w:<16} {name:<18} {sp['median']:>14.6g} {sc['median']:>14.6g} "
                  f"{iqr:>11.4g} {wins:>3}/{len(p):<2}  {'gain' if gain else 'no gain'}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--pairs", type=int, metavar="N")
    parser.add_argument("--parent-tree", metavar="DIR", help="parent checkout for --pairs")
    args = parser.parse_args()
    try:
        if args.compare:
            return compare_mode(args)
        if args.check:
            return check_mode(args)
        if args.pairs:
            if not args.parent_tree:
                parser.error("--pairs needs --parent-tree")
            return pairs_mode(args)
        if args.workload:
            return workload_mode(args)
        return full_mode(args)
    except BenchError as e:
        log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
