#!/usr/bin/env python3
"""Simulator benchmark: build, run, steadiness check and self-test.

One run (the form BENCHMARK.json's command takes):

    python3 perfbench/run.py --workload replay-miss --seed 1 --seconds 30 --trace 0

builds perfbench/ (CMake, into .bench_build/perfbench) from the sources
under src/, runs one workload serially for about --seconds host seconds
and passes the benchmark's output through. The last line of stdout is
the result object {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Build output goes to stderr.

Steadiness mode repeats each workload and reports, per end-to-end
metric, the median, quartiles and quartile spread against its bound:

    python3 perfbench/run.py --steady 5 [--workload W ...] [--seed N]
                             [--vary-seeds] [--batches 2] [--seconds S]

With one seed the simulated results and digests must be bit-equal
across repeats. --vary-seeds gives repeat i the seed N+i (how the
regression gate samples); --batches 2 also reports how far the second
batch's medians moved from the first's.

Self-test (tiny scale, about a minute):

    python3 perfbench/run.py --self-test
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "perfbench-out"
SPEC_PATH = ROOT / "BENCHMARK.json"

# Limit for one benchmark process after the build.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; returns the binary."""
    if not (ROOT / "src" / "sys" / "system.hh").is_file():
        log(f"no simulator sources under {ROOT / 'src'}; nothing to build")
        sys.exit(2)
    if shutil.which("cmake") is None:
        log("cmake not found")
        sys.exit(2)
    # Compiler temporaries stay inside the checkout too.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cfg = subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, check=False)
        if cfg.returncode != 0:
            log("cmake configure failed")
            sys.exit(cfg.returncode or 2)
    jobs = str(min(4, os.cpu_count() or 1))
    bld = subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                         stdout=sys.stderr, stderr=sys.stderr, env=env,
                         check=False)
    if bld.returncode != 0:
        log("build failed")
        sys.exit(bld.returncode or 2)
    return BUILD_DIR / "perfbench"


def bench_cmd(binary, workload, seed, seconds, trace, extra=()):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out", str(OUT_DIR), *extra]


def run_captured(cmd):
    """Run one benchmark process; returns (exit code, stdout lines)."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S, check=False)
    return proc.returncode, proc.stdout.splitlines()


def parse_output(lines):
    """The result object (last line) and the perfbench-sim facts."""
    result = json.loads(lines[-1]) if lines else None
    sim = None
    for line in lines:
        if line.startswith("perfbench-sim "):
            sim = json.loads(line[len("perfbench-sim "):])
    return result, sim


def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as f:
        return json.load(f)


def steady(args, binary):
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    ok = True
    for wl in workloads:
        batches = []
        for b in range(args.batches):
            runs = []
            for i in range(args.steady):
                seed = args.seed + i if args.vary_seeds else args.seed
                code, lines = run_captured(
                    bench_cmd(binary, wl, seed, seconds, 0))
                result, sim = parse_output(lines)
                if code != 0 or not result or not result["correct"]:
                    print(f"{wl}: run {i} (seed {seed}) failed: exit {code}")
                    ok = False
                    continue
                runs.append((result, sim))
                speed = next((ln for ln in lines
                              if ln.startswith("host speed")), "")
                print(f"{wl} batch {b} run {i} seed {seed}: " + ", ".join(
                    f"{k} {v['value']:.6g}"
                    for k, v in result["metrics"].items())
                    + f" [{speed.partition(': ')[2]}]", flush=True)
            batches.append(runs)
            if not args.vary_seeds and runs:
                sims = {json.dumps(s, sort_keys=True) for _, s in runs}
                if len(sims) != 1:
                    print(f"{wl}: simulated results or digest differ "
                          "across repeats of one seed")
                    ok = False
        medians = []
        for b, runs in enumerate(batches):
            if len(runs) < 2:
                continue
            med = {}
            for name, bound in bounds.items():
                vals = [r["metrics"][name]["value"] for r, _ in runs]
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                med[name] = statistics.median(vals)
                spread = (q3 - q1) / med[name] if med[name] else float("inf")
                verdict = ("ok" if spread < bound / 3
                           else "within bound" if spread <= bound
                           else "OVER BOUND")
                print(f"{wl} batch {b} {name}: median {med[name]:.6g} "
                      f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} "
                      f"bound {bound} -> {verdict}")
                if verdict == "OVER BOUND" and name != "setup_s":
                    ok = False
            medians.append(med)
        if len(medians) >= 2:
            better = {m["name"]: m["better"] for m in spec["end_to_end"]}
            for name, bound in bounds.items():
                a, b = medians[0][name], medians[-1][name]
                worse = (b - a) / a if better[name] == "lower" else (a - b) / a
                verdict = "ok" if worse <= bound else "OVER BOUND"
                print(f"{wl} {name}: second median {b:.6g} vs first "
                      f"{a:.6g}, worse by {worse:+.4f} (bound {bound}) "
                      f"-> {verdict}")
                if verdict != "ok":
                    ok = False
    return 0 if ok else 1


def self_test(binary):
    """Tiny-scale checks of the benchmark's output format and premises."""
    spec = load_spec()
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    # Per-workload scale: replay-hit needs its full trace length for the
    # cache-resident premise (a short trace is mostly cold misses).
    scales = {"replay-miss": "0.1", "replay-hit": "1", "campaign-mix": "0.25",
              "fuzz-clean": "0.25"}
    shares = {}
    for wl in [w["name"] for w in spec["workloads"]]:
        sims = []
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, lines = run_captured(bench_cmd(
                binary, wl, 1, 0, trace, ["--scale", scales[wl]]))
            check(code == 0, f"{wl} trace {trace}: exit code 0")
            if code != 0 or not lines:
                continue
            result, sim = parse_output(lines)
            sims.append(sim)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{wl} trace {trace}: result object has exactly its keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{wl} trace {trace}: correct, no failed units (traced "
                  "and untraced digests match)")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want,
                  f"{wl} trace {trace}: every listed metric printed with "
                  "its unit")
            if trace == 1:
                shares[wl] = (result["metrics"]["replay.miss_path_share"]
                              ["value"], sim.get("numa_core_spans", 0))
        if len(sims) == 2:
            check(sims[0]["digest"] == sims[1]["digest"],
                  f"{wl}: digest equal in the untraced and traced runs")

    hit, miss = shares.get("replay-hit"), shares.get("replay-miss")
    if hit and miss:
        check(hit[0] <= 0.15,
              f"replay-hit: miss-path share {hit[0]:.3f} is small (<= 0.15)")
        check(miss[0] >= 0.35,
              f"replay-miss: miss-path share {miss[0]:.3f} is large (>= 0.35)")
        check(hit[1] == 0 and miss[1] == 0,
              "numa units record no core.* (replica-layer) spans")

    code, lines = run_captured(bench_cmd(
        binary, "replay-miss", 1, 0, 0, ["--scale", "0.05", "--check-anchor"]))
    result, _ = parse_output(lines) if code == 0 else (None, None)
    check(code == 0 and result and result["failed"] == 0,
          "replay-miss: ROI ticks equal System::run's (the fig6 path)")

    # Without the simulator sources the benchmark must fail fast and
    # print no result.
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(SPEC_PATH, bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-miss",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=RUN_TIMEOUT_S, check=False)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "without sources: nonzero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"self-test: {len(failures)} failure(s)")
    return 0 if not failures else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="N")
    ap.add_argument("--vary-seeds", action="store_true")
    ap.add_argument("--batches", type=int, default=1)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be a whole number")

    binary = build()
    if args.self_test:
        return self_test(binary)
    if args.steady:
        return steady(args, binary)
    if not args.workload or len(args.workload) != 1:
        ap.error("give exactly one --workload")
    seconds = (args.seconds if args.seconds is not None
               else load_spec()["run_seconds"])
    proc = subprocess.run(
        bench_cmd(binary, args.workload[0], args.seed, seconds, args.trace),
        timeout=RUN_TIMEOUT_S, check=False)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
