#!/usr/bin/env python3
"""Octopus repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source tree. The script builds
perfbench/main.exe with dune (into .bench_build/), then runs fixed-size
repetitions of workload W at seed N, each in a fresh process, one at a
time, for about S seconds. It checks every repetition's outputs, checks
that the deterministic figures repeat exactly, and prints each metric
with its unit, then as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set (medians
over the untraced repetitions); with --trace 1 they are its per_layer set,
from one traced repetition, plus a parity run of the library preset the
workload re-drives. Exit status: 0 when every check passes, 1 when a
check fails or a repetition dies, 2 on a usage or source-tree error.
See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
REFERENCE = os.path.join(BUILD_DIR, "default", "perfbench", "reference", "reference.exe")
# Reported times are rescaled to a host on which the reference kernel
# takes this long; see "Host-speed normalisation" in README.md.
REF_NOMINAL_S = 0.6
WORKLOADS = ["anon-lookup", "churn-scale", "attack-defense", "anonymity-model"]
MIN_REPS = 3  # untraced repetitions per run, whatever --seconds says
MAX_REPS = 40
REP_TIMEOUT = 120


class BenchError(Exception):
    def __init__(self, msg, code=1):
        super().__init__(msg)
        self.code = code


def log(msg):
    print(msg, flush=True)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    for needed in ("BENCHMARK.json", "dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"not a full source tree: {needed} is missing under {ROOT}", code=2)
    with open(path) as fh:
        return json.load(fh)


def local_env():
    """The environment of every child: temporary files stay in the tree."""
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp, DUNE_CACHE="disabled")


def build():
    env = local_env()
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "./perfbench/main.exe", "./perfbench/reference/reference.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise BenchError(f"build failed: {exc}")
    if proc.returncode != 0 or not (os.path.exists(EXE) and os.path.exists(REFERENCE)):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise BenchError("build failed")


def run_exe(*args, traced=False):
    env = local_env()
    if traced:
        # The runtime-events ring of a traced repetition lives here; the
        # runtime deletes it when the process exits.
        ring_dir = os.path.join(BUILD_DIR, "runtime_events")
        os.makedirs(ring_dir, exist_ok=True)
        env["OCAML_RUNTIME_EVENTS_DIR"] = ring_dir
    try:
        proc = subprocess.run([EXE, *args], cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=REP_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(args)}: timed out after {REP_TIMEOUT} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{' '.join(args)}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(args)}: no output")
    return json.loads(lines[-1])


def rep(workload, seed, traced):
    return run_exe("rep", workload, str(seed), "1" if traced else "0", traced=traced)


def mismatches(a, b, skip_alloc):
    """Names whose values differ between two figure maps."""
    names = sorted(set(a) | set(b))
    return [n for n in names
            if not (skip_alloc and n.startswith("alloc.")) and a.get(n) != b.get(n)]


def guard(reps, traced_rep=None):
    """Determinism guard: every repetition at one seed reports the same
    counts, simulated quantiles, leaks and allocated words (a traced
    repetition allocates more, so its alloc.* figures are exempt)."""
    problems = []
    first = reps[0]
    for other in reps[1:] + ([traced_rep] if traced_rep else []):
        skip = other is traced_rep
        for key in ("det", "outcomes"):
            bad = mismatches(first[key], other[key], skip)
            problems += [f"{key}.{n}: {first[key].get(n)} vs {other[key].get(n)}" for n in bad]
        if (first["attempted"], first["failed"]) != (other["attempted"], other["failed"]):
            problems.append("attempted/failed differ between repetitions")
    return problems


def parity(workload, seed, driver_det):
    """Names where the library preset disagrees with the benchmark's driver."""
    preset = run_exe("preset", workload, str(seed))
    return [f"{n}: preset {v} vs driver {driver_det.get(n)}"
            for n, v in preset.items() if driver_det.get(n) != v]


def reference():
    """Wall time of the fixed reference kernel, in a process of its own."""
    try:
        proc = subprocess.run([REFERENCE], cwd=ROOT, env=local_env(), capture_output=True,
                              text=True, timeout=60)
        return float(proc.stdout.split()[0])
    except (OSError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        raise BenchError(f"reference kernel failed: {exc}")


def timed_reps(workload, seed, seconds, start, minimum):
    """Untraced repetitions until the run's time is used up. The reference
    kernel runs before the first repetition and after each one; a
    repetition's host speed is the mean of the two kernels around it."""
    reps, walls = [], []
    ref_before = reference()
    while len(reps) < MAX_REPS:
        t0 = time.monotonic()
        r = rep(workload, seed, traced=False)
        ref_after = reference()
        r["ref_s"] = (ref_before + ref_after) / 2
        ref_before = ref_after
        reps.append(r)
        walls.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if len(reps) >= minimum and elapsed + statistics.median(walls) > seconds:
            break
    return reps


def report_checks(reps):
    """Print every output check; true when all passed in every repetition."""
    failed = {n for r in reps for n, passed in r["checks"].items() if not passed}
    for n in sorted({n for r in reps for n in r["checks"]}):
        log(f"  check {n}: {'FAIL' if n in failed else 'ok'}")
    return not failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    spec = load_spec()
    build()
    start = time.monotonic()
    w, seed = args.workload, args.seed
    log(f"workload {w}  seed {seed}  trace {args.trace}")

    problems = []
    if args.trace == 0:
        reps = timed_reps(w, seed, args.seconds, start, MIN_REPS)
        traced_rep = None
        head = reps[0]
    else:
        ref_before = reference()
        traced_rep = rep(w, seed, traced=True)
        traced_rep["ref_s"] = (ref_before + reference()) / 2
        problems += [f"parity {b}" for b in parity(w, seed, traced_rep["det"])]
        reps = timed_reps(w, seed, args.seconds, start, 1)
        head = traced_rep
    problems += guard(reps, traced_rep)
    checks_ok = report_checks(reps + ([traced_rep] if traced_rep else []))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    # Each repetition's times are rescaled by its reference kernel
    # (nominal / measured). run_s is then the run's mean, i.e. its
    # measured time over its repetitions: the host switches between
    # speed regimes, and the median of a run's repetitions jumps between
    # them where the mean does not.
    def scaled(r, k):
        return r[k] * REF_NOMINAL_S / r["ref_s"]

    summary = {
        "setup_s": statistics.median(scaled(r, "setup_s") for r in reps),
        "run_s": statistics.fmean(scaled(r, "run_s") for r in reps),
        "peak_heap_mb": statistics.median(r["peak_heap_mb"] for r in reps),
    }
    log(f"  {len(reps)} untraced repetitions, ops attempted {head['attempted']} failed {head['failed']}")
    for k in ("run_s", "setup_s", "ref_s"):
        log(f"  {k} per repetition, wall: " + " ".join(f"{r[k]:.4g}" for r in reps))
    for k, how in (("setup_s", "median"), ("run_s", "mean"), ("peak_heap_mb", "median")):
        log(f"  {k:<14} {summary[k]:.6g} {units.get(k, '')}  ({how}"
            f"{'' if k == 'peak_heap_mb' else ' of host-speed-normalised'})")
    for k, v in head["outcomes"].items():
        log(f"  {k:<20} {v:.6g} {units.get(k, '')}")

    if args.trace == 0:
        names = [m["name"] for m in spec["end_to_end"]]
        metrics = {n: summary[n] for n in names}
    else:
        figures = dict(head["layers"], **head["outcomes"])
        figures["trace.overhead_s"] = scaled(traced_rep, "run_s") - summary["run_s"]
        # The raw times behind the normalised ones, so that a normalised
        # result can be checked against the wall clock.
        for k in ("run_s", "setup_s", "ref_s"):
            figures[f"wall.{k}"] = statistics.fmean(r[k] for r in reps)
        unknown = sorted(set(figures) - set(units))
        if unknown:
            problems.append(f"undeclared per-layer figures: {', '.join(unknown)}")
        names = [m["name"] for m in spec["per_layer"]]
        # A layer the workload bypasses reports 0.
        metrics = {n: float(figures.get(n, 0.0)) for n in names}
        for n in names:
            log(f"  {n:<28} {metrics[n]:.6g} {units[n]}")

    for p in problems:
        log(f"  FAILURE {p}")
    correct = checks_ok and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": int(head["attempted"]),
        "failed": int(head["failed"]),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        sys.exit(exc.code)
