#!/usr/bin/env python3
"""The scanner's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload study|sweep|durable|service \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-digests FIRST-LAST

Run from the root of a checkout. It builds the library and the perfbench
binary into .bench_build/perfbench, then starts one perfbench process per
iteration until --seconds have passed, checks every iteration's outputs,
and prints the metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; attempted and failed count
iterations. With --trace 0 the metrics are BENCHMARK.json's end_to_end
set; with --trace 1 they are its per_layer set, taken from traced
iterations that alternate with untraced ones, and a Chrome trace is
written to .bench_build/perfbench/trace-<workload>-<seed>.json.

Iteration k of a run measures input seed 8 * seed + k % 8 (traced runs:
k // 2), so the medians average over eight fleets.

--record-digests runs every workload once on each input of each seed and
stores the digest of its rendered reports in perfbench/digests.json; later
runs on a recorded input must reproduce it byte for byte.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import analysis

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
DIGESTS = HERE / "digests.json"
ITERATION_TIMEOUT_S = 120
# Iterations cycle through this many inputs derived from --seed, so a run's
# medians average over several fleets instead of depending on one draw.
INPUTS_PER_SEED = 8


def input_seed(seed, k):
    return seed * INPUTS_PER_SEED + k % INPUTS_PER_SEED


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "4"], check=True,
                   stdout=sys.stderr)


def environment(workload, threads):
    env = json.loads(subprocess.run([str(BINARY), "--env"], check=True,
                                    capture_output=True, text=True).stdout)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    env.update(nproc=len(os.sched_getaffinity(0)), workload=workload,
               threads=threads, commit=commit)
    return env


def iterate(workload, seed, traced, work):
    """One perfbench process; returns its result or an error string."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--work", str(work)] + (["--trace"] if traced else [])
    spawned_at = time.monotonic()  # CLOCK_MONOTONIC, as perfbench's ready_at
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {ITERATION_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, (proc.stderr.strip().splitlines() or ["exit"])[-1]
    result = json.loads(proc.stdout)
    result["spawned_at"] = spawned_at
    return result, None


def load_digests():
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def measure(workload, seed, seconds, trace):
    """Iterate for `seconds`; with `trace`, alternate untraced and traced
    iterations. Returns (untraced, traced, start, failures, attempted)."""
    recorded = load_digests().get(workload, {})
    work = BUILD / "work" / workload
    untraced, traced, failures = [], [], []
    digests = {}
    start = time.monotonic()
    i = 0
    while True:
        # A traced run pairs each traced iteration with an untraced one on
        # the same input, so the overhead is not confounded by the input.
        with_trace = trace and i % 2 == 1
        inputs = input_seed(seed, i // 2 if trace else i)
        result, error = iterate(workload, inputs, with_trace, work)
        i += 1
        if error is None:
            problems = analysis.check_iteration(result,
                                                recorded.get(str(inputs)))
            if digests.setdefault(inputs, result["digest"]) != result[
                    "digest"]:
                problems.append(f"digest differs between iterations on "
                                f"input {inputs}")
            if problems:
                failures.append(f"iteration {i}: " + "; ".join(problems))
            elif with_trace:
                traced.append(result)
            else:
                untraced.append(result)
        else:
            failures.append(f"iteration {i}: {error}")
        done = time.monotonic() - start >= seconds
        if done and (not trace or (traced and untraced)) or i >= 200:
            return untraced, traced, start, failures, i


def print_table(title, rows):
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<36} {value:>16.6g} {unit:<6} {note}")


def run(args):
    build()
    untraced, traced, start, failures, attempted = measure(
        args.workload, args.seed, args.seconds, args.trace == 1)
    sample = (untraced or traced or [{"threads": 0}])[0]
    env = environment(args.workload, sample["threads"])
    print("env " + json.dumps(env, sort_keys=True))
    if not env["optimize"]:
        print("WARNING: measuring an unoptimised build")
    for failure in failures:
        log(f"perfbench: {args.workload} seed {args.seed}: FAILED {failure}")

    metrics = {}
    if untraced and args.trace == 0:
        e2e = analysis.end_to_end(untraced)
        n = len(untraced)
        print_table(f"{args.workload} seed {args.seed}: end-to-end, medians "
                    f"over {n} iterations", [
                        (k, v, u, f"n={n}") for k, (v, u) in e2e.items()])
        extras = analysis.workload_extras(args.workload, untraced)
        extras.append(("failed_share", analysis.median(
            [analysis.failed_share(args.workload, r) for r in untraced]),
            "ratio", "exhausted / tested" if args.workload != "service"
            else "runs not Done / submitted"))
        print_table("  workload-specific", extras)
        metrics = e2e
    elif traced and untraced:
        layers = analysis.per_layer(args.workload, traced, untraced)
        trace_path = BUILD / f"trace-{args.workload}-{args.seed}.json"
        runs = [(f"{args.workload}-{args.seed}-{2 * k + 2}", -start,
                 r["spans"]) for k, r in enumerate(traced)]
        analysis.write_chrome_trace(trace_path, runs)
        print_table(f"{args.workload} seed {args.seed}: per layer, medians "
                    f"over {len(traced)} traced iterations",
                    [(k, v, u, "") for k, (v, u) in layers.items()])
        print(f"  chrome trace: {trace_path.relative_to(ROOT)}")
        metrics = layers

    result = {
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }
    print(json.dumps(result))
    return 0 if metrics else 1


def record_digests(spec):
    build()
    first, _, last = spec.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    table = load_digests()
    for workload in analysis.WORKLOADS:
        for seed in (input_seed(s, k) for s in seeds
                     for k in range(INPUTS_PER_SEED)):
            result, error = iterate(workload, seed, False,
                                    BUILD / "work" / workload)
            problems = [error] if error else analysis.check_iteration(
                result, None)
            if problems:
                log(f"{workload} seed {seed}: {problems}")
                return 1
            table.setdefault(workload, {})[str(seed)] = result["digest"]
            log(f"{workload} seed {seed}: {result['digest']}")
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=analysis.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", metavar="FIRST-LAST")
    args = parser.parse_args()
    try:
        if args.record_digests:
            return record_digests(args.record_digests)
        if not args.workload:
            parser.error("--workload is required")
        return run(args)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
