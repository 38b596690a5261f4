#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 35 --trace 0

Builds the driver (perfbench/CMakeLists.txt, into $CARGO_TARGET_DIR or
.bench_build) on first use, then:

  --trace 0  runs untraced passes of the workload's fixed work, one process
             per pass, until --seconds is used up (at least one pass), and
             reports the median over passes of every end-to-end metric.
             The single-threaded workloads time each pass next to a
             host-speed probe thread and scale their host-time metrics to
             the reference host's speed (perfbench/README.md, Noise).
  --trace 1  runs one traced invocation (an untraced pass, a traced pass
             with spans and the layer observer, calibration) and reports
             every per-layer metric. The spans go to
             .bench_work/trace-<workload>-seed<N>.json (Chrome trace-event
             JSON, checked with scripts/check_trace_json.py) and the metrics
             to layers-<workload>-seed<N>.json next to it.

Outputs are checked: at the pinned seed (perfbench/pins.json) the output
hash must equal the pin; at any other seed it must equal the hash of the
library's own reference path (run_experiment, replay_trace, run_local,
explore). Every pass must also agree with every other. A mismatch fails all
operations of the run and makes the exit code 1. A pass whose operations
failed (a job that threw, an oracle violation, a fabric coordinator that
died) is counted in `failed` and left out of the check and the metrics.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-sweep", "touch-all", "fabric-grid", "explore-fuzz")
# Every invocation must end within 180 s; leave room for the last pass.
DEADLINE_S = 165.0
# A layer split whose intervals do not tile the traced run within this
# share is reported as incorrect.
SHARE_SUM_TOLERANCE = 0.01


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def die(message):
    log(message)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    base = Path(target)
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no repository sources under {ROOT}: run from a checkout")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4",
                  "--target", "mra_perfbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            die(f"build failed: {err}")
        if done.returncode != 0:
            die(f"build failed: {' '.join(cmd)}")
    return out / "mra_perfbench"


def run_driver(binary, workload, seed, mode, timeout, extra=()):
    """One driver invocation; its JSON line, or None if it crashed."""
    cmd = [str(binary), workload, "--seed", str(seed), "--mode", mode,
           "--work-dir", str(ROOT / ".bench_work"), *extra]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(timeout, 1.0),
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"{workload} {mode} pass timed out")
        return None
    lines = [ln for ln in done.stdout.splitlines() if ln.startswith("{")]
    if not lines:
        log(f"{workload} {mode} pass exited {done.returncode} with no result")
        return None
    result = json.loads(lines[-1])
    for error in result.get("errors", []):
        log(f"{workload}: {error}")
    return result


def expected_hash(binary, workload, seed, pins, deadline):
    """The pin at the pinned seed, else the library's reference path."""
    if seed == pins["seed"]:
        return pins["hashes"][workload], "pin"
    ref = run_driver(binary, workload, seed, "reference",
                     deadline - time.monotonic())
    if ref is None or ref["failed"] != 0:
        return None, "reference"
    return ref["hash"], "reference"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = json.loads((HERE / "pins.json").read_text())
    binary = build()
    started = time.monotonic()
    deadline = started + DEADLINE_S
    (ROOT / ".bench_work").mkdir(exist_ok=True)

    correct = True
    attempted = 0
    failed = 0
    if args.trace == 0:
        wanted = spec["end_to_end"]
        passes = []
        durations = []
        while True:
            t0 = time.monotonic()
            result = run_driver(binary, args.workload, args.seed, "run",
                                deadline - t0)
            durations.append(time.monotonic() - t0)
            if result is None:
                correct = False
                break
            passes.append(result)
            used = time.monotonic() - started
            if used + statistics.median(durations) > args.seconds:
                break
            if time.monotonic() + 2 * max(durations) > deadline:
                break
        attempted = sum(p["attempted"] for p in passes)
        failed = sum(p["failed"] for p in passes)
        # A pass with failed operations is already counted in `failed`; it
        # neither did the fixed work nor owes the expected output, so it
        # stays out of the output check and the metrics.
        clean = [p for p in passes if p["failed"] == 0]
        if clean:
            hashes = {p["hash"] for p in clean}
            want, source = expected_hash(binary, args.workload, args.seed,
                                         pins, deadline)
            if hashes != {want}:
                log(f"output hash {sorted(hashes)} != {source} {want}")
                correct = False
        else:
            correct = False
        values = {}
        for metric in wanted:
            samples = [p["metrics"].get(metric["name"]) for p in clean]
            if not samples or any(v is None for v in samples):
                log(f"metric {metric['name']} missing")
                correct = False
                continue
            values[metric["name"]] = statistics.median(samples)
        speeds = [p["metrics"]["host.speed"] for p in clean
                  if "host.speed" in p["metrics"]]
        log(f"{args.workload}: median of {len(clean)} clean pass(es) of "
            f"{len(passes)}; host speed "
            f"{statistics.median(speeds) if speeds else 'not probed'}")
    else:
        wanted = spec["per_layer"]
        stem = f"{args.workload}-seed{args.seed}"
        trace_path = ROOT / ".bench_work" / f"trace-{stem}.json"
        layers_path = ROOT / ".bench_work" / f"layers-{stem}.json"
        result = run_driver(binary, args.workload, args.seed, "traced",
                            deadline - time.monotonic(),
                            ("--trace-out", str(trace_path)))
        values = {}
        if result is None:
            correct = False
        else:
            attempted = result["attempted"]
            failed = result["failed"]
            want, source = expected_hash(binary, args.workload, args.seed,
                                         pins, deadline)
            if failed == 0 and result["hash"] != want:
                log(f"output hash {result['hash']} != {source} {want}")
                correct = False
            values = result["metrics"]
            names = {m["name"] for m in wanted}
            if set(values) != names:
                log(f"per-layer names differ from BENCHMARK.json: "
                    f"{sorted(set(values) ^ names)}")
                correct = False
            share_sum = values.get("obs.share_sum") or 0.0
            if share_sum and abs(share_sum - 1.0) > SHARE_SUM_TOLERANCE:
                log(f"layer shares sum to {share_sum}, not the traced run")
                correct = False
            layers_path.write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed,
                 "trace": trace_path.name, "metrics": values},
                indent=1, sort_keys=True) + "\n")
            checker = ROOT / "scripts" / "check_trace_json.py"
            check = subprocess.run([sys.executable, str(checker),
                                    str(trace_path)],
                                   stdout=sys.stderr, stderr=sys.stderr)
            if check.returncode != 0:
                correct = False
            log(f"trace: {trace_path}  layers: {layers_path}")

    attempted = max(attempted, 1)
    if not correct:
        failed = attempted
    metrics = {}
    for metric in wanted:
        if metric["name"] in values:
            metrics[metric["name"]] = {"value": values[metric["name"]],
                                       "unit": metric["unit"]}
            print(f"{args.workload:13s} {metric['name']:32s} "
                  f"{values[metric['name']]:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
