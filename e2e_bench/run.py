#!/usr/bin/env python3
"""The benchmark command: builds the runner from source and runs one workload.

    python3 e2e_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a pghive checkout. The first run configures and builds
the benchmark package (e2e_bench/CMakeLists.txt, which builds the library
and CLI from the checkout's src/) into .bench_build/e2e; later runs reuse
the build. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: with --trace 0 every end_to_end
metric of BENCHMARK.json, with --trace 1 every per_layer metric. A layer
that a workload leaves idle reads 0. Build output and the runner's notes go
to stderr.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "e2e")
RUNNER_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print(f"e2e_bench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    configure = ["cmake", "-S", "e2e_bench", "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS,
                   "--target", "e2e_runner", "pghive_app"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_workload(args):
    work_dir = os.path.join(BUILD_DIR, f"run-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [os.path.join(BUILD_DIR, "e2e_runner"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pghive", os.path.join(BUILD_DIR, "pghive", "apps", "pghive"),
           "--work-dir", work_dir]
    # Own process group, so a timeout also stops the daemons it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            process_group=0)
    try:
        out, _ = proc.communicate(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish in {RUNNER_TIMEOUT_S}s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"runner exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail("runner printed no result")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    return json.loads(lines[-1])


def select_metrics(raw, spec, trace):
    """Exactly the declared metrics of this mode, units checked."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(raw) - known)
    if unknown:
        fail(f"runner reports undeclared metrics {unknown}")
    metrics = {}
    for m in declared:
        got = raw.get(m["name"])
        if got is None:
            if not trace:
                fail(f"runner did not measure {m['name']}")
            got = {"value": 0, "unit": m["unit"]}  # layer idle here
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} measured in {got['unit']}, declared "
                 f"{m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile("BENCHMARK.json") and
            os.path.isfile(os.path.join("src", "CMakeLists.txt"))):
        fail("run from the root of a pghive checkout "
             "(BENCHMARK.json and src/ not found)")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    build()
    result = run_workload(args)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": select_metrics(result["metrics"], spec, bool(args.trace)),
    }))


if __name__ == "__main__":
    main()
