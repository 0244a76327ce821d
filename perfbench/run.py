#!/usr/bin/env python3
"""Run one workload of the repository's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds the benchmark binary
(perfbench/CMakeLists.txt, which builds the program from src/) into
.bench_build/ and trains the networks the workloads load into
.bench_build/models; neither step is timed. The workload then runs in its
own process, and the last line of stdout is its JSON result. The exit
code is non-zero when the build fails, the workload fails, or an output
check fails.

An untraced run reports setup_s as the median of several set-ups, each
in a fresh process: SETUP_PROCESSES set-up-only runs, then the timed
run's own. The metric names, their order and their units are those of
BENCHMARK.json; a traced run reports 0 for a layer the workload does not
exercise.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "cmake")
MODELS = os.path.join(BUILD, "models")
BINARY = os.path.join(CMAKE_BUILD, "raqbench")

# Together under the 900 s a first run (configure, build, train) may take.
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 400
PREPARE_TIMEOUT_S = 200
# The set-up processes and the timed run together.
RUN_TIMEOUT_S = 170
SETUP_PROCESSES = 4


def run(cmd, timeout, env=None, stdout=None):
    """Run `cmd` to completion; on timeout kill it and wait for it."""
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.exit(f"perfbench: {' '.join(cmd[:2])} timed out after {timeout} s")
        return proc.returncode, out


def build(env):
    if not os.path.exists(os.path.join(CMAKE_BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        code, _ = run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", CMAKE_BUILD,
                       "-DCMAKE_BUILD_TYPE=Release", *generator],
                      CONFIGURE_TIMEOUT_S, env, stdout=sys.stderr)
        if code != 0:
            shutil.rmtree(CMAKE_BUILD, ignore_errors=True)
            sys.exit("perfbench: configuring the build failed")
    code, _ = run(["cmake", "--build", CMAKE_BUILD, "--target", "raqbench", "-j", "4"],
                  BUILD_TIMEOUT_S, env, stdout=sys.stderr)
    if code != 0:
        sys.exit("perfbench: the build failed")


def prepare(env):
    """Train any missing network (a no-op once they are all cached)."""
    code, _ = run([BINARY, "prepare"], PREPARE_TIMEOUT_S, env, stdout=sys.stderr)
    if code != 0:
        sys.exit("perfbench: training the benchmark networks failed")


def last_json_line(out):
    lines = (out or "").strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["per_layer" if trace else "end_to_end"]


def order_metrics(metrics, trace):
    """The workload's metrics in BENCHMARK.json's order and units."""
    ordered = {}
    for declared in declared_metrics(trace):
        name, unit = declared["name"], declared["unit"]
        if name not in metrics:
            if not trace:
                sys.exit(f"perfbench: the workload did not report {name}")
            ordered[name] = {"value": 0, "unit": unit}
            continue
        got = metrics.pop(name)
        if got["unit"] != unit:
            sys.exit(f"perfbench: {name} is in {got['unit']}, BENCHMARK.json says {unit}")
        ordered[name] = got
    if metrics:
        sys.exit(f"perfbench: metrics missing from BENCHMARK.json: {', '.join(metrics)}")
    return ordered


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    trace = args.trace == "1"

    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ, RAQ_MODEL_CACHE=MODELS, TMPDIR=BUILD)
    build(env)
    prepare(env)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    workload = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = []
    for _ in range(0 if trace else SETUP_PROCESSES):
        code, out = run([BINARY, "setup", *workload], deadline - time.monotonic(), env,
                        stdout=subprocess.PIPE)
        result = last_json_line(out)
        if code != 0 or result is None:
            sys.stderr.write(out or "")
            sys.exit(f"perfbench: set-up of workload {args.workload} failed (exit {code})")
        setups.append(result["metrics"]["setup_s"]["value"])

    code, out = run([BINARY, "run", *workload, "--seconds", str(args.seconds),
                     "--trace", args.trace, "--artifact-dir", os.path.join(BUILD, "traces")],
                    deadline - time.monotonic(), env, stdout=subprocess.PIPE)
    result = last_json_line(out)
    if result is None:
        sys.stderr.write(out or "")
        sys.exit(f"perfbench: workload {args.workload} failed (exit {code})")
    metrics = result["metrics"]
    if not trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    result["metrics"] = order_metrics(metrics, trace)
    # A failed output check still prints its result (correct: false) and
    # exits non-zero.
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
