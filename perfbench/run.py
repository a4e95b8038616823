#!/usr/bin/env python3
"""Builds the hcube benchmark driver from source and runs one workload.

Usage (from the root of a source checkout):
    python3 perfbench/run.py --workload <name> [--seed N] [--seconds N]
                             [--trace 0|1]

Workloads and metrics are listed in BENCHMARK.json and explained in
perfbench/README.md. The first run configures and builds the driver into
.bench_build/perfbench; later runs reuse it (an incremental build is a
no-op). The driver's report is passed through, then the result object
{"correct", "attempted", "failed", "metrics"} built from its "metric" and
"ops" lines with the names and units BENCHMARK.json lists, as the last
line. The result and the run environment are also stored under
.bench_build/results/.

Exit status: 0 when every output check passed, 1 when a check failed or
the driver did not produce a result, 2 on a usage error or when no
hcube source tree is found.
"""

import fcntl
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RESULTS_DIR = os.path.join(BUILD_ROOT, "results")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

USAGE = (
    "usage: python3 perfbench/run.py --workload <name> [--seed N] "
    "[--seconds N] [--trace 0|1]\n"
)


def fail_usage(message):
    sys.stderr.write("run.py: %s\n%s" % (message, USAGE))
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_whole(flag, text, lo, hi):
    if not text.isdigit():
        fail_usage("%s needs a whole number, got %r" % (flag, text))
    value = int(text)
    if not lo <= value <= hi:
        fail_usage("%s must be in [%d, %d]" % (flag, lo, hi))
    return value


def parse_args(argv, spec):
    """Strict flag parsing: every flag known, every value well-formed."""
    workloads = [w["name"] for w in spec["workloads"]]
    args = {"seed": 1, "seconds": spec["run_seconds"], "trace": 0}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag in ("--help", "-h"):
            fail_usage("usage requested; workloads: " + ", ".join(workloads))
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            fail_usage("unknown flag %r" % flag)
        if i + 1 >= len(argv):
            fail_usage("missing value for %s" % flag)
        value = argv[i + 1]
        i += 2
        if flag == "--workload":
            if value not in workloads:
                fail_usage("unknown workload %r" % value)
            args["workload"] = value
        elif flag == "--seed":
            args["seed"] = parse_whole(flag, value, 0, 2**63 - 1)
        elif flag == "--seconds":
            args["seconds"] = parse_whole(flag, value, 1, 3600)
        else:
            args["trace"] = parse_whole(flag, value, 0, 1)
    if "workload" not in args:
        fail_usage("--workload is required")
    return args


def build():
    """Configures (once) and builds the driver; output goes to stderr."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                        "-j", str(os.cpu_count() or 1)],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def parse_report(stdout):
    """The driver's "metric <name> <value>" lines as a dict, and its
    "ops <attempted> <failed>" line as a pair (None when missing)."""
    values, ops = {}, None
    for line in stdout.split("\n"):
        words = line.split()
        if len(words) == 3 and words[0] == "metric":
            values[words[1]] = float(words[2])
        elif len(words) == 3 and words[0] == "ops":
            ops = (int(words[1]), int(words[2]))
    return values, ops


def build_result(values, ops, correct, spec, key):
    """The result object over the metrics BENCHMARK.json lists under `key`,
    in list order with their units; a listed metric the workload did not
    measure reads 0. Returns (result, problem)."""
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(values) - known)
    if unknown:
        return None, "metrics not in BENCHMARK.json: %s" % ", ".join(unknown)
    bad = sorted(k for k, v in values.items() if not math.isfinite(v))
    if bad:
        return None, "non-finite metrics: %s" % ", ".join(bad)
    if ops is None:
        return None, "no ops line"
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in spec[key]}
    return {"correct": correct, "attempted": ops[0], "failed": ops[1],
            "metrics": metrics}, None


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        fail_usage("BENCHMARK.json not found beside perfbench/")
    spec = load_spec()
    args = parse_args(argv, spec)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: no hcube sources under %s/src\n" % ROOT)
        return 2
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("run.py: build failed: %s\n" % e)
        return 2

    stem = "%s-seed%d-trace%d" % (args["workload"], args["seed"],
                                  args["trace"])
    cmd = [BINARY, "--workload", args["workload"],
           "--seed", str(args["seed"]), "--seconds", str(args["seconds"]),
           "--trace", str(args["trace"])]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: driver exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1):
        sys.stderr.write("run.py: driver exited %d without a result\n"
                         % proc.returncode)
        return proc.returncode if proc.returncode == 2 else 1

    values, ops = parse_report(proc.stdout)
    key = "per_layer" if args["trace"] else "end_to_end"
    result, problem = build_result(values, ops, proc.returncode == 0, spec,
                                   key)
    if problem:
        sys.stderr.write("run.py: malformed driver report: %s\n" % problem)
        return 1
    env = {}
    for line in proc.stdout.split("\n"):
        if line.startswith("env "):
            env = json.loads(line[4:])
    with open(os.path.join(RESULTS_DIR, stem + ".json"), "w") as f:
        json.dump({"env": env, "result": result}, f, indent=1)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
