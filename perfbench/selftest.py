#!/usr/bin/env python3
"""Self-test of the benchmark harness at a small size.

Usage (from the root of a source checkout):
    python3 perfbench/selftest.py

Builds the driver (as run.py does), then at n = 2,000, m = 200 with two
scripts of each chaos profile checks that:
  - every workload, traced and untraced, passes its output checks (two
    repetitions each, so the same-digest-every-repetition check runs) and
    yields a result holding every metric BENCHMARK.json lists, each with
    its listed unit;
  - every workload measures every end-to-end metric, none of them 0, and
    every per-layer metric is measured by at least one workload;
  - the K = 1 and K = 4 waves print the same digest;
  - a wave that loses one JoinNotiMsg above the reliable layer fails;
  - malformed command lines are refused with usage and exit status 2.
Exits 0 when every check holds, 1 otherwise.
"""

import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SMALL = ["--n", "2000", "--m", "200", "--mixed-scripts", "2",
         "--eq-scripts", "2", "--seconds", "0"]
failures = []


def expect(ok, what):
    print("%-66s %s" % (what, "ok" if ok else "FAILED"))
    if not ok:
        failures.append(what)


def driver(*args):
    return subprocess.run([run.BINARY, *args], cwd=run.ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=run.RUN_TIMEOUT_S)


def result_of(proc, spec, key):
    values, ops = run.parse_report(proc.stdout)
    result, problem = run.build_result(values, ops, proc.returncode == 0,
                                       spec, key)
    return values, result, problem


def digest_of(proc):
    found = re.findall(r"^digest ([0-9a-f]+)$", proc.stdout, re.M)
    return found[-1] if found else None


def main():
    spec = run.load_spec()
    run.build()

    layer_seen = set()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = driver("--workload", workload, "--trace", str(trace),
                          *SMALL)
            values, result, problem = result_of(proc, spec, key)
            label = "%s --trace %d" % (workload, trace)
            expect(proc.returncode == 0 and result is not None
                   and result["correct"],
                   label + ": output checks pass %s" % (problem or ""))
            if result is None:
                continue
            units = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == units and list(got) == list(units),
                   label + ": every %s metric, with its unit" % key)
            if trace == 0:
                missing = [k for k in units if not values.get(k)]
                expect(not missing, label + ": every end-to-end metric "
                       "measured and nonzero %s" % (missing or ""))
            else:
                layer_seen |= set(values)
    unmeasured = sorted({m["name"] for m in spec["per_layer"]} - layer_seen)
    expect(not unmeasured, "every per-layer metric measured by a workload %s"
           % (unmeasured or ""))

    k1 = digest_of(driver("--workload", "join-wave", *SMALL))
    k4 = digest_of(driver("--workload", "join-wave-sharded", "--lanes", "4",
                          *SMALL))
    expect(k1 is not None and k1 == k4,
           "K=1 and K=4 wave digests match (%s, %s)" % (k1, k4))

    broken = driver("--workload", "join-wave", "--drop-join-message", *SMALL)
    _, result, _ = result_of(broken, spec, "end_to_end")
    expect(broken.returncode == 1 and result is not None
           and not result["correct"],
           "a dropped JoinNotiMsg fails the output checks")

    for argv in (["--help"], ["--workload", "join-wave", "--bogus", "1"],
                 ["--workload", "join-wave", "--seed", "12x"],
                 ["--workload", "no-such-workload"], []):
        proc = subprocess.run([sys.executable, "perfbench/run.py", *argv],
                              cwd=run.ROOT, capture_output=True, text=True,
                              timeout=60)
        expect(proc.returncode == 2 and "usage" in proc.stderr
               and not proc.stdout.strip(),
               "run.py %s is refused" % " ".join(argv))
    for argv in (["--n", "1e5"], ["--min-reps", "1"], ["--lookups", "10"]):
        proc = driver("--workload", "join-wave", *argv)
        expect(proc.returncode == 2 and not proc.stdout.strip(),
               "perfbench %s is refused" % " ".join(argv))

    print("selftest: %s" % ("PASS" if not failures else
                            "%d FAILED" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
