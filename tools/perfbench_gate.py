#!/usr/bin/env python3
"""Gates the benchmark's deterministic counters against a committed baseline.

Usage (from the root of a source checkout):
    python3 tools/perfbench_gate.py [--update]

Builds the benchmark driver through perfbench/run.py, as
perfbench/selftest.py does, and runs every workload at the self-test size
with tracing on (the sharded wave on 4 lanes). Every counter that repeats
exactly from run to run -- sim.*, net.*, rel.*, proto.*, core.*, the
builder's counts and bytes, route.lookups, route.hops_mean, the chaos
counts and trace.spans -- is compared with
bench/baselines/perfbench-small.json, and so is the wave digest, at K = 1
and at K = 4. Times, rates, ns/msg and speed-ups are not gated.

Prints each mismatch as "name: baseline X, got Y". Exits 0 when every
value matches, 1 on any mismatch or failed driver run, 2 on a usage error.
--update writes this run's values to the baseline instead of comparing: a
change that moves a counter commits the new file and says why.
"""

import json
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402

BASELINE = os.path.join(ROOT, "bench", "baselines", "perfbench-small.json")
SMALL = ["--n", "2000", "--m", "200", "--mixed-scripts", "2",
         "--eq-scripts", "2", "--seconds", "0"]
LANES = {"join-wave-sharded": ["--lanes", "4"]}
EXACT_PREFIXES = ("sim.", "net.", "rel.", "proto.", "core.", "chaos.")
EXACT_NAMES = {"builder.reverse_entries", "builder.table_bytes",
               "builder.arena_bytes", "route.lookups", "route.hops_mean",
               "trace.spans"}
VARYING_SUFFIXES = ("_s", "_per_s", "_ns_per_msg", "_ns_per_lookup",
                    "speedup")


def exact(name):
    if name.endswith(VARYING_SUFFIXES):
        return False
    return name.startswith(EXACT_PREFIXES) or name in EXACT_NAMES


def driver(*args):
    """Runs the driver; returns (metrics, digest) or exits on a failed run."""
    proc = subprocess.run([run.BINARY, *args], cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=run.RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout + proc.stderr)
        print("perfbench_gate: driver %s exited %d"
              % (" ".join(args), proc.returncode))
        sys.exit(1)
    values, _ = run.parse_report(proc.stdout)
    digests = re.findall(r"^digest ([0-9a-f]+)$", proc.stdout, re.M)
    return values, digests[-1] if digests else None


def measure():
    got = {"args": " ".join(SMALL + ["--trace", "1"]), "workloads": {}}
    spec = run.load_spec()
    for workload in [w["name"] for w in spec["workloads"]]:
        values, digest = driver("--workload", workload, "--trace", "1",
                                *LANES.get(workload, []), *SMALL)
        got["workloads"][workload] = {k: v for k, v in sorted(values.items())
                                      if exact(k)}
        if digest is not None:
            got["wave_digest_k4"] = digest
    _, got["wave_digest_k1"] = driver("--workload", "join-wave", *SMALL)
    return got


def compare(base, got):
    mismatches = []

    def check(name, want, have):
        if want != have:
            mismatches.append("%s: baseline %s, got %s" % (name, want, have))

    for key in ("wave_digest_k1", "wave_digest_k4"):
        check(key, base.get(key), got.get(key))
    for workload, have in got["workloads"].items():
        want = base["workloads"].get(workload, {})
        for name in sorted(set(want) | set(have)):
            check("%s %s" % (workload, name), want.get(name),
                  have.get(name))
    return mismatches


def main(argv):
    if argv not in ([], ["--update"]):
        sys.stderr.write(__doc__)
        return 2
    run.build()
    got = measure()
    if argv == ["--update"]:
        os.makedirs(os.path.dirname(BASELINE), exist_ok=True)
        with open(BASELINE, "w") as f:
            json.dump(got, f, indent=1)
            f.write("\n")
        print("perfbench_gate: wrote %s" % os.path.relpath(BASELINE, ROOT))
        return 0
    with open(BASELINE) as f:
        base = json.load(f)
    mismatches = compare(base, got)
    for line in mismatches:
        print(line)
    print("perfbench_gate: %s" % ("PASS" if not mismatches else
                                  "%d mismatches" % len(mismatches)))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
