#!/usr/bin/env python3
"""Self-test of the benchmark, at a tiny scale (seconds, once built).

    python3 perfbench/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it
runs perfbench/run.py untraced and traced with --tiny and checks that:

  * the result line has exactly the keys correct, attempted, failed and
    metrics, the run is correct and no cell failed;
  * the metric names and units printed match BENCHMARK.json exactly:
    every end-to-end metric untraced, every per-layer metric traced;
  * end-to-end values are positive and finite;
  * the traced run reproduces the untraced run's RunStats digest. The
    traced process also checks every cell's RunStats against its own
    untraced run, so this shows that the Workload, Rad,
    RelocationPolicy and NetworkModel decorators forward every call
    that affects the simulation.

It also checks that the benchmark exits non-zero without a result when
the simulator sources are missing. Exits 0 when every check passes.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
DIGEST = re.compile(r"^perfbench digest .* runstats=([0-9a-f]{16})$", re.M)

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL: " + what)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--tiny"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    tag = "%s --trace %d" % (workload, trace)
    if p.returncode != 0:
        check(False, "%s exited %d: %s" % (tag, p.returncode,
                                          p.stderr[-2000:]))
        return None, None
    result = json.loads(p.stdout.strip().splitlines()[-1])
    digest = DIGEST.search(p.stdout)
    check(digest is not None, tag + ": no RunStats digest line")
    return result, digest.group(1) if digest else None


def check_result(tag, result, expected):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          tag + ": result keys " + ",".join(sorted(result)))
    check(result.get("correct") is True, tag + ": not correct")
    check(result.get("failed") == 0, tag + ": failed cells")
    check(isinstance(result.get("attempted"), int)
          and result["attempted"] >= 1, tag + ": attempted < 1")
    metrics = result.get("metrics", {})
    names = {m["name"]: m["unit"] for m in expected}
    check(set(metrics) == set(names),
          tag + ": metric names differ from BENCHMARK.json: missing %s, "
          "extra %s" % (sorted(set(names) - set(metrics)),
                        sorted(set(metrics) - set(names))))
    for name, m in metrics.items():
        check(m.get("unit") == names.get(name),
              "%s: %s unit %r" % (tag, name, m.get("unit")))
        check(isinstance(m.get("value"), (int, float))
              and math.isfinite(m["value"]),
              "%s: %s value %r" % (tag, name, m.get("value")))
    return metrics


def check_refuses_without_sources():
    """The benchmark alone (no simulator sources) must fail cleanly."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "paper-apps", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, capture_output=True,
                       text=True, timeout=180)
    check(p.returncode != 0, "bare checkout: exit code 0")
    check(p.stdout.strip() == "", "bare checkout: printed a result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        untraced, d0 = run(name, 0)
        traced, d1 = run(name, 1)
        if untraced is not None:
            m = check_result(name + " untraced", untraced,
                             spec["end_to_end"])
            for k, v in m.items():
                check(v.get("value", 0) > 0, "%s: %s is not positive"
                      % (name, k))
        if traced is not None:
            check_result(name + " traced", traced, spec["per_layer"])
        check(d0 is not None and d0 == d1,
              "%s: traced digest %s != untraced %s" % (name, d1, d0))
        print("%-20s untraced+traced checked, digest %s" % (name, d0))
    check_refuses_without_sources()
    if failures:
        print("%d check(s) failed" % len(failures))
        return 1
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
