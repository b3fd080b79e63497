#!/usr/bin/env python3
"""Self-test of the benchmark, in toy-size mode (about a minute).

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Checks BENCHMARK.json against
the benchmark contract, runs every workload (BENCHMARK.json's, and
corpus-churn, which run.py also runs) with --toy at both trace settings
and checks each result line (correct answers, no failures, the
exact metric set with BENCHMARK.json's units, deterministic replay
counters), and checks that the benchmark fails cleanly in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import re
import shutil
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check(cond, msg):
    if not cond:
        print("selftest: FAIL: " + msg)
        sys.exit(1)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json keys")
    check(1 <= len(spec["paths"]) <= 16 and all(PATH.match(p) and ".." not in p for p in spec["paths"]),
          "paths")
    check(len(spec["command"]) <= 32 and all(len(c) <= 200 for c in spec["command"]), "command")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    check(2 <= len(spec["workloads"]) <= 8, "workload count")
    names = []
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"],
              "workload " + w.get("name", "?"))
        names.append(w["name"])
    check(1 <= len(spec["end_to_end"]) <= 16, "end_to_end count")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
              "end_to_end " + m["name"])
        names.append(m["name"])
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
              for m in spec["end_to_end"]), "setup_s")
    check(1 <= len(spec["per_layer"]) <= 128, "per_layer count")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, "per_layer " + m["name"])
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), "unit of " + m["name"])
    check(all(NAME.match(n) for n in names) and len(names) == len(set(names)), "names")
    check(len(json.dumps(spec)) <= 64 * 1024, "size")


def run(args, cwd="."):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    check_spec(spec)
    for w in spec["workloads"] + [{"name": "corpus-churn"}]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run(["--workload", w["name"], "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), "--toy"])
            check(res.returncode == 0, "%s trace %d exited %d: %s" % (
                w["name"], trace, res.returncode, res.stderr[-2000:]))
            result = json.loads(res.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                  "%s trace %d: correct=%s failed=%s" % (
                      w["name"], trace, result["correct"], result["failed"]))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            check(set(got) == set(want), "%s trace %d: metric set" % (w["name"], trace))
            for name, m in got.items():
                check(m["unit"] == want[name] and isinstance(m["value"], (int, float)),
                      "%s trace %d: metric %s" % (w["name"], trace, name))
            print("selftest: %s --trace %d ok (%d operations)" % (w["name"], trace, result["attempted"]))

    # A directory holding only BENCHMARK.json and the benchmark's files
    # must make it fail, without printing a result.
    bare = os.path.join("perfbench", ".work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for p in spec["paths"]:
        shutil.copytree(p, os.path.join(bare, p), ignore=shutil.ignore_patterns(".work"))
    res = run(["--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
               "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    check(res.returncode != 0 and '"metrics"' not in res.stdout, "bare directory did not fail cleanly")
    print("selftest: bare directory fails cleanly (exit %d)" % res.returncode)
    print("selftest: PASS")


if __name__ == "__main__":
    main()
