#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/main.exe from source
(release profile, build tree .bench_build), runs it with the search
parallelism pinned to 1, forwards its report lines and prints, as the last
line, one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics.

--determinism runs the workload twice briefly from the same build and
compares the deterministic counters of the two runs exactly.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
OUT_DIR = os.path.join("perfbench", "out")
NEEDED = ["dune-project", "lib", os.path.join("rules", "open_oodb.prairie"),
          os.path.join("rules", "relational.prairie"), "BENCHMARK.json"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune not found on PATH")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune_command() + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                            "--profile", "release", "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def run_exe(args, seconds, trace, seed):
    """Run main.exe; returns its report lines, its result and its peak RSS."""
    env = dict(os.environ, PRAIRIE_SEARCH_JOBS="1")
    cmd = [EXE, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", OUT_DIR]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        # wait4 reports this child's own resource use, VmHWM included
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail("workload exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line")
    result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    return lines[:-1], result


def compare_counters(old, new):
    keys = sorted(set(old) | set(new))
    return ["%s: %s vs %s" % (k, old.get(k), new.get(k))
            for k in keys if old.get(k) != new.get(k)]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--determinism", action="store_true",
                   help="run twice briefly and compare the deterministic counters")
    args = p.parse_args()

    missing = [f for f in NEEDED if not os.path.exists(f)]
    if missing:
        fail("not a source checkout (missing %s)" % ", ".join(missing))
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    os.makedirs(OUT_DIR, exist_ok=True)

    if args.determinism:
        _, first = run_exe(args, 1, 0, args.seed)
        _, second = run_exe(args, 1, 0, args.seed)
        diffs = compare_counters(first["counters"], second["counters"])
        for d in diffs:
            print("determinism: counter differs: " + d)
        print("determinism: %d counters, %d differ" % (len(first["counters"]), len(diffs)))
        sys.exit(1 if diffs else 0)

    report, result = run_exe(args, args.seconds, args.trace, args.seed)
    for line in report:
        print(line)
    print("%-34s %14.6g MB" % ("peak_rss_mb", result["metrics"]["peak_rss_mb"]["value"]))
    for key, value in result["info"].items():
        print("info %s %s" % (key, json.dumps(value)))

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("workload did not measure %s" % m["name"], 3)
        if got["unit"] != m["unit"]:
            fail("%s measured in %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]), 3)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": bool(result["correct"]), "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
