#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, print the result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload compile_edit|compile_warm|serve \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

The first form builds the XPDL libraries, `xpdlc` and the `perfbench`
runner from the checkout's sources (CMake, into $CARGO_TARGET_DIR or
.bench_build), then runs the workload. Every metric is printed as a line
with its unit and sample count; the last line of stdout is the JSON result
`{"correct", "attempted", "failed", "metrics"}`. The exit status is 0 only
when every op was correct.

--self-check runs each workload briefly, traced and untraced, checks that
every metric named in BENCHMARK.json is printed with its unit, and injects
one failed compile through XPDL_FAULTS to check that the failure is
counted rather than dropped.

Workloads, metrics and the layer -> metric predictions are documented in
perfbench/src/workloads.h; the default and holdout seeds are in
perfbench/seeds.json.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile_edit", "compile_warm", "serve")
RUN_TIMEOUT_S = 170
# The fault plan for the self-check: the repository root listing fails, so
# xpdlc finds no descriptors and exits 1.
INJECTED_FAULT = "transport.list:*=fail:1:not-found"


def fail(msg):
    print("perfbench: error: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds perfbench + xpdlc; returns the paths."""
    for needed in ("CMakeLists.txt", "src/tools/xpdlc.cpp", "include", "models"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no XPDL source tree at %s (missing %s)" % (ROOT, needed))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                shutil.rmtree(out, ignore_errors=True)
                fail("cmake configure failed (see %s)" % log_path)
        cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
        if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
            with open(log_path) as f:
                sys.stderr.write("".join(f.readlines()[-30:]))
            fail("build failed (see %s)" % log_path)
    runner = os.path.join(out, "perfbench")
    xpdlc = os.path.join(out, "xpdl", "src", "tools", "xpdlc")
    for path in (runner, xpdlc):
        if not os.access(path, os.X_OK):
            fail("build produced no %s" % path)
    return runner, xpdlc


def run_bench(runner, xpdlc, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, stdout text)."""
    work = os.path.join(ROOT, ".bench_work", "%d" % os.getpid())
    cmd = [runner, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--root", ROOT, "--xpdlc", xpdlc, "--work", work,
           "--expected", os.path.join(HERE, "expected")] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired as e:
        code = 1
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        print("perfbench: error: %s timed out" % workload, file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    return code, out


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def self_check():
    runner, xpdlc = build()
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(bench_path):
        fail("no BENCHMARK.json at the checkout root")
    with open(bench_path) as f:
        bench = json.load(f)
    problems = []
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads %s != %s" % (names, WORKLOADS))
    for workload in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            before = len(problems)
            code, out = run_bench(runner, xpdlc, workload, 1, 1, trace)
            result = last_json(out)
            tag = "%s trace=%d" % (workload, trace)
            if code != 0 or result is None:
                problems.append("%s: exit %d, no result" % (tag, code))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (tag, sorted(result)))
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append("%s: not correct" % tag)
            metrics = result.get("metrics", {})
            wanted = {m["name"]: m["unit"] for m in bench[key]}
            if set(metrics) != set(wanted):
                problems.append("%s: metrics differ from BENCHMARK.json: "
                                "missing %s, extra %s" % (
                                    tag, sorted(set(wanted) - set(metrics)),
                                    sorted(set(metrics) - set(wanted))))
            for name, unit in wanted.items():
                m = metrics.get(name)
                if m is None:
                    continue
                if m.get("unit") != unit:
                    problems.append("%s: %s has unit %r, BENCHMARK.json says "
                                    "%r" % (tag, name, m.get("unit"), unit))
                v = m.get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append("%s: %s is not a finite number" % (tag, name))
                line = [l for l in out.splitlines()
                        if l.startswith("perfbench: %s | %s " % (workload, name))]
                if not line or unit not in line[0] or "(n=" not in line[0]:
                    problems.append("%s: no line for %s with unit and sample "
                                    "count" % (tag, name))
            print("self-check: %s %s" %
                  (tag, "ok" if len(problems) == before else "FAILED"))
    # One injected failed compile must land in error_rate.
    code, out = run_bench(runner, xpdlc, "compile_warm", 1, 1, 0,
                           ("--inject-fault", INJECTED_FAULT))
    result = last_json(out)
    rate = [l for l in out.splitlines() if "| error_rate " in l]
    if code == 0 or result is None or result.get("failed", 0) < 1 or \
            result.get("correct") is not False:
        problems.append("injected fault: expected a failed op, got exit %d and "
                        "%s" % (code, result))
    elif not rate or float(rate[0].split("=")[1].split()[0]) <= 0:
        problems.append("injected fault: error_rate line missing or zero")
    else:
        print("self-check: injected fault counted (%d of %d ops failed)" %
              (result["failed"], result["attempted"]))
    for p in problems:
        print("self-check: FAIL: " + p)
    print("self-check: %s" % ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    seed = args.seed
    if seed is None:
        with open(os.path.join(HERE, "seeds.json")) as f:
            seed = json.load(f)["default"]
    if seed < 0:
        parser.error("--seed must be non-negative")
    runner, xpdlc = build()
    code, out = run_bench(runner, xpdlc, args.workload, seed, args.seconds,
                           args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
