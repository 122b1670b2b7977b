#!/usr/bin/env python3
"""The RAW benchmark: builds rawbench from source and runs one workload.

Run from the repository root:

    python3 rawbench/run.py --workload explore|serve|refresh \
        --seed N --seconds S --trace 0|1

Builds the engine and the benchmark (Release) into .bench_build/, runs the
benchmark's self-test (once per build), generates the workload's inputs from
the seed into .bench_data/ (reused while the seed and sizes match), then runs
the workload.
Every answer is checked against an oracle. Prints every metric with its unit
and sample count plus host metadata, then, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. The metrics are the
end_to_end metrics of BENCHMARK.json with --trace 0, and its per_layer
metrics (from a separate traced run) with --trace 1.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DATA_DIR = os.path.join(ROOT, ".bench_data")
TMP_DIR = os.path.join(DATA_DIR, "tmp")

# A run must end within 180 s; the first run in a checkout also builds and
# may take 900 s.
RUN_LIMIT_S = 170
FIRST_RUN_LIMIT_S = 880


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def child_env():
    # Library defaults only: the engine reads RAW_* overrides (threads,
    # kernels, autotune, cache budgets, fault injection) from the environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RAW_")}
    env["TMPDIR"] = TMP_DIR
    return env


def build():
    """Configures (once) and builds; returns True on the first build."""
    os.makedirs(TMP_DIR, exist_ok=True)
    fresh = not os.path.exists(os.path.join(BUILD_DIR, "rawbench"))
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=child_env())
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                    "rawbench", "rawbench_selftest"],
                   check=True, stdout=sys.stderr, env=child_env())
    return fresh


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(cmd, timeout_s):
    """Runs cmd in its own process group. The group is killed afterwards, so
    no JIT compiler it started outlives it (the watchdog exits mid-query)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.wait()
        raise
    kill_group(proc.pid)
    return proc.returncode, out


def selftest():
    """Runs the self-test of the benchmark's helpers once per build: a marker
    in the build directory names the binaries it passed with."""
    binaries = [os.path.join(BUILD_DIR, b)
                for b in ("rawbench", "rawbench_selftest")]
    stamp = " ".join("%d:%d" % (os.stat(b).st_mtime_ns, os.stat(b).st_size)
                     for b in binaries)
    marker = os.path.join(BUILD_DIR, "selftest.passed")
    try:
        with open(marker) as f:
            if f.read() == stamp:
                return True
    except OSError:
        pass
    scratch = os.path.join(TMP_DIR, "selftest")
    rc, _ = run_child([binaries[1], scratch], 60)
    shutil.rmtree(scratch, ignore_errors=True)
    if rc != 0:
        return False
    with open(marker, "w") as f:
        f.write(stamp)
    return True


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["explore", "serve", "refresh"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    start = time.monotonic()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        built = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("rawbench: build failed: %s" % e)
        return 1
    limit = FIRST_RUN_LIMIT_S if built else RUN_LIMIT_S

    if not selftest():
        log("rawbench: self-test failed")
        return 1

    cmd = [os.path.join(BUILD_DIR, "rawbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--data-dir", DATA_DIR]
    try:
        rc, out = run_child(cmd, max(10.0, limit - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        log("rawbench: run exceeded its time limit")
        return 1
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if not lines:
        log("rawbench: no report (exit code %d)" % rc)
        return 1
    report = json.loads(lines[-1])
    # Exit code 3: the watchdog ended the run; its report has the counts so
    # far, with the timed-out operation counted as failed.
    if rc not in (0, 3):
        log("rawbench: exit code %d" % rc)
        return 1

    info = report["info"]
    info["host.git_sha"] = git_sha()
    print("rawbench %s seed=%d seconds=%g trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    for key in sorted(info):
        print("  %-36s %s" % (key, info[key]))
    print("  %-36s %d attempted, %d failed (%d wrong, %d timed out)" %
          ("operations", report["attempted"], report["failed"],
           report["wrong"], report["timeouts"]))
    print("  %-36s %14.6g %-9s n=%d" %
          ("failed_frac", report["failed"] / max(1, report["attempted"]),
           "fraction", report["attempted"]))
    for group in ("end_to_end", "per_layer"):
        for name, m in sorted(report[group].items()):
            print("  %-36s %14.6g %-9s n=%d%s" %
                  (name, m["value"], m["unit"], m["samples"],
                   "" if m["samples"] else " (not applicable)"))

    metrics = {}
    for m in wanted:
        got = report["end_to_end"].get(m["name"]) or report["per_layer"].get(m["name"])
        if got is None:
            # Each workload reports every metric; a layer it never calls is
            # an explicit 0 with no samples. Only a run the watchdog ended
            # may lack some.
            if rc == 0:
                log("rawbench: metric %s missing" % m["name"])
                return 1
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": report["wrong"] == 0,
                      "attempted": max(1, report["attempted"]),
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
