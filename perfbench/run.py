#!/usr/bin/env python3
"""Benchmark entry point for the min-cut library, its stream tier and mincutd.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the repository root. Builds the harness, the library, mincutd and
mincut_loadgen from the repository's sources into .bench_build/perfbench
(CMake; the first run compiles everything), then runs one workload and
passes its output through. The last line printed is the JSON result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}, with the
end-to-end metrics when --trace is 0 and the per-layer metrics when it is 1.

--self-check runs every workload on tiny inputs and checks the harness
itself: every metric of BENCHMARK.json is printed with its unit, the tail
latency names its percentile and sample count, a deliberately wrong
expected value is counted as a failure, and a daemon that stops answering is
killed at the deadline with its requests counted as failed.

Workloads, metrics and measured noise are described in perfbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = BUILD_DIR / "work"
WORKLOADS = ("cold_planar", "stream_er", "mincutd_mixed")
HARNESS_TIMEOUT_S = 170
BUILD_TYPE = "RelWithDebInfo"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; exits non-zero on failure."""
    for needed in (ROOT / "src" / "CMakeLists.txt", ROOT / "tools" / "mincutd.cpp",
                   ROOT / "tools" / "mincut_loadgen.cpp"):
        if not needed.is_file():
            log(f"missing {needed.relative_to(ROOT)}: run from a full checkout of the repository")
            sys.exit(2)
    if shutil.which("cmake") is None:
        log("cmake not found")
        sys.exit(2)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("configure failed")
            sys.exit(1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                            stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        log("build failed")
        sys.exit(1)
    WORK_DIR.mkdir(parents=True, exist_ok=True)


def run_harness(workload, seed, seconds, trace, extra=(), bin_dir=BUILD_DIR):
    """Runs one workload; returns (exit code, stdout text)."""
    cmd = [str(BUILD_DIR / "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--bin-dir", str(bin_dir),
           "--work-dir", str(WORK_DIR), *extra]
    # Own process group, so a timeout also takes down a daemon it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{workload}: harness passed {HARNESS_TIMEOUT_S} s and was killed")
        return 1, ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # anything it left behind
        except ProcessLookupError:
            pass
    return proc.returncode, out


def last_json(out):
    lines = out.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


HUNG_DAEMON = """#!{python}
# Answers the harness's first frame (its warm-up STATS), then reads
# requests forever without answering: a daemon whose serve loop hung.
import struct, sys
inp, out = sys.stdin.buffer, sys.stdout.buffer
inp.read(struct.unpack("<I", inp.read(4))[0])
reply = b"OK STATS id=0 sessions=0\\n"
out.write(struct.pack("<I", len(reply)) + reply)
out.flush()
while inp.read(4096):
    pass
"""


def check_hang():
    """A daemon that stops answering must be killed at the run's deadline,
    with its unanswered requests counted as failed and every metric still
    printed."""
    hang_dir = WORK_DIR / "hung-daemon"
    hang_dir.mkdir(parents=True, exist_ok=True)
    fake = hang_dir / "mincutd"
    fake.write_text(HUNG_DAEMON.format(python=sys.executable))
    fake.chmod(0o755)
    loadgen = hang_dir / "mincut_loadgen"
    if not loadgen.exists():
        loadgen.symlink_to(BUILD_DIR / "mincut_loadgen")
    code, out = run_harness("mincutd_mixed", 7, 1, 0, ["--tiny", "--deadline", "10"],
                            bin_dir=hang_dir)
    result = last_json(out)
    if code != 0 or result is None:
        return [f"hung daemon: no result (exit {code})"]
    if result["correct"] or result["failed"] < 1 or result["failed"] != result["attempted"]:
        return [f"hung daemon: failed={result['failed']} of {result['attempted']}"]
    if "deadline passed" not in out:
        return ["hung daemon: the report does not say the deadline passed"]
    log("self-check hung daemon: ok")
    return []


def self_check():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_harness(workload, 7, 1, trace, ["--tiny"])
            result = last_json(out)
            tag = f"{workload} trace={trace}"
            if code != 0 or result is None:
                problems.append(f"{tag}: no result (exit {code})")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{tag}: metrics/units differ from BENCHMARK.json: "
                                f"missing {sorted(set(expected[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(expected[trace]))}, "
                                f"units {[(k, got[k]) for k in got if k in expected[trace] and got[k] != expected[trace][k]]}")
            if trace == 0 and not re.search(r"op_ms_tail: p\d+ of \d+ samples \(\d+ beyond it\)", out):
                problems.append(f"{tag}: op_ms_tail does not name its percentile and sample count")
        code, out = run_harness(workload, 7, 1, 0, ["--tiny", "--inject-wrong-expected"])
        result = last_json(out)
        match = re.search(r"failed_frac: \S+ \((\d+) failed / (\d+) attempted\)", out)
        if result is None or result["correct"] or result["failed"] < 1 or not match \
                or int(match.group(1)) < 1:
            problems.append(f"{workload}: a wrong expected value was not counted as failed")
        log(f"self-check {workload}: {'ok' if not problems else 'problems so far'}")
    problems += check_hang()
    for p in problems:
        log(f"self-check FAILED: {p}")
    print("self-check: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    if args.self_check:
        return self_check()
    code, out = run_harness(args.workload, args.seed, args.seconds, args.trace)
    result = last_json(out)
    if code != 0 or result is None:
        sys.stderr.write(out)
        log(f"{args.workload}: harness failed (exit {code})")
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
