#!/usr/bin/env python3
"""plan9net's benchmark: builds p9bench from source and runs one workload.

    python3 perfbench/run.py --workload rpc9p_il --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process each
    python3 perfbench/run.py --selfcheck         # short run of everything, checked

Paths are taken from this file's place in the repository.  The build lands
in $CARGO_TARGET_DIR (default .bench_build) under the repository root: a
Release build of src/ with lockcheck and hotcheck off.  Each workload runs in
its own p9bench process; the last line of stdout is that process's JSON
result, checked against BENCHMARK.json.
See perfbench/README.md for the workloads and every metric.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Runnable and documented, but not in BENCHMARK.json: IL dial churn hits two
# library defects (README.md), so its runs are not steady enough to gate.
UNGATED = ["dial_il"]
SELFCHECK_SECONDS = 1
# The four hand-timed §5 steps must sum to the library Dial's median within
# this share (dial.step_gap_pct).
STEP_GAP_BOUND_PCT = 10


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds p9bench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "world", "node.cc")):
        die(f"no plan9net sources under {os.path.join(ROOT, 'src')}; nothing to build")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "p9bench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
                      "-DPLAN9NET_LOCKCHECK=OFF", "-DPLAN9NET_HOTCHECK=OFF"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die("build timed out")
        if done.returncode != 0:
            die(f"build failed: {' '.join(cmd)}")
    return os.path.join(out, "p9bench")


def commit_id():
    """The git commit, or a digest of the sources when there is no git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if done.returncode == 0:
                return done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


class RunError(Exception):
    pass


def run_workload(binary, workload, seed, seconds, trace, commit):
    """Runs one p9bench process; returns (its stdout lines, parsed result).

    Raises RunError if the process fails, hangs or prints no result.
    """
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--commit", commit]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RunError(f"{workload} exited with code {proc.returncode}")
    lines = out.splitlines()
    if not lines:
        raise RunError(f"{workload} printed nothing")
    try:
        return lines, json.loads(lines[-1])
    except json.JSONDecodeError:
        raise RunError(f"{workload}: last line is not JSON: {lines[-1]!r}")


def problems(result, expected):
    """Ways `result` breaks the output contract for metrics `expected`.

    p9bench also prints metrics BENCHMARK.json does not gate; they must be
    finite and carry a unit too, and are dropped from the final line.
    """
    found = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"keys {sorted(result)}")
        return found
    if not isinstance(result["correct"], bool):
        found.append("correct is not a bool")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        found.append("attempted < 1")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    for name in sorted(set(want) - set(metrics)):
        found.append(f"metric {name} missing")
    for name, m in metrics.items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            found.append(f"{name} = {v!r} is not a finite number")
        if not m.get("unit") or m.get("unit") != want.get(name, m.get("unit")):
            found.append(f"{name} unit {m.get('unit')!r}, want {want.get(name)!r}")
    return found


def main():
    spec = load_spec()
    gated = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=gated + UNGATED + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="run every workload briefly, traced and not, and check "
                         "that every metric is emitted, finite and has its unit")
    args = ap.parse_args()
    if not args.selfcheck and args.workload is None:
        ap.error("--workload or --selfcheck is required")

    binary = build()
    commit = commit_id()
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}

    if args.selfcheck:
        bad = 0
        for workload in gated + UNGATED:
            for trace in (0, 1):
                try:
                    _, result = run_workload(binary, workload, args.seed,
                                             SELFCHECK_SECONDS, trace, commit)
                except RunError as e:
                    if workload not in UNGATED:
                        die(str(e))
                    # IL's clustered 15 s dial stalls can outlast the timeout.
                    print(f"selfcheck {workload} trace={trace}: not checked: {e}")
                    continue
                found = problems(result, expected[trace])
                if result.get("correct") is not True:
                    found.append("correct is not true")
                gap = result["metrics"].get("dial.step_gap_pct", {}).get("value", 0)
                if trace == 1 and abs(gap) > STEP_GAP_BOUND_PCT:
                    found.append(f"hand-timed dial steps miss Dial by {gap:.1f}%")
                status = "ok" if not found else "FAIL " + "; ".join(found)
                print(f"selfcheck {workload} trace={trace}: "
                      f"{len(result.get('metrics', {}))} metrics {status}")
                bad += bool(found)
        print(json.dumps({"selfcheck": "ok" if bad == 0 else "failed"}))
        return 1 if bad else 0

    workloads = gated + UNGATED if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            lines, result = run_workload(binary, workload, args.seed, args.seconds,
                                         args.trace, commit)
        except RunError as e:
            if len(workloads) == 1 or workload not in UNGATED:
                die(str(e))
            print(f"{workload}: no result: {e}")
            continue
        found = problems(result, expected[args.trace])
        if found:
            die(f"{workload}: " + "; ".join(found))
        print("\n".join(lines[:-1]))
        if len(workloads) == 1:
            gated_names = [m["name"] for m in expected[args.trace]]
            result["metrics"] = {k: result["metrics"][k] for k in gated_names}
            print(json.dumps(result))
            return 0
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
