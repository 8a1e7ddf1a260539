#!/usr/bin/env python3
"""Build and run the DISE simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the simulator
libraries and the perfbench binary from source into .bench_build/;
later runs only rebuild what changed. The script prints a host
fingerprint (CPU, nproc, git sha, source digest; the binary adds the
compiler and build type), relays the binary's report, checks that the
result line carries exactly the metrics BENCHMARK.json declares for the
mode, and exits non-zero when the build, a run, or a check fails.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("func_sweep", "timing_sweep", "serve_mix")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no simulator sources (src/) next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return BUILD / "perfbench"


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    # Only this checkout's own repository counts: never a parent's.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    sha = "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except OSError:
        pass
    print(f"host: cpu {cpu}; nproc {os.cpu_count()}; git {sha}; "
          f"source sha256 {source_digest()}")


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def check_result(line, trace):
    """Problems with the result line; empty when it meets the contract."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    want = declared_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    for name in sorted(set(want) | set(got)):
        if name not in got:
            problems.append(f"metric {name} missing")
        elif name not in want:
            problems.append(f"metric {name} not declared in BENCHMARK.json")
        elif got[name] != want[name]:
            problems.append(f"metric {name} unit {got[name]} != {want[name]}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--perturb-reference",
                    choices=("run", "campaign", "trials"),
                    help="corrupt one reference result of this kind "
                         "(self-test)")
    args = ap.parse_args()

    exe = build()
    fingerprint()
    spans = BUILD / "spans" / (f"{args.workload}-seed{args.seed}-"
                               f"trace{args.trace}.json")
    spans.parent.mkdir(parents=True, exist_ok=True)
    # A relative path: a unix socket path may hold at most 107 bytes.
    sock = os.path.relpath(BUILD / "serve.sock")
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", str(spans), "--socket", sock]
    if args.perturb_reference:
        cmd += ["--perturb-reference", args.perturb_reference]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    problems = check_result(lines[-1], bool(args.trace))
    if problems:
        for p in problems:
            print(f"run.py: {p}", file=sys.stderr)
        fail("result line does not match BENCHMARK.json")
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
