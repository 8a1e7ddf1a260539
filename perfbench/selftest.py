#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seconds S]

Runs every workload briefly through run.py, untraced and traced, and
checks that:
  - every run is correct, with the end-to-end (untraced) or per-layer
    (traced) metrics BENCHMARK.json declares, each with its unit
    (run.py refuses a result line that differs);
  - every design-named metric is printed with its unit, with a value on
    the workloads that exercise it and "n/a" elsewhere;
  - per-layer invariants hold: the seven cycle buckets sum to
    pipeline.cycles, pipeline.model_s >= 0, and in the span file every
    child span lies inside its parent and serve request spans carry a
    request id;
  - a perturbed reference result is reported as a failure: the run
    exits non-zero with "correct": false and failed >= 1. Each workload
    perturbs an operation's result; serve_mix also a served campaign's
    outcome counts and the probe campaign's per-trial classification.
Exits non-zero listing every check that failed.
"""

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPANS = ROOT / ".bench_build" / "perfbench" / "spans"
SEED = 7

NAMED_UNITS = {
    "setup_s": "s", "func_mips_native": "MIPS", "func_mips_mfi": "MIPS",
    "func_mips_compress": "MIPS", "timing_mips_full": "MIPS",
    "timing_mips_fused": "MIPS", "timing_mips_sampled": "MIPS",
    "campaign_trials_per_s": "trials/s", "serve_p50_ms": "ms",
    "serve_p99_ms": "ms", "serve_tcp_p50_ms": "ms", "serve_tcp_p99_ms": "ms",
    "serve_max_rps": "req/s", "failed_frac": "ratio", "peak_rss_mb": "MB",
}
COMMON = {"setup_s", "failed_frac", "peak_rss_mb"}
NAMED_BY_WORKLOAD = {
    "func_sweep": COMMON | {"func_mips_native", "func_mips_mfi",
                            "func_mips_compress"},
    "timing_sweep": COMMON | {"timing_mips_full", "timing_mips_fused",
                              "timing_mips_sampled"},
    "serve_mix": COMMON | {"serve_p50_ms", "serve_p99_ms", "serve_tcp_p50_ms",
                           "serve_tcp_p99_ms", "serve_max_rps"},
}
# Which reference results --perturb-reference can corrupt, per workload:
# an operation's or response's result, a served campaign's outcome
# counts, and the probe campaign's per-trial classification.
PERTURB = {
    "func_sweep": ("run",),
    "timing_sweep": ("run",),
    "serve_mix": ("run", "campaign", "trials"),
}
BUCKETS = ("issue", "imiss_stall", "dmiss_stall", "branch_flush",
           "dise_stall", "hazard", "drain")

problems = []


def expect(cond, what):
    if not cond:
        problems.append(what)
    return cond


def run(workload, trace, seconds, perturb=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace",
           str(trace)]
    if perturb:
        cmd += ["--perturb-reference", perturb]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return proc, lines, result


def check_named(workload, lines):
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = (parts[2], parts[3])
    for name, unit in NAMED_UNITS.items():
        where = f"{workload}: named metric {name}"
        if not expect(name in printed, where + " not printed"):
            continue
        value, got_unit = printed[name]
        expect(got_unit == unit, f"{where} unit {got_unit} != {unit}")
        if name in NAMED_BY_WORKLOAD[workload]:
            expect(value != "n/a", where + " has no value")
        else:
            expect(value == "n/a", where + " should be n/a")


def check_spans(workload, trace):
    path = SPANS / f"{workload}-seed{SEED}-trace{trace}.json"
    if not expect(path.is_file(), f"{workload}: no span file {path}"):
        return
    spans = json.loads(path.read_text())
    by_id = {s["id"]: s for s in spans}
    expect(len(spans) > 0, f"{workload}: traced run recorded no spans")
    for s in spans:
        expect(s["start"] <= s["end"], f"{workload}: span {s['name']} "
               "ends before it starts")
        if s["parent"]:
            p = by_id[s["parent"]]
            expect(p["start"] <= s["start"] and s["end"] <= p["end"],
                   f"{workload}: span {s['name']} outside parent "
                   f"{p['name']}")
        if s["name"] == "serve.request":
            expect(s.get("request", 0) > 0,
                   f"{workload}: serve span without a request id")


def check_layers(workload, metrics):
    value = {name: m["value"] for name, m in metrics.items()}
    buckets = sum(value[f"pipeline.bucket.{b}"] for b in BUCKETS)
    expect(buckets == value["pipeline.cycles"],
           f"{workload}: buckets sum {buckets} != pipeline.cycles "
           f"{value['pipeline.cycles']}")
    expect(value["pipeline.model_s"] >= 0,
           f"{workload}: pipeline.model_s < 0")
    if workload == "timing_sweep":
        expect(value["pipeline.cycles"] > 0,
               "timing_sweep: no pipeline cycles")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()

    for workload in NAMED_BY_WORKLOAD:
        for trace in (0, 1):
            proc, lines, result = run(workload, trace, args.seconds)
            tag = f"{workload} trace {trace}"
            if not expect(proc.returncode == 0 and result is not None,
                          f"{tag}: exit {proc.returncode}: "
                          f"{proc.stderr.strip()[-500:]}"):
                continue
            expect(result["correct"] and result["failed"] == 0,
                   f"{tag}: run reported failures")
            if trace:
                check_layers(workload, result["metrics"])
                check_spans(workload, trace)
            else:
                check_named(workload, lines)
            print(f"checked: {tag}", flush=True)

        for kind in PERTURB[workload]:
            proc, _, result = run(workload, 0, args.seconds, perturb=kind)
            tag = f"{workload} perturbed {kind} reference"
            expect(proc.returncode != 0, f"{tag}: exit code 0")
            if expect(result is not None, f"{tag}: no result line"):
                expect(not result["correct"] and result["failed"] >= 1,
                       f"{tag}: mismatch not reported as a failure")
            print(f"checked: {tag}", flush=True)

    for p in problems:
        print(f"FAILED: {p}")
    print("selftest: " + ("FAILED" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
