#!/usr/bin/env python3
"""Validate DISE benchmark/stats JSON artifacts against their schema.

Usage: validate_bench_json.py FILE [FILE...]
       validate_bench_json.py --compare FILE_A FILE_B

Three artifact shapes are accepted:

* Bench artifacts (written by a bench run with --json DIR): a
  top-level document with schema_version / bench / kind / host /
  workloads, where each workload maps regimes to entries whose
  required keys depend on kind (timing, micro, campaign). Every entry
  carries a "host" section (wall-clock seconds + guest insts/sec).
  Timing entries additionally must satisfy the cycle-accounting
  invariant: the seven buckets sum exactly to cycles.
* Run registries (written by `diserun --stats-json`): the nested stats
  registry itself, recognized by its top-level "run"/"host" sections.
  Its cycle buckets must sum to the cycle count, and an "acf.fusion"
  group must count two instructions per fused pair and split its pairs
  exactly across the per-family counts.
* Batch result streams (written by `diserun --batch`, recognized by the
  .ndjson extension): one JSON object per line with index/id/mode/ok;
  successful lines carry the unified "run" result (and "host"), failed
  lines an "error" message. Indices must be unique and cover 0..N-1.

--compare checks two artifacts for determinism: they must be deeply
identical after recursively stripping every host-dependent section
("host", "host_seconds"), the campaign "replay" accounting (which
legitimately differs between snapshot and full-replay modes), and the
"sampling" sections (so sampled artifacts compare against full-detail
reruns on the architectural stream they must share) — wall-clock
throughput, replay economics, and sampling windows are the only fields
allowed to differ between reruns. NDJSON streams are compared after
sorting by index, so two runs that completed jobs in different orders
(different worker counts) still compare equal.

Exits 0 when every file validates (or the pair matches), 1 with a
diagnostic per problem otherwise. Stdlib only.
"""

import json
import sys

BUCKET_KEYS = {
    "issue",
    "imiss_stall",
    "dmiss_stall",
    "branch_flush",
    "dise_stall",
    "hazard",
    "drain",
}

TIMING_KEYS = {
    "cycles",
    "insts",
    "ipc",
    "cpi",
    "host",
    "buckets",
    "counters",
}

MICRO_KEYS = {"iterations", "host", "items_per_second", "counters"}

CAMPAIGN_KEYS = {
    "injected",
    "outcomes",
    "detected_fraction",
    "parity_detected",
    "parity_recovered",
    "replay",
    "host",
}

# Sampled-timing section of any timing entry produced by a sampled run.
SAMPLING_KEYS = {
    "period",
    "detail",
    "sampled_insts",
    "warmed_insts",
    "measured_cycles",
    "measured_cpi",
    "estimated_cycles",
}

class ValidationError(Exception):
    pass


def require(cond, message):
    if not cond:
        raise ValidationError(message)


def check_keys(entry, required, where):
    require(isinstance(entry, dict), f"{where}: entry is not an object")
    missing = required - entry.keys()
    require(not missing, f"{where}: missing keys {sorted(missing)}")


def check_buckets(entry, where):
    buckets = entry["buckets"]
    check_keys(buckets, BUCKET_KEYS, f"{where}.buckets")
    extra = buckets.keys() - BUCKET_KEYS
    require(not extra, f"{where}.buckets: unknown keys {sorted(extra)}")
    total = sum(buckets.values())
    require(
        total == entry["cycles"],
        f"{where}: buckets sum to {total}, cycles is {entry['cycles']}",
    )


def check_host_section(entry, where):
    host = entry["host"]
    require(isinstance(host, dict), f"{where}: host is not an object")
    missing = {"seconds", "insts_per_second"} - host.keys()
    require(not missing, f"{where}.host: missing keys {sorted(missing)}")
    require(host["seconds"] >= 0, f"{where}.host: negative seconds")
    require(
        host["insts_per_second"] >= 0,
        f"{where}.host: negative insts_per_second",
    )


def check_sampling_section(entry, where):
    """Validate the optional sampled-timing section of an entry."""
    if "sampling" not in entry:
        return
    sampling = entry["sampling"]
    check_keys(sampling, SAMPLING_KEYS, f"{where}.sampling")
    require(
        sampling["period"] > 0,
        f"{where}.sampling: period must be positive",
    )
    require(
        0 < sampling["detail"] <= sampling["period"],
        f"{where}.sampling: detail out of [1, period]",
    )
    for key in ("sampled_insts", "warmed_insts", "measured_cycles",
                "estimated_cycles"):
        require(
            isinstance(sampling[key], int) and sampling[key] >= 0,
            f"{where}.sampling: {key} is not a non-negative integer",
        )
    require(
        sampling["measured_cpi"] >= 0,
        f"{where}.sampling: negative measured_cpi",
    )
    if "insts" in entry:
        covered = sampling["sampled_insts"] + sampling["warmed_insts"]
        require(
            covered == entry["insts"],
            f"{where}.sampling: sampled+warmed insts ({covered}) do not "
            f"cover the run ({entry['insts']})",
        )


def check_timing_entry(entry, where):
    check_keys(entry, TIMING_KEYS, where)
    require(entry["cycles"] >= 0, f"{where}: negative cycles")
    check_host_section(entry, where)
    check_buckets(entry, where)
    check_sampling_section(entry, where)
    counters = entry["counters"]
    require(isinstance(counters, dict), f"{where}: counters not an object")
    for section in ("pipeline", "run", "mem"):
        require(section in counters, f"{where}.counters: missing {section}")


def check_micro_entry(entry, where):
    check_keys(entry, MICRO_KEYS, where)
    require(entry["iterations"] > 0, f"{where}: zero iterations")
    check_host_section(entry, where)


def check_campaign_entry(entry, where):
    check_keys(entry, CAMPAIGN_KEYS, where)
    check_host_section(entry, where)
    outcomes = entry["outcomes"]
    require(isinstance(outcomes, dict), f"{where}: outcomes not an object")
    require(
        sum(outcomes.values()) == entry["injected"],
        f"{where}: outcome counts do not sum to injected trials",
    )
    require(
        0.0 <= entry["detected_fraction"] <= 1.0,
        f"{where}: detected_fraction out of [0,1]",
    )
    replay = entry["replay"]
    require(isinstance(replay, dict), f"{where}: replay not an object")
    missing = {"replayed_insts", "saved_insts"} - replay.keys()
    require(not missing, f"{where}.replay: missing keys {sorted(missing)}")
    for key in ("replayed_insts", "saved_insts"):
        require(
            isinstance(replay[key], int) and replay[key] >= 0,
            f"{where}.replay: {key} is not a non-negative integer",
        )
    require(
        replay["replayed_insts"] > 0,
        f"{where}.replay: campaign executed zero instructions",
    )


ENTRY_CHECKS = {
    "timing": check_timing_entry,
    "micro": check_micro_entry,
    "campaign": check_campaign_entry,
}


def validate_bench(doc, name):
    require(doc.get("schema_version") == 1, f"{name}: bad schema_version")
    require(bool(doc.get("bench")), f"{name}: missing bench name")
    kind = doc.get("kind")
    require(kind in ENTRY_CHECKS, f"{name}: unknown kind {kind!r}")
    host = doc.get("host")
    require(isinstance(host, dict), f"{name}: missing host section")
    require("seconds" in host and "jobs" in host, f"{name}: bad host section")
    workloads = doc.get("workloads")
    require(isinstance(workloads, dict), f"{name}: missing workloads")
    require(workloads, f"{name}: no workloads recorded")
    for workload, regimes in workloads.items():
        require(
            isinstance(regimes, dict) and regimes,
            f"{name}: workload {workload} has no regimes",
        )
        for regime, entry in regimes.items():
            ENTRY_CHECKS[kind](entry, f"{name}:{workload}/{regime}")


def validate_run_registry(doc, name):
    run = doc["run"]
    require(isinstance(run, dict), f"{name}: run is not an object")
    require("outcome" in run, f"{name}: run.outcome missing")
    require("dyn_insts" in run, f"{name}: run.dyn_insts missing")
    host = doc.get("host")
    require(isinstance(host, dict), f"{name}: missing host section")
    require(
        "seconds" in host and "insts_per_second" in host,
        f"{name}: bad host section",
    )
    if "pipeline" in doc:
        pipeline = doc["pipeline"]
        require("bucket" in pipeline, f"{name}: pipeline.bucket missing")
        total = sum(pipeline["bucket"].values())
        require(
            total == pipeline["cycles"],
            f"{name}: pipeline buckets sum to {total}, "
            f"cycles is {pipeline['cycles']}",
        )
    fusion = doc.get("acf", {}).get("fusion")
    if fusion is not None:
        pairs = fusion["fused_pairs"]
        require(
            fusion["fused_insts"] == 2 * pairs,
            f"{name}: acf.fusion.fused_insts ({fusion['fused_insts']}) "
            f"is not 2 * fused_pairs ({pairs})",
        )
        family_sum = sum(v for k, v in fusion.items()
                         if k.startswith("pairs_"))
        require(
            family_sum == pairs,
            f"{name}: acf.fusion per-family counts sum to {family_sum}, "
            f"fused_pairs is {pairs}",
        )


def load_ndjson(path):
    rows = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as err:
                raise ValidationError(f"{path}:{lineno}: {err}")
    return rows


def validate_batch_ndjson(path):
    rows = load_ndjson(path)
    require(rows, f"{path}: empty batch stream")
    indices = set()
    for row in rows:
        require(isinstance(row, dict), f"{path}: line is not an object")
        for key in ("index", "id", "mode", "ok"):
            require(key in row, f"{path}: line missing {key!r}")
        where = f"{path}:index {row['index']}"
        require(
            isinstance(row["index"], int) and row["index"] >= 0,
            f"{where}: bad index",
        )
        require(row["index"] not in indices, f"{where}: duplicate index")
        indices.add(row["index"])
        if row["ok"]:
            run = row.get("run")
            require(isinstance(run, dict), f"{where}: missing run result")
            require("outcome" in run, f"{where}: run.outcome missing")
            require("dyn_insts" in run, f"{where}: run.dyn_insts missing")
            check_host_section(row, where)
        else:
            require(bool(row.get("error")), f"{where}: failed without error")
    require(
        indices == set(range(len(rows))),
        f"{path}: indices do not cover 0..{len(rows) - 1}",
    )


def validate_file(path):
    if path.endswith(".ndjson"):
        validate_batch_ndjson(path)
        return
    with open(path) as f:
        doc = json.load(f)
    require(isinstance(doc, dict), f"{path}: top level is not an object")
    if "schema_version" in doc:
        validate_bench(doc, path)
    elif "run" in doc:
        validate_run_registry(doc, path)
    else:
        raise ValidationError(f"{path}: neither a bench artifact nor a "
                              "run registry")


# "replay" differs between snapshot and full-replay campaign modes by
# design (it measures how much execution the snapshots saved), so it is
# stripped alongside the host sections: --compare asserts the two modes
# produce identical classifications, not identical replay economics.
# "sampling" is stripped so a sampled artifact compares equal to a
# full-detail rerun of the same jobs on everything they are required to
# agree on (the architectural stream); sampled-vs-sampled determinism
# of the section itself is covered by the test suite.
HOST_KEYS = {"host", "host_seconds", "replay", "sampling"}


def strip_host(value):
    """Recursively drop host-dependent sections for determinism diffs."""
    if isinstance(value, dict):
        return {
            k: strip_host(v)
            for k, v in value.items()
            if k not in HOST_KEYS
        }
    if isinstance(value, list):
        return [strip_host(v) for v in value]
    return value


def first_difference(a, b, path=""):
    """Human-readable path of the first mismatch, or None if equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key not in a or key not in b:
                return f"{path}/{key} (present on one side only)"
            diff = first_difference(a[key], b[key], f"{path}/{key}")
            if diff:
                return diff
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path} (length {len(a)} vs {len(b)})"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = first_difference(x, y, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if a != b:
        return f"{path} ({a!r} vs {b!r})"
    return None


def load_for_compare(path):
    if path.endswith(".ndjson"):
        rows = load_ndjson(path)
        rows.sort(key=lambda row: row.get("index", 0))
        return strip_host(rows)
    with open(path) as f:
        return strip_host(json.load(f))


def compare(path_a, path_b):
    a = load_for_compare(path_a)
    b = load_for_compare(path_b)
    diff = first_difference(a, b)
    if diff:
        print(
            f"DIFFER {path_a} vs {path_b}: first mismatch at {diff}",
            file=sys.stderr,
        )
        return 1
    print(f"IDENTICAL {path_a} vs {path_b} (host sections ignored)")
    return 0


def main(argv):
    if len(argv) >= 2 and argv[1] == "--compare":
        if len(argv) != 4:
            print("usage: validate_bench_json.py --compare FILE_A FILE_B",
                  file=sys.stderr)
            return 2
        return compare(argv[2], argv[3])
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = 0
    for path in argv[1:]:
        try:
            validate_file(path)
            print(f"OK {path}")
        except (ValidationError, json.JSONDecodeError, OSError, KeyError,
                TypeError) as err:
            print(f"FAIL {path}: {err}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
