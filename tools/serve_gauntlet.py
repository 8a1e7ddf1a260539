#!/usr/bin/env python3
"""Robustness gauntlet for `diserun --serve`.

Usage: serve_gauntlet.py --diserun PATH [--burst N] [--drain-timeout S]

Drives a freshly started daemon through five phases and exits nonzero
on the first broken promise:

1. Correctness: a closed-loop set of well-formed, in-budget requests
   (functional, timing, and campaign shapes) is sent over the socket
   AND run through `diserun --batch` on the same jobs; each pair of
   responses must be bit-identical after stripping the serving envelope
   (seq/status/latency_ms) and the host-dependent host sections.
2. Far branch: a `compress` request for a program whose repeated
   branch-ended idiom jumps farther than a codeword's 15-bit offset
   parameter reaches must run to a clean exit, and an ordinary request
   after it must still be answered.
3. Hostile assembly: `source` requests holding out-of-range fields
   (memory and branch displacements, a li constant, a codeword tag)
   and malformed or oversized data directives must each be answered
   `status: "error"` with the assembler's `asm line N: ...` message,
   and an ordinary request after them must still succeed.
4. Gauntlet: a burst far past saturation — sent with no pacing at all,
   i.e. an unbounded arrival rate, with 10% malformed lines and 10%
   deadline-busting requests mixed in. Every line must get exactly one
   structured response (ok / overloaded / deadline_exceeded /
   malformed / error), the daemon must shed some of the burst with
   "overloaded" (proof admission control engaged), and a final
   well-formed request must still succeed (proof nothing crashed).
5. Drain: SIGTERM must terminate the process with exit code 0 within
   the drain timeout plus a small margin.

Stdlib only; used by CI and runnable locally against any build.
"""

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time


def fail(message):
    print(f"GAUNTLET FAIL: {message}", file=sys.stderr)
    sys.exit(1)


class NdjsonClient:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=120)
        self.file = self.sock.makefile("rw", encoding="utf-8")

    def send(self, line):
        if isinstance(line, dict):
            line = json.dumps(line)
        self.file.write(line + "\n")
        self.file.flush()

    def recv(self):
        line = self.file.readline()
        if not line:
            fail("server closed the connection mid-conversation")
        return json.loads(line)

    def close(self):
        self.sock.close()


def strip_host(value):
    if isinstance(value, dict):
        return {k: strip_host(v) for k, v in value.items()
                if k != "host"}
    if isinstance(value, list):
        return [strip_host(v) for v in value]
    return value


SERVE_ENVELOPE = {"seq", "status", "latency_ms"}


def canonical_serve(resp):
    return strip_host({k: v for k, v in resp.items()
                       if k not in SERVE_ENVELOPE})


def canonical_batch(row):
    return strip_host({k: v for k, v in row.items() if k != "index"})


def correctness_jobs():
    jobs = []
    for i in range(6):
        jobs.append({
            "id": f"fn-{i}",
            "workload": "twolf",
            "max_insts": 30000 + 1000 * i,
        })
    jobs.append({"id": "timing", "workload": "twolf", "mode": "timing",
                 "max_insts": 20000})
    # No max_insts here: a campaign's golden run must exit cleanly,
    # so the request runs the workload to completion.
    jobs.append({
        "id": "campaign",
        "workload": "twolf",
        "mode": "campaign",
        "trials": 4,
        "seed": 11,
        "fault_targets": ["regfile"],
    })
    return jobs


def phase_correctness(port, diserun):
    jobs = correctness_jobs()
    client = NdjsonClient(port)
    for job in jobs:
        client.send(job)
    served = {}
    for _ in jobs:
        resp = client.recv()
        if resp.get("status") != "ok":
            fail(f"in-budget request answered {resp.get('status')!r}: "
                 f"{resp.get('error')}")
        served[resp["id"]] = canonical_serve(resp)
    client.close()

    with tempfile.TemporaryDirectory() as tmp:
        jobs_path = os.path.join(tmp, "jobs.json")
        out_path = os.path.join(tmp, "out.ndjson")
        with open(jobs_path, "w") as f:
            json.dump(jobs, f)
        proc = subprocess.run(
            [diserun, "--batch", jobs_path, "--batch-out", out_path],
            capture_output=True, text=True)
        if proc.returncode != 0:
            fail(f"diserun --batch exited {proc.returncode}: "
                 f"{proc.stderr}")
        with open(out_path) as f:
            rows = [json.loads(line) for line in f if line.strip()]

    if len(rows) != len(jobs):
        fail(f"batch produced {len(rows)} lines for {len(jobs)} jobs")
    for row in rows:
        want = canonical_batch(row)
        got = served.get(row["id"])
        if got != want:
            fail(f"serve response for {row['id']!r} differs from "
                 f"--batch:\n  serve: {json.dumps(got, sort_keys=True)}"
                 f"\n  batch: {json.dumps(want, sort_keys=True)}")
    print(f"gauntlet: correctness OK "
          f"({len(jobs)} serve responses bit-identical to --batch)")


def far_branch_source():
    """Four branch-ended idioms whose target lies ~20,000 words ahead."""
    lines = [".text", "main:"]
    for _ in range(4):
        lines += ["    subq t0, 1, t1", "    addq t2, 2, t2",
                  "    xor t2, t3, t3", "    beq t1, far"]
    lines += [f"    lda t4, {i}(t5)" for i in range(20000)]
    lines += ["far:", "    li 0, v0", "    li 0, a0", "    syscall"]
    return "\n".join(lines) + "\n"


def phase_far_branch(port):
    client = NdjsonClient(port)
    client.send({"id": "far-branch", "source": far_branch_source(),
                 "acfs": [{"kind": "compress"}]})
    resp = client.recv()
    if resp.get("status") != "ok":
        fail(f"far-branch compress request answered "
             f"{resp.get('status')!r}: {resp.get('error')}")
    run = resp.get("run", {})
    if run.get("outcome") != "exit" or run.get("exit_code") != 0:
        fail(f"far-branch program did not exit cleanly: {run}")
    client.send({"id": "after-far-branch", "workload": "twolf",
                 "max_insts": 20000})
    resp = client.recv()
    if resp.get("status") != "ok":
        fail(f"request after the far-branch one answered "
             f"{resp.get('status')!r}")
    client.close()
    print("gauntlet: far-branch compress OK")


HOSTILE_SOURCES = [
    "ldq t0, 40000(t1)",
    "br zero, .+2000000",
    "li 2147483648, t0",
    "res0 3000, 0, 0, 0",
    "nop\n.data\n    .space",
    "nop\n.data\n    .align",
    "nop\n.data\n    .space 68719476736",
]


def phase_hostile_assembly(port):
    client = NdjsonClient(port)
    for i, body in enumerate(HOSTILE_SOURCES):
        client.send({"id": f"hostile-{i}",
                     "source": f".text\nmain:\n    {body}\n"})
        resp = client.recv()
        error = resp.get("error", "")
        if resp.get("status") != "error" or not error.startswith("asm line"):
            fail(f"hostile source {body!r} answered "
                 f"{resp.get('status')!r}: {error}")
    client.send({"id": "after-hostile", "workload": "twolf",
                 "max_insts": 20000})
    resp = client.recv()
    if resp.get("status") != "ok":
        fail(f"request after the hostile sources answered "
             f"{resp.get('status')!r}")
    client.close()
    print(f"gauntlet: hostile assembly OK "
          f"({len(HOSTILE_SOURCES)} sources rejected)")


def gauntlet_line(i):
    if i % 10 == 3:
        return "{ definitely not json", "malformed"
    if i % 10 == 7:
        return {
            "id": f"bust-{i}",
            "workload": "mcf",
            "deadline_ms": 1,
        }, "deadline"
    return {
        "id": f"load-{i}",
        "workload": "twolf",
        "max_insts": 25000 + 10 * i,
    }, "good"


def phase_gauntlet(port, burst):
    client = NdjsonClient(port)
    sent = 0
    for i in range(burst):
        line, _ = gauntlet_line(i)
        client.send(line)
        sent += 1
    statuses = {}
    for _ in range(sent):
        resp = client.recv()
        status = resp.get("status")
        if status not in ("ok", "overloaded", "deadline_exceeded",
                          "malformed", "error"):
            fail(f"unstructured response status {status!r}")
        if status == "overloaded" and "retry_after_ms" not in resp:
            fail("overloaded response without retry_after_ms")
        statuses[status] = statuses.get(status, 0) + 1
    if statuses.get("overloaded", 0) == 0:
        fail(f"burst of {burst} never tripped admission control "
             f"(statuses: {statuses})")
    if statuses.get("error", 0) > 0:
        fail(f"well-formed burst produced unexpected errors "
             f"(statuses: {statuses})")

    # The daemon must still serve cleanly after the storm.
    client.send({"id": "survivor", "workload": "twolf",
                 "max_insts": 12345})
    resp = client.recv()
    if resp.get("status") != "ok":
        fail(f"post-burst request answered {resp.get('status')!r}")
    client.send({"kind": "stats"})
    stats = client.recv()
    if stats.get("status") != "ok":
        fail("stats request failed after the burst")
    client.close()
    print(f"gauntlet: burst OK (statuses: "
          f"{json.dumps(statuses, sort_keys=True)})")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--diserun", required=True,
                        help="path to the diserun binary")
    parser.add_argument("--burst", type=int, default=400,
                        help="gauntlet burst size (unpaced)")
    parser.add_argument("--drain-timeout", type=float, default=5.0,
                        help="server drain budget in seconds")
    args = parser.parse_args()

    daemon = subprocess.Popen(
        [args.diserun, "--serve", "--listen", ":0",
         "--executors", "2", "--jobs", "2",
         "--max-pending", "64",
         "--drain-timeout-ms", str(int(args.drain_timeout * 1000))],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        handshake = daemon.stdout.readline().strip()
        prefix = "serve: listening on "
        if not handshake.startswith(prefix):
            fail(f"bad startup handshake: {handshake!r}")
        # The daemon advertises the actually-bound host:port.
        host, _, port_str = handshake[len(prefix):].rpartition(":")
        if host != "127.0.0.1":
            fail(f"expected a loopback bind, got {host!r}")
        port = int(port_str)
        print(f"gauntlet: daemon up on port {port}")

        phase_correctness(port, args.diserun)
        phase_far_branch(port)
        phase_hostile_assembly(port)
        phase_gauntlet(port, args.burst)

        daemon.send_signal(signal.SIGTERM)
        deadline = time.time() + args.drain_timeout + 5.0
        while daemon.poll() is None:
            if time.time() > deadline:
                fail("daemon failed to drain within the timeout")
            time.sleep(0.05)
        if daemon.returncode != 0:
            fail(f"daemon exited {daemon.returncode} on SIGTERM")
        print("gauntlet: drained cleanly on SIGTERM")
        print("GAUNTLET PASS")
    finally:
        if daemon.poll() is None:
            daemon.kill()


if __name__ == "__main__":
    main()
