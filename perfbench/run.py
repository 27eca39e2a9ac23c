#!/usr/bin/env python3
"""The repository benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload rw-saturated --seed 1 --seconds 20 --trace 0

Run from the repository root. It builds the simulator and the load
generator (perfbench/loadgen.cpp) from source into .bench_build/, runs the
workload, checks every output, prints each metric with its unit and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
See perfbench/README.md for what each workload and metric means.
"""
import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
LOADGEN_TIMEOUT_S = 170

WORKLOADS = ("rw-saturated", "cmc-mutex", "cosim-2c")

# name -> unit. Order is the print order.
END_TO_END = {
    "reqs_per_s": "1/s",
    "cpu_us_per_req": "us",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "setup.create_s": "s",
    "setup.cmc_load_s": "s",
    "setup.mem_init_s": "s",
    "setup.connect_s": "s",
    "capi.send_ns": "ns",
    "capi.send_stall_frac": "fraction",
    "capi.recv_ns": "ns",
    "capi.recv_empty_frac": "fraction",
    "capi.clock_ns_per_req": "ns",
    "capi.clock_ns_per_cycle": "ns",
    "capi.next_event_ns": "ns",
    "capi.clock_share": "fraction",
    "sim.jump_cycle_frac": "fraction",
    "spec.build_request_ns": "ns",
    "spec.packet_crc_ns": "ns",
    "ipc.send_ns": "ns",
    "ipc.send_stall_frac": "fraction",
    "ipc.recv_ns": "ns",
    "ipc.clock_share": "fraction",
    "ipc.server_cpu_us_per_req": "us",
    "ipc.client_cpu_us_per_req": "us",
    "ipc.barriers": "count",
    "ipc.barrier_rtt_p50_us": "us",
    "ipc.barrier_rtt_p99_us": "us",
    "sim.cycles": "cycles",
    "sim.host_ns_per_cycle": "ns",
    "sim.lat_p50_cycles": "cycles",
    "sim.lat_p99_cycles": "cycles",
    "dev.link.rqst_flits": "count",
    "dev.link.rsp_flits": "count",
    "dev.link.send_stalls": "count",
    "dev.xbar.rqst_stalls": "count",
    "dev.xbar.rsp_stalls": "count",
    "dev.forwarded_rqsts": "count",
    "dev.vault.rqsts_processed": "count",
    "dev.vault.bank_conflicts": "count",
    "dev.vault.rsp_stalls": "count",
    "dev.vault.errors": "count",
    "amo.executed": "count",
    "core.cmc_executed": "count",
    "core.lock_success_frac": "fraction",
    "gen.self_share": "fraction",
    "trace.overhead_frac": "fraction",
}

# Deterministic counts: sums over the statistics JSON (flattened paths).
STAT_SUMS = {
    "dev.link.rqst_flits": r"cube\d+\.link\d+\.rqst_flits",
    "dev.link.rsp_flits": r"cube\d+\.link\d+\.rsp_flits",
    "dev.link.send_stalls": r"cube\d+\.link\d+\.send_stalls",
    "dev.xbar.rqst_stalls": r"cube\d+\.xbar\.rqst_stalls",
    "dev.xbar.rsp_stalls": r"cube\d+\.xbar\.rsp_stalls",
    "dev.forwarded_rqsts": r"cube\d+\.forwarded_rqsts",
    "dev.vault.rqsts_processed": r"cube\d+\.quad\d+\.vault\d+\.rqsts_processed",
    "dev.vault.bank_conflicts": r"cube\d+\.quad\d+\.vault\d+\.bank_conflicts",
    "dev.vault.rsp_stalls": r"cube\d+\.quad\d+\.vault\d+\.rsp_stalls",
    "dev.vault.errors": r"cube\d+\.quad\d+\.vault\d+\.errors",
    "amo.executed": r"cube\d+\.quad\d+\.vault\d+\.amo_executed",
    "core.cmc_executed": r"cube\d+\.quad\d+\.vault\d+\.cmc_executed",
}
RQST_PACKETS = r"cube0\.link\d+\.rqst_packets"


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; returns the loadgen path."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        os.makedirs(BUILD, exist_ok=True)
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            die("configure failed:\n" + proc.stdout[-4000:] + proc.stderr[-4000:])
    proc = subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        die("build failed:\n" + proc.stdout[-4000:] + proc.stderr[-4000:])
    return os.path.join(BUILD, "perfbench_load")


def flatten(node, prefix="", out=None):
    out = {} if out is None else out
    for key, value in node.items():
        path = prefix + key
        if isinstance(value, dict):
            flatten(value, path + ".", out)
        else:
            out[path] = value
    return out


def stat_sum(flat, pattern):
    rx = re.compile(pattern + r"$")
    return sum(v for k, v in flat.items() if rx.match(k))


def remove_stale_segments(workdir):
    """A killed hmcsim_server cannot unlink its shm segment; do it here."""
    try:
        with open(os.path.join(workdir, "server.pids")) as f:
            pids = [line.strip() for line in f if line.strip()]
    except OSError:
        return
    for pid in pids:
        try:
            os.unlink("/dev/shm/hmcsim-cosim-" + pid)
        except OSError:
            pass


def run_loadgen(loadgen, args, workdir_rel):
    cmd = [loadgen, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(BUILD, "hmcsim", "tools", "hmcsim_server"),
           "--plugins", os.path.join(BUILD, "hmcsim", "plugins"),
           "--workdir", workdir_rel]
    # Own process group, so a timeout also takes down a spawned server.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=LOADGEN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "load generator timed out"
    lines = out.strip().splitlines()
    if not lines:
        return None, "load generator exited %d without output" % proc.returncode
    try:
        doc = json.loads(lines[-1])
    except ValueError:
        return None, "load generator printed no JSON result"
    if proc.returncode != 0:
        doc.setdefault("notes", []).append(
            "load generator exited %d" % proc.returncode)
        doc["failed"] = doc.get("failed", 0) + 1
    return doc, None


def check_servers(doc, notes):
    """cosim-2c: every server's request count equals what its clients sent."""
    failed = 0
    for path, sent in doc.get("servers", {}).items():
        try:
            with open(os.path.join(ROOT, path)) as f:
                flat = flatten(json.load(f)["stats"])
        except (OSError, ValueError, KeyError):
            notes.append("server statistics unreadable: " + path)
            failed += 1
            continue
        got = stat_sum(flat, RQST_PACKETS)
        if got != sent:
            notes.append("server admitted %d requests, clients sent %d"
                         % (got, sent))
            failed += 1
    return failed


def layer_metrics(doc, notes):
    """Per-layer values, plus checks that the traced pass (B) and a repeat
    (C) left every deterministic output identical to the untraced pass A."""
    failed = 0
    docs = []
    for path in doc["stats"]:
        try:
            with open(os.path.join(ROOT, path)) as f:
                docs.append(json.load(f))
        except (OSError, ValueError):
            notes.append("statistics unreadable: " + path)
            return dict(doc["layers"]), failed + 1
    if not (docs[0] == docs[1] == docs[2]):
        notes.append("statistics differ between untraced, traced and "
                     "repeated passes")
        failed += 1
    if len(set(doc["stream_hashes"])) != 1:
        notes.append("request streams differ between passes: %s"
                     % doc["stream_hashes"])
        failed += 1
    if not (doc["counts"][0] == doc["counts"][1] == doc["counts"][2]):
        notes.append("host-side counts differ between passes")
        failed += 1
    flat = flatten(docs[0]["stats"])
    values = dict(doc["layers"])
    values.update(doc["counts"][0])
    for name, pattern in STAT_SUMS.items():
        values[name] = stat_sum(flat, pattern)
    cycles = docs[0]["cycle"]
    values["sim.cycles"] = cycles
    values["sim.host_ns_per_cycle"] = doc["untraced_wall_s"] * 1e9 / max(cycles, 1)
    values["sim.lat_p50_cycles"] = flat.get("host.latency.p50", 0)
    values["sim.lat_p99_cycles"] = flat.get("host.latency.p99", 0)
    return values, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1", 2)
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        die("simulator sources not found under " + ROOT, 2)

    loadgen = build()
    workdir_rel = os.path.join(".bench_run", str(os.getpid()))
    workdir = os.path.join(ROOT, workdir_rel)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        doc, error = run_loadgen(loadgen, args, workdir_rel)
        if doc is None:
            # A hung or crashed run is a failed run, reported as such.
            doc = {"attempted": 1, "failed": 1, "notes": [error]}
        notes = list(doc.get("notes", []))
        failed = doc.get("failed", 0) + check_servers(doc, notes)
        catalogue = PER_LAYER if args.trace else END_TO_END
        values = doc.get("metrics", {})
        if args.trace and "layers" in doc:
            values, bad = layer_metrics(doc, notes)
            failed += bad
    finally:
        remove_stale_segments(workdir)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    attempted = max(int(doc.get("attempted", 0)), 1)
    metrics = {}
    for name, unit in catalogue.items():
        # A per-layer metric of a layer this workload never calls reads 0.
        metrics[name] = {"value": values.get(name, 0), "unit": unit}
    for note in notes:
        print("perfbench: check failed: " + note, file=sys.stderr)
    print("%s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    for name, m in metrics.items():
        print("  %-28s %20.6f %s" % (name, m["value"], m["unit"]))
    print("  %-28s %20.6f %s" % ("failed_frac", failed / attempted, "fraction"))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
