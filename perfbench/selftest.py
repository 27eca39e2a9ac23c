#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the simulator).

    python3 perfbench/selftest.py

Run from the repository root; takes about a minute. For every workload
it runs the traced mode twice on one seed and once on another, then checks:

  * the same seed gives an identical request stream and identical counts
    (statistics JSON and host-side counts) across the two processes;
  * a different seed changes the request stream;
  * every metric name matches [A-Za-z0-9_.-]+, and BENCHMARK.json (when
    present) lists exactly the metrics and units run.py reports.

Exits 0 when every check passes.
"""
import argparse
import json
import os
import re
import shutil
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+$")


def traced(loadgen, workload, seed, tag):
    """One traced load-generator run; returns its result and statistics."""
    workdir_rel = os.path.join(".bench_run", "selftest-%d-%s" % (os.getpid(), tag))
    workdir = os.path.join(run.ROOT, workdir_rel)
    os.makedirs(workdir, exist_ok=True)
    args = argparse.Namespace(workload=workload, seed=seed, seconds=1, trace=1)
    try:
        doc, error = run.run_loadgen(loadgen, args, workdir_rel)
        if doc is None:
            sys.exit("selftest: %s seed %d: %s" % (workload, seed, error))
        stats = []
        for path in doc.get("stats", []):
            with open(os.path.join(run.ROOT, path)) as f:
                stats.append(json.load(f))
    finally:
        run.remove_stale_segments(workdir)
        shutil.rmtree(workdir, ignore_errors=True)
    return doc, stats


def main():
    failures = []

    def check(ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    names = list(run.END_TO_END) + list(run.PER_LAYER) + ["failed_frac"]
    check(all(NAME.match(n) for n in names), "metric names match [A-Za-z0-9_.-]+")
    bench = os.path.join(run.ROOT, "BENCHMARK.json")
    if os.path.isfile(bench):
        with open(bench) as f:
            spec = json.load(f)
        for key, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in spec[key]}
            check(listed == table, "BENCHMARK.json %s matches run.py" % key)
        check(sorted(w["name"] for w in spec["workloads"]) ==
              sorted(run.WORKLOADS), "BENCHMARK.json workloads match run.py")

    loadgen = run.build()
    for workload in run.WORKLOADS:
        first, stats1 = traced(loadgen, workload, 7, "a")
        second, stats2 = traced(loadgen, workload, 7, "b")
        other, _ = traced(loadgen, workload, 8, "c")
        check(first["failed"] == 0 and second["failed"] == 0 and
              other["failed"] == 0, "%s: runs pass their own checks" % workload)
        check(len(set(first["stream_hashes"] + second["stream_hashes"])) == 1,
              "%s: same seed, identical request stream" % workload)
        check(stats1 == stats2 and first["counts"] == second["counts"],
              "%s: same seed, identical counts" % workload)
        check(other["stream_hashes"][0] != first["stream_hashes"][0],
              "%s: different seed, different request stream" % workload)
    try:
        os.rmdir(os.path.join(run.ROOT, ".bench_run"))
    except OSError:
        pass
    if failures:
        sys.exit("selftest: %d check(s) failed" % len(failures))
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
