#!/usr/bin/env python3
"""End-to-end TANE benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload adult --seed 42 --seconds 35 --trace 0
    python3 perfbench/run.py --selftest

The first call builds the library and the benchmark binary from source into
.bench_build/perfbench (cmake + ninja, release flags).

The load is a closed loop with one client: one Tane::Discover at a time,
each in its own process (so each run's peak RSS is its own), with default
TaneConfig apart from the workload's epsilon and storage. Every run's output
is checked: its (FDs, keys) digest must equal perfbench/reference.json and
every other run's digest, and a seeded sample of its dependencies and keys
is re-verified over the raw rows by perfbench/oracle.cc, which shares no
code with the partition engine.

--trace 0 alternates untraced runs at 1 thread and at N threads (N = the
CPUs this process may use) for --seconds and prints the end-to-end metrics
as medians over the runs. --trace 1 repeats, for --seconds: an untraced and
a traced run at 1 and at N threads, and the layer replay (replay.h), and
prints the per-layer metrics. A human-readable table goes to stdout first;
the last line of stdout is one JSON object {correct, attempted, failed,
metrics}. --selftest runs every workload at a tiny size and checks the
benchmark itself.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_tane")
WORKLOADS = ["adult", "hep_approx", "adult_spill"]
# Stop starting new rounds past this many seconds, whatever --seconds says,
# and kill any child still running at CHILD_DEADLINE_S, so a run always ends
# within its time limit.
HARD_STOP_S = 110
CHILD_DEADLINE_S = 170

END_TO_END_UNITS = {
    "discover_s_1t": "s",
    "discover_s_nt": "s",
    "cpu_s_nt": "s",
    "peak_rss_mb_1t": "MB",
    "peak_rss_mb_nt": "MB",
    "setup_s": "s",
}

PHASES = ["base", "generate", "window", "merge", "prune"]

PER_LAYER_UNITS = {
    "partition.product_s": "s",
    "partition.product_calls": "count",
    "partition.product_rows": "count",
    "partition.product_ns_per_row": "ns/row",
    "partition.build_s": "s",
    "partition.label_reuse_frac": "ratio",
    "partition.allocs_per_product": "ratio",
    "partition.pool_reuse_frac": "ratio",
    "partition.error_s": "s",
    "partition.error_calls": "count",
    "partition.replay_error_calls": "count",
    "partition.error_rows": "count",
    "partition.error_skip_frac": "ratio",
    "lattice.generate_s": "s",
    "lattice.candidates": "count",
    "core.store_put_s": "s",
    "core.store_get_s": "s",
    "core.store_release_s": "s",
    "core.spill_write_mb": "MB",
    "core.spill_read_mb": "MB",
    "core.pli_cache_hit_frac": "ratio",
    **{f"core.phase.{p}_s_{t}": "s" for t in ("1t", "nt") for p in PHASES},
    "core.window_overhead_s": "s",
    "core.unattributed_s": "s",
    "core.peak_resident_mb": "MB",
    "core.rss_gap_frac": "ratio",
    "core.replay_valid": "bool",
    "util.speedup_nt": "ratio",
    "util.cpu_per_wall_nt": "ratio",
    "util.reported_speedup_nt": "ratio",
    "obs.trace_overhead_ratio": "ratio",
    "obs.trace_dropped": "count",
    "obs.phase_table_valid": "bool",
    "error_rate": "ratio",
}


def cpus():
    return len(os.sched_getaffinity(0))


def build():
    """Configures (once) and builds the benchmark binary; exits 1 on failure."""
    steps = []
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_tane",
                  "-j", str(cpus())])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.exit("perfbench: build failed: " + " ".join(step))


def ratio(num, den):
    return num / den if den else 0.0


class Session:
    """The child processes of one benchmark run and their output checks."""

    def __init__(self, workload, seed, tiny, reference, trace_capacity):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.reference = reference
        self.trace_capacity = trace_capacity
        self.attempted = 0
        self.failed = 0
        self.first_digest = None
        self.scratch = os.path.abspath(
            os.path.join(".bench_build", "tmp", str(os.getpid())))
        self.children = 0
        self.deadline = time.monotonic() + CHILD_DEADLINE_S

    def child(self, mode, threads=1, trace=False):
        """Runs one perfbench_tane process; returns its record, or None."""
        self.children += 1
        scratch = os.path.join(self.scratch, str(self.children))
        os.makedirs(scratch, exist_ok=True)
        cmd = [BINARY, mode, "--workload", self.workload, "--seed",
               str(self.seed), "--scratch", scratch, "--threads", str(threads)]
        if trace:
            cmd.append("--trace")
            if self.trace_capacity:
                cmd += ["--trace-capacity", str(self.trace_capacity)]
        if self.tiny:
            cmd.append("--tiny")
        env = dict(os.environ, TMPDIR=scratch)
        self.attempted += 1
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  env=env, timeout=max(
                                      1.0, self.deadline - time.monotonic()))
            lines = proc.stdout.strip().splitlines()
            record = json.loads(lines[-1]) if proc.returncode == 0 and lines \
                else {"ok": 0, "error": f"exit {proc.returncode}: "
                      + proc.stderr.strip()[-300:]}
        except subprocess.TimeoutExpired:
            record = {"ok": 0, "error": "timed out"}
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        problem = self.problem(mode, record)
        if problem:
            self.failed += 1
            if self.failed <= 3:
                print(f"perfbench: {mode} threads={threads} failed: {problem}",
                      file=sys.stderr)
            return None
        return record

    def problem(self, mode, record):
        if not record.get("ok"):
            return record.get("error", "not ok")
        if mode == "replay":
            return ""
        if not record.get("complete"):
            return "incomplete result"
        if record.get("verify"):
            return "independent re-verification: " + record["verify"]
        digest = record["digest"]
        if self.reference is not None and digest != self.reference:
            return f"digest {digest} != reference {self.reference}"
        if self.first_digest is None:
            self.first_digest = digest
        if digest != self.first_digest:
            return f"digest {digest} != earlier run's {self.first_digest}"
        return ""

    def close(self):
        shutil.rmtree(self.scratch, ignore_errors=True)


def rounds(seconds, min_rounds, body):
    """Calls body(i) until --seconds would be exceeded; at least min_rounds."""
    start = time.monotonic()
    done = 0
    while True:
        begin = time.monotonic()
        body(done)
        done += 1
        now = time.monotonic()
        if done >= min_rounds and (now - start + (now - begin) > seconds or
                                   now - start > HARD_STOP_S):
            return


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(session, seconds, threads):
    runs = {1: [], threads: []}

    def round_(i):
        # Alternate which thread count goes first, so neither always runs on
        # a machine the other just warmed.
        for t in ((1, threads) if i % 2 == 0 else (threads, 1)):
            record = session.child("run", threads=t)
            if record:
                runs[t].append(record)

    rounds(seconds, 3, round_)
    one, many = runs[1], runs[threads]
    values = {
        "discover_s_1t": median([r["discover_s"] for r in one]),
        "discover_s_nt": median([r["discover_s"] for r in many]),
        "cpu_s_nt": median([r["cpu_s"] for r in many]),
        "peak_rss_mb_1t": median([r["peak_rss_mb"] for r in one]),
        "peak_rss_mb_nt": median([r["peak_rss_mb"] for r in many]),
        "setup_s": median([r["setup_s"] for r in one + many]),
    }
    note = (f"{len(one)} runs at 1 thread, {len(many)} at {threads}; "
            "peak_resident_bytes gauge beside peak RSS: "
            f"{median([r['peak_resident_mb'] for r in one]):.1f} MB (1t), "
            f"{median([r['peak_resident_mb'] for r in many]):.1f} MB (nt)")
    return values, note


def layer_values(u1, un, t1, tn, rp):
    """Per-layer metrics of one round: untraced and traced runs at 1 and N
    threads, and the replay."""
    products = t1["partition_products"]
    scans, skipped = t1["g3_scans"], t1["g3_scans_skipped"]
    phases_1t = sum(t1[f"phase_{p}_s"] for p in PHASES)
    dropped = max(t1["trace_dropped"], tn["trace_dropped"])
    values = {
        "partition.product_s": rp["product_s"],
        "partition.product_calls": products,
        "partition.product_rows": t1["product_rows_scanned"],
        "partition.product_ns_per_row":
            1e9 * ratio(rp["product_s"], rp["product_rows"]),
        "partition.build_s": rp["build_s"],
        "partition.label_reuse_frac":
            ratio(t1["product_label_reuses"], products),
        "partition.allocs_per_product":
            ratio(t1["product_allocations"], products),
        # Share of the two output buffers per product that did not need a
        # heap allocation (recycled through the pool or the window plan).
        "partition.pool_reuse_frac":
            max(0.0, 1.0 - ratio(t1["product_allocations"], 2 * products)),
        "partition.error_s": rp["error_s"],
        "partition.error_calls": scans,
        "partition.replay_error_calls": rp["scans"],
        "partition.error_rows": t1["g3_rows_scanned"],
        "partition.error_skip_frac": ratio(skipped, scans + skipped),
        "lattice.generate_s": rp["generate_s"],
        "lattice.candidates": t1["sets_generated"],
        "core.store_put_s": rp["put_s"],
        "core.store_get_s": rp["get_s"],
        "core.store_release_s": rp["release_s"],
        "core.spill_write_mb": t1["spill_bytes_written"] / 2**20,
        "core.spill_read_mb": t1["spill_bytes_read"] / 2**20,
        "core.pli_cache_hit_frac":
            ratio(t1["pli_cache_hits"], t1["pli_cache_lookups"]),
        "core.window_overhead_s": t1["phase_window_s"] - (
            rp["product_s"] + rp["error_s"] + rp["put_s"] + rp["get_s"]),
        "core.unattributed_s": t1["discover_s"] - phases_1t,
        "core.peak_resident_mb": t1["peak_resident_mb"],
        "core.rss_gap_frac":
            ratio(t1["peak_rss_mb"] - t1["peak_resident_mb"],
                  t1["peak_rss_mb"]),
        "core.replay_valid": int(
            rp["candidates"] == t1["sets_generated"] and
            rp["products"] == products and rp["trace_dropped"] == 0),
        "util.speedup_nt": ratio(u1["discover_s"], un["discover_s"]),
        "util.cpu_per_wall_nt": ratio(un["cpu_s"], un["discover_s"]),
        "util.reported_speedup_nt": un["reported_speedup"],
        "obs.trace_overhead_ratio": ratio(t1["discover_s"], u1["discover_s"]),
        "obs.trace_dropped": dropped,
        "obs.phase_table_valid": int(dropped == 0),
    }
    for p in PHASES:
        values[f"core.phase.{p}_s_1t"] = t1[f"phase_{p}_s"]
        values[f"core.phase.{p}_s_nt"] = tn[f"phase_{p}_s"]
    return values


def per_layer(session, seconds, threads):
    per_round = []

    def round_(i):
        records = [session.child("run", threads=1),
                   session.child("run", threads=threads),
                   session.child("run", threads=1, trace=True),
                   session.child("run", threads=threads, trace=True),
                   session.child("replay")]
        if all(records):
            per_round.append(layer_values(*records))

    rounds(seconds, 1, round_)
    values = {name: median([r[name] for r in per_round])
              for name in PER_LAYER_UNITS if name != "error_rate"}
    values["error_rate"] = ratio(session.failed, session.attempted)
    # Validity flags hold only if they held in every round.
    for flag in ("core.replay_valid", "obs.phase_table_valid"):
        values[flag] = min([r[flag] for r in per_round], default=0)
    values["obs.trace_dropped"] = max(
        [r["obs.trace_dropped"] for r in per_round], default=0)
    return values, per_round


def measure(workload, seed, seconds, trace, tiny=False, reference=None,
            trace_capacity=None):
    """One benchmark run; returns (result object, human-readable lines)."""
    if reference is None:
        with open(os.path.join(HERE, "reference.json")) as f:
            reference = json.load(f)["tiny" if tiny else "full"][workload]
    session = Session(workload, seed, tiny, reference, trace_capacity)
    threads = cpus()
    notes = [f"workload={workload} seed={seed} threads=1,{threads} "
             f"trace={trace} closed loop, 1 client"]
    try:
        if trace:
            values, per_round = per_layer(session, seconds, threads)
            units = PER_LAYER_UNITS
            if values["core.replay_valid"] == 0:
                notes.append("per-layer numbers INVALID: the replay's counts "
                             "do not match the run's")
            if values["obs.phase_table_valid"] == 0:
                notes.append("phase table INVALID: the trace ring dropped "
                             f"{values['obs.trace_dropped']} events")
            notes.append(f"{len(per_round)} rounds")
        else:
            values, note = end_to_end(session, seconds, threads)
            units = END_TO_END_UNITS
            notes.append(note)
    finally:
        session.close()
    notes.append(f"{session.attempted} runs, {session.failed} failed")
    for name, value in values.items():
        notes.append(f"  {name:34s} {value:>16.6g} {units[name]}")
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    return result, notes


def selftest():
    """Checks the benchmark itself on tiny inputs."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = measure(workload, 7, 1, trace, tiny=True)
            metrics = result["metrics"]
            for metric in spec[key]:
                got = metrics.get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload}: {metric['name']} missing or "
                                    f"wrong unit")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: runs failed")
            if trace and metrics["core.replay_valid"]["value"] != 1:
                problems.append(f"{workload}: replay counts do not match")
    result, _ = measure("hep_approx", 7, 1, 0, tiny=True,
                        reference="0/0/0000000000000000")
    if result["correct"] or result["failed"] != result["attempted"]:
        problems.append("a wrong reference digest did not fail every run")
    result, _ = measure("hep_approx", 7, 1, 1, tiny=True, trace_capacity=4)
    metrics = result["metrics"]
    if (metrics["obs.trace_dropped"]["value"] == 0 or
            metrics["obs.phase_table_valid"]["value"] != 0):
        problems.append("an overflowing trace ring did not flag the phases")
    for problem in problems:
        print("selftest: " + problem, file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.selftest:
        return selftest()
    result, notes = measure(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(notes))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
