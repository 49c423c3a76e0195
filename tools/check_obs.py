#!/usr/bin/env python3
"""Validators for the observability artifacts, used by tools/check.sh.

Usage:
  check_obs.py micro   BENCH_micro_partition.json
  check_obs.py trace   trace.json
  check_obs.py report  report.json discover_stats.txt
  check_obs.py scaling BENCH_parallel_scaling.json
  check_obs.py profile folded.txt --base STATS... --prof STATS...

`micro` asserts the instrumentation overhead measured by the partition
microbenchmark stays within the 2% budget, that the registry metrics made
it into the artifact, that the artifact names the dispatched kernel, and
that products/sec clears a hard per-dataset throughput floor (1.5x the
pre-kernel-rewrite baseline) — a genuine perf regression in the product
hot path fails the gate, it does not merely shift a number. `trace` checks the file is structurally valid
Chrome trace-event JSON (loadable by chrome://tracing and Perfetto) and
names every expected phase span. `report` checks the run-report schema and
that its counters and per-level table agree with what `tane discover
--stats` printed for the same run. `scaling` hard-fails on thread-scaling
regressions in the parallel_scaling artifact: every run of every sweep
(each names its relation) must match the serial output bit for bit,
allocation counts must not drift with the thread count, and — on machines
whose hardware_concurrency covers the thread count — speedups must clear
the regression floors below, the Lymphography sweep included. `profile` gates the
sampling profiler: the folded-stack artifact must be structurally valid
(semicolon-joined frames rooted at "tane", integer sample counts) and
carry real samples, and the profiled run's discover time may not exceed
the unprofiled baseline by more than 5% (min-of-N on both sides so one
noisy run does not flap the gate).
"""

import re
import sys

import jsonio

OVERHEAD_BUDGET = 1.02

# The sampling profiler's budget at its default 97 Hz: spans push/pop a
# seqlock-protected frame and the sampler reads them from another thread,
# all off the per-product hot path — 5% is generous, not tight.
PROFILE_OVERHEAD_BUDGET = 1.05

HW_BACKENDS = ("noop", "linux_perf")

HW_PHASE_KEYS = ("phase", "spans", "cycles", "instructions",
                 "cache_references", "cache_misses", "branch_misses", "ipc")

# Hard products/sec floors: 1.5x the baseline committed in
# BENCH_micro_partition.json before the vectorized-kernel rewrite
# (84212 / 74709 / 55472), which that rewrite must beat. "Hepatitis x20"
# is new with the rewrite (no prior baseline), so its floor is its first
# measured artifact (~5500/s) with ~25% noise headroom.
PRODUCTS_PER_SEC_FLOORS = {
    "Lymphography": 126318.0,
    "Hepatitis": 112064.0,
    "Wisconsin breast cancer": 83207.0,
    "Hepatitis x20": 4200.0,
}

KNOWN_KERNELS = ("scalar", "avx2", "neon")

# Spans the discovery driver always emits (per-worker "slice" and "spill"
# are conditional on threading / storage, so not required here).
REQUIRED_SPANS = ("run", "level", "base-partitions", "validity", "prune",
                  "generate", "products")

# --stats token -> (report object path). Every one of these must match the
# report exactly: the stats line and the report are two views of the same
# registry snapshot.
STATS_TOKENS = {
    "levels": ("result", "levels_processed"),
    "sets": ("metrics", "counters", "sets_generated"),
    "validity_tests": ("metrics", "counters", "validity_tests"),
    "products": ("metrics", "counters", "partition_products"),
    "g3_scans": ("metrics", "counters", "g3_scans"),
    "g3_scans_skipped": ("metrics", "counters", "g3_scans_skipped"),
    "product_allocations": ("metrics", "counters", "product_allocations"),
    "peak_partition_bytes": ("metrics", "gauges", "peak_resident_bytes"),
    "checkpoint_writes": ("checkpoint", "writes"),
    "checkpoint_bytes": ("checkpoint", "bytes"),
    "resumed_from_level": ("checkpoint", "resumed_from_level"),
    "threads": ("config", "num_threads"),
}


def fail(message):
    print(f"check_obs: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def load(path):
    return jsonio.load_json(path, fail)


def dig(doc, path):
    for key in path:
        if not isinstance(doc, dict) or key not in doc:
            fail(f"report is missing {'.'.join(path)}")
        doc = doc[key]
    return doc


def close(a, b, rel=1e-3, abs_tol=1e-9):
    return abs(a - b) <= max(abs_tol, rel * max(abs(a), abs(b)))


def check_micro(path):
    doc = load(path)
    if doc.get("benchmark") != "micro_partition":
        fail(f"{path}: not a micro_partition artifact")
    if doc.get("kernel") not in KNOWN_KERNELS:
        fail(f"{path}: dispatched kernel {doc.get('kernel')!r} is not one "
             f"of {KNOWN_KERNELS}")
    datasets = doc.get("datasets")
    if not datasets:
        fail(f"{path}: empty datasets array")
    worst = 0.0
    floors_checked = 0
    names = set()
    for dataset in datasets:
        name = dataset.get("name", "?")
        names.add(name)
        ratio = dataset.get("obs_overhead_ratio")
        if ratio is None:
            fail(f"{name}: missing obs_overhead_ratio")
        worst = max(worst, ratio)
        if ratio > OVERHEAD_BUDGET:
            fail(f"{name}: instrumentation overhead {ratio:.4f}x exceeds "
                 f"the {OVERHEAD_BUDGET:.2f}x budget")
        if dataset.get("kernel") != doc["kernel"]:
            fail(f"{name}: dataset kernel {dataset.get('kernel')!r} "
                 f"disagrees with the artifact's {doc['kernel']!r}")
        # The honest rows/sec denominator: member rows actually walked.
        if dataset.get("rows_scanned", 0) <= 0:
            fail(f"{name}: rows_scanned missing or zero")
        for key in ("rows_per_sec", "nominal_rows_per_sec"):
            if not isinstance(dataset.get(key), (int, float)):
                fail(f"{name}: missing {key}")
        floor = PRODUCTS_PER_SEC_FLOORS.get(name)
        if floor is not None:
            floors_checked += 1
            throughput = dataset.get("products_per_sec", 0.0)
            if throughput < floor:
                fail(f"{name}: {throughput:.0f} products/sec is below the "
                     f"{floor:.0f}/sec hard floor — the product hot path "
                     f"regressed")
        # partition_products is the driver's counter; the microbenchmark's
        # registry sees the product/pool side: buffer acquires and the
        # per-product size histograms.
        counters = dataset.get("metrics", {}).get("counters", {})
        if counters.get("pool_acquires", 0) <= 0:
            fail(f"{name}: registry recorded no pool acquires")
        classes = dataset.get("histograms", {}).get("product_classes", {})
        if classes.get("count", 0) <= 0:
            fail(f"{name}: product_classes histogram is empty")
    missing = sorted(set(PRODUCTS_PER_SEC_FLOORS) - names)
    if missing:
        fail(f"{path}: floor-gated datasets missing from the artifact: "
             f"{missing}")
    print(f"check_obs: micro OK ({len(datasets)} datasets, "
          f"{floors_checked} throughput floors, "
          f"worst overhead {worst:.4f}x)")


def check_trace(path):
    doc = load(path)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: missing or empty traceEvents")
    names = set()
    for index, event in enumerate(events):
        for key in ("name", "cat", "ph", "pid", "tid", "ts"):
            if key not in event:
                fail(f"event {index}: missing {key}")
        if event["ph"] not in ("X", "i"):
            fail(f"event {index}: unexpected ph {event['ph']!r}")
        if event["ph"] == "X":
            if not isinstance(event.get("dur"), (int, float)):
                fail(f"event {index}: complete event without numeric dur")
            if event["dur"] < 0:
                fail(f"event {index}: negative duration")
        else:
            if event.get("s") != "t":
                fail(f"event {index}: instant event without scope 's':'t'")
        if not isinstance(event["ts"], (int, float)):
            fail(f"event {index}: non-numeric ts")
        names.add(event["name"].split()[0])
    for required in REQUIRED_SPANS:
        if required not in names:
            fail(f"no '{required}' span in trace (have: {sorted(names)})")
    print(f"check_obs: trace OK ({len(events)} events, "
          f"{doc.get('otherData', {}).get('dropped_events', 0)} dropped)")


# Speedup floors for the exact (epsilon = 0) synthetic sweep, deliberately
# below the targets (>=1.5x at 2T, >=6x at 8T) so CI noise does not flap the
# gate, but far above the regression they guard against (0.57x at 2T).
# Applied only when the machine has at least as many hardware threads as
# the run asked for.
EXACT_SPEEDUP_FLOORS = {2: 1.2, 4: 2.0, 8: 4.0}

# Everywhere else — the approximate synthetic sweep, whose levels are small
# enough for the serial fallback, and the Lymphography stand-in, whose
# levels are many tiny products where any serialized per-candidate commit
# work shows — no thread count may be materially slower than serial, on any
# hardware that can actually run the threads.
NOT_SLOWER_FLOOR = 0.95

# Sweeps the artifact must carry, as (relation, epsilon): dropping one would
# silently retire its floors.
REQUIRED_SWEEPS = {("synthetic", 0), ("synthetic", 0.1), ("lymphography", 0)}


def check_scaling(path):
    doc = load(path)
    if doc.get("benchmark") != "parallel_scaling":
        fail(f"{path}: not a parallel_scaling artifact")
    hardware = doc.get("hardware_concurrency")
    if not isinstance(hardware, int) or hardware < 0:
        fail(f"{path}: missing or invalid hardware_concurrency")
    sweeps = doc.get("sweeps")
    if not sweeps:
        fail(f"{path}: empty sweeps array")
    checked_floors = 0
    present = set()
    for sweep in sweeps:
        relation = sweep.get("relation")
        epsilon = sweep.get("epsilon")
        runs = sweep.get("runs")
        if not relation or epsilon is None or not runs:
            fail(f"{path}: sweep without relation, epsilon or runs")
        present.add((relation, epsilon))
        name = f"{relation} eps={epsilon}"
        allocations = None
        for run in runs:
            threads = run.get("threads")
            speedup = run.get("speedup")
            if not isinstance(threads, int) or threads < 1:
                fail(f"{name}: run without a valid thread count")
            if not isinstance(speedup, (int, float)):
                fail(f"{name} t={threads}: missing speedup")
            if run.get("matches_serial_output") is not True:
                fail(f"{name} t={threads}: output does not match the serial "
                     f"run — determinism bug")
            if allocations is None:
                allocations = run.get("product_allocations")
            elif run.get("product_allocations") != allocations:
                fail(f"{name} t={threads}: product_allocations "
                     f"{run.get('product_allocations')} drifts from the "
                     f"serial run's {allocations}")
            # Floors only bind when the hardware can actually run the
            # threads in parallel (hardware_concurrency 0 means unknown,
            # which also skips: a floor that cannot be met on the machine
            # is noise, not signal).
            if threads == 1 or hardware < threads:
                continue
            floor = (EXACT_SPEEDUP_FLOORS.get(threads)
                     if (relation, epsilon) == ("synthetic", 0)
                     else NOT_SLOWER_FLOOR)
            if floor is None:
                continue
            checked_floors += 1
            if speedup < floor:
                fail(f"{name} t={threads}: speedup {speedup:.2f}x below the "
                     f"{floor:.2f}x regression floor")
    missing = sorted(REQUIRED_SWEEPS - present)
    if missing:
        fail(f"{path}: sweeps missing from the artifact: {missing}")
    skipped = " (floors skipped: insufficient cores)" if checked_floors == 0 \
        else f" ({checked_floors} floors checked)"
    print(f"check_obs: scaling OK ({len(sweeps)} sweeps, "
          f"hardware_concurrency={hardware}){skipped}")


def check_hw_object(doc):
    """The hw object must be shape-stable across platforms: the noop
    backend still reports every phase and every counter key, just zeroed —
    a dashboard never has to branch on the platform."""
    hw = doc["hw"]
    if hw.get("backend") not in HW_BACKENDS:
        fail(f"hw.backend {hw.get('backend')!r} is not one of {HW_BACKENDS}")
    if hw.get("kernel") not in KNOWN_KERNELS:
        fail(f"hw.kernel {hw.get('kernel')!r} is not one of {KNOWN_KERNELS}")
    phases = hw.get("phases")
    if not isinstance(phases, list) or not phases:
        fail("hw.phases missing or empty — spans stopped aggregating")
    names = []
    for phase in phases:
        for key in HW_PHASE_KEYS:
            if key not in phase:
                fail(f"hw phase {phase.get('phase', '?')}: missing {key}")
        names.append(phase["phase"])
        if phase["spans"] <= 0:
            fail(f"hw phase {phase['phase']}: spans must be positive")
        if hw["backend"] == "noop" and phase["cycles"] != 0:
            fail(f"hw phase {phase['phase']}: nonzero cycles under the "
                 f"noop backend")
        if hw["backend"] == "linux_perf" and phase["phase"] == "run" and \
                phase["instructions"] <= 0:
            fail("hw run phase has no instructions despite linux_perf")
    if names != sorted(names):
        fail(f"hw.phases not sorted by phase name: {names}")
    for required in ("run", "products", "validity"):
        if required not in names:
            fail(f"hw.phases missing the '{required}' phase (have {names})")
    derived = hw.get("derived")
    for key in ("run_ipc", "products_cache_misses_per_row",
                "validity_cache_misses_per_row"):
        if not isinstance(derived.get(key) if derived else None, (int, float)):
            fail(f"hw.derived.{key} missing or non-numeric")


def check_report(path, stats_path):
    doc = load(path)
    if doc.get("schema_version") != 5:
        fail(f"{path}: schema_version != 5")
    for key in ("config", "dataset", "result", "timing", "metrics",
                "histograms", "levels", "checkpoint", "hw", "trace"):
        if key not in doc:
            fail(f"{path}: missing top-level '{key}'")
    check_hw_object(doc)
    trace = doc["trace"]
    if not isinstance(trace.get("enabled"), bool):
        fail("trace.enabled missing or non-boolean")
    for key in ("buffered_events", "dropped_events"):
        if not isinstance(trace.get(key), int) or trace[key] < 0:
            fail(f"trace.{key} missing or negative")
    if trace["enabled"] and trace["buffered_events"] <= 0:
        fail("trace enabled but buffered_events is zero")
    checkpoint = doc["checkpoint"]
    for key in ("writes", "bytes", "seconds", "resumed_from_level"):
        if not isinstance(checkpoint.get(key), (int, float)):
            fail(f"checkpoint.{key} missing or non-numeric")
    if (checkpoint["writes"] == 0) != (checkpoint["bytes"] == 0):
        fail("checkpoint writes/bytes disagree about whether any "
             "snapshot was written")
    if not isinstance(dig(doc, ("result", "resumable")), bool):
        fail("result.resumable missing or non-boolean")
    if not str(doc["dataset"].get("fingerprint", "")).startswith("crc32:"):
        fail("dataset.fingerprint is not a crc32 fingerprint")

    timing = doc["timing"]
    parts = (timing["read_seconds"] + timing["discover_seconds"] +
             timing["report_seconds"] + timing.get("other_seconds", 0.0))
    if not close(parts, timing["total_seconds"], rel=1e-9, abs_tol=1e-9):
        fail(f"timing does not sum: {parts} != {timing['total_seconds']}")

    try:
        with open(stats_path) as handle:
            stats_text = handle.read()
    except OSError as error:
        fail(f"{stats_path}: {error}")
    stats_line = next((line for line in stats_text.splitlines()
                       if line.startswith("# levels=")), None)
    if stats_line is None:
        fail(f"{stats_path}: no '# levels=' stats line (run with --stats)")
    tokens = dict(token.split("=", 1) for token in stats_line[2:].split()
                  if "=" in token)
    for token, path_keys in STATS_TOKENS.items():
        if token not in tokens:
            fail(f"stats line is missing {token}=")
        stats_value = int(tokens[token])
        report_value = int(dig(doc, path_keys))
        if stats_value != report_value:
            fail(f"{token}: --stats says {stats_value}, report "
                 f"{'.'.join(path_keys)} says {report_value}")
    degraded = int(tokens.get("degraded_to_disk", "0"))
    if bool(degraded) != bool(dig(doc, ("result", "degraded_to_disk"))):
        fail("degraded_to_disk mismatch between --stats and report")
    # trace_dropped only appears when the run traced; when it does, it and
    # the report describe the same ring.
    if "trace_dropped" in tokens:
        if int(tokens["trace_dropped"]) != int(
                dig(doc, ("trace", "dropped_events"))):
            fail("trace_dropped mismatch between --stats and report")
    hw_backend_line = next(
        (line for line in stats_text.splitlines()
         if line.startswith("# hw backend=")), None)
    if hw_backend_line is None:
        fail(f"{stats_path}: no '# hw backend=' line (run with --stats)")
    if hw_backend_line.split("=", 1)[1] != dig(doc, ("hw", "backend")):
        fail("hw backend mismatch between --stats and report")

    level_lines = re.findall(
        r"^# level (\d+): nodes=(\d+) wall=([\d.eE+-]+)s "
        r"worker=([\d.eE+-]+)s$",
        stats_text, re.M)
    levels = doc["levels"]
    if len(level_lines) != len(levels):
        fail(f"--stats prints {len(level_lines)} level lines, report has "
             f"{len(levels)}")
    for line, row in zip(level_lines, levels):
        level, nodes = int(line[0]), int(line[1])
        if level != row["level"] or nodes != row["nodes"]:
            fail(f"level {level}: nodes {nodes} vs report "
                 f"level {row['level']} nodes {row['nodes']}")
        for text_value, key in zip(line[2:],
                                   ("wall_seconds", "worker_seconds")):
            if not close(float(text_value), row[key]):
                fail(f"level {level} {key}: --stats {text_value} vs "
                     f"report {row[key]}")
    print(f"check_obs: report OK ({len(levels)} levels, "
          f"{len(STATS_TOKENS)} counters matched)")


# Frames are sanitized at emission (' ' and ';' become '_'), so the line
# grammar really is this simple: one space, splitting frames from count.
FOLDED_LINE = re.compile(r"^(\S+) (\d+)$")


def discover_seconds(stats_path):
    """The discover-phase wall time from a --stats capture: the profiler
    only runs during discovery, so this is the honest numerator — CSV read
    and report writing would dilute the ratio."""
    try:
        with open(stats_path) as handle:
            text = handle.read()
    except OSError as error:
        fail(f"{stats_path}: {error}")
    match = re.search(r"^# phases .*\bdiscover=([\d.eE+-]+)s", text, re.M)
    if match is None:
        fail(f"{stats_path}: no '# phases ... discover=' line "
             f"(run with --stats)")
    return float(match.group(1))


def check_profile(argv):
    folded_path = argv[0]
    try:
        split = argv.index("--prof")
    except ValueError:
        fail("profile: missing --prof STATS...")
    if argv[1] != "--base" or split < 3 or split == len(argv) - 1:
        fail("usage: profile folded.txt --base STATS... --prof STATS...")
    base = [discover_seconds(p) for p in argv[2:split]]
    prof = [discover_seconds(p) for p in argv[split + 1:]]

    try:
        with open(folded_path) as handle:
            lines = handle.read().splitlines()
    except OSError as error:
        fail(f"{folded_path}: {error}")
    if not lines:
        fail(f"{folded_path}: empty folded-stack file")
    total = 0
    working = 0
    for index, line in enumerate(lines):
        match = FOLDED_LINE.match(line)
        if match is None:
            fail(f"{folded_path}:{index + 1}: not 'frames count': {line!r}")
        frames = match.group(1).split(";")
        count = int(match.group(2))
        if frames[0] != "tane":
            fail(f"{folded_path}:{index + 1}: stack not rooted at 'tane'")
        if count <= 0:
            fail(f"{folded_path}:{index + 1}: non-positive sample count")
        if any(not frame for frame in frames):
            fail(f"{folded_path}:{index + 1}: empty frame")
        total += count
        if "(idle)" not in frames:
            working += count
    if working == 0:
        fail(f"{folded_path}: every sample is idle — the span stack never "
             f"saw a frame")

    # min-of-N on both sides: scheduling noise only ever adds time, so the
    # minimum is the least-contaminated estimate of each mode's true cost.
    ratio = min(prof) / min(base)
    if ratio > PROFILE_OVERHEAD_BUDGET:
        fail(f"profiling overhead {ratio:.4f}x exceeds the "
             f"{PROFILE_OVERHEAD_BUDGET:.2f}x budget "
             f"(base min {min(base):.4f}s, profiled min {min(prof):.4f}s)")
    print(f"check_obs: profile OK ({total} samples, {working} working, "
          f"overhead {ratio:.4f}x <= {PROFILE_OVERHEAD_BUDGET:.2f}x)")


def main(argv):
    if len(argv) >= 3 and argv[1] == "micro":
        check_micro(argv[2])
    elif len(argv) >= 3 and argv[1] == "trace":
        check_trace(argv[2])
    elif len(argv) >= 4 and argv[1] == "report":
        check_report(argv[2], argv[3])
    elif len(argv) >= 3 and argv[1] == "scaling":
        check_scaling(argv[2])
    elif len(argv) >= 6 and argv[1] == "profile":
        check_profile(argv[2:])
    else:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
