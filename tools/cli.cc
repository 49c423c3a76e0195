#include "tools/cli.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>

#include "analysis/closure.h"
#include "analysis/key_discovery.h"
#include "analysis/keys.h"
#include "analysis/normalization.h"
#include "analysis/violations.h"
#include "core/run_snapshot.h"
#include "core/tane.h"
#include "datasets/paper_datasets.h"
#include "obs/flight_recorder.h"
#include "obs/perf_counters.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "relation/csv.h"
#include "relation/stats.h"
#include "relation/transforms.h"
#include "rules/association.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/timer.h"

namespace tane {
namespace cli {
namespace {

constexpr const char* kUsage = R"(tane — functional dependency profiler

usage: tane <command> [options]

commands:
  discover <file.csv>   mine all minimal (approximate) dependencies
      --epsilon=E       g3 threshold in [0,1] (default 0 = exact FDs)
      --max-lhs=N       bound on left-hand-side size
      --storage=S       memory (default), disk (the scalable TANE), or auto
                        (spill to disk when the memory budget is breached)
      --deadline-ms=T   time-box the run; on expiry a partial result with
                        every dependency proven so far is printed
      --memory-budget-mb=M
                        partition-memory budget; with --storage=auto (the
                        default when only a budget is given) the run spills
                        to disk instead of failing
      --threads=N       worker threads for per-level parallel execution
                        (default 1; output is identical for any N)
      --format=F        text (default), json, or csv
      --stats           print search statistics and the phase breakdown
      --trace=PATH      write a Chrome/Perfetto trace of the run's phases
                        (open with https://ui.perfetto.dev)
      --report=PATH     write a machine-readable JSON run report (config,
                        dataset fingerprint, metrics, per-level table,
                        hardware-counter phase aggregates)
      --profile[=HZ]    sample the span stack HZ times per second (default
                        97) and write a folded-stack profile; feed it to
                        flamegraph.pl or speedscope
      --profile-out=PATH
                        folded-stack output path (default
                        tane-profile.folded)
      --progress[=SECONDS]
                        log a progress heartbeat every SECONDS (default 1);
                        implies --log-level=info unless set explicitly
      --checkpoint-dir=DIR
                        write crash-safe snapshots of the search into DIR;
                        a run that stops early (deadline, cancel, memory
                        budget) leaves its last level boundary on disk and
                        exits 10 ("interrupted but resumable"); also arms
                        the flight recorder: any early exit dumps the last
                        seconds of structured events to DIR/flightrec.json
      --checkpoint-every-level
                        also snapshot after every completed level, not just
                        on early exit (requires --checkpoint-dir)
      --resume          continue from the latest snapshot in DIR; refuses a
                        snapshot taken with a different dataset or a
                        different output-affecting configuration; with no
                        snapshot present the run simply starts fresh
      --stop-after-level=N
                        suspend the run at the level-N boundary (checkpoint
                        and exit 10); a deliberate pause, used for cooperative
                        time-slicing and by the resume tests
  keys <file.csv>       mine all minimal (approximate) keys
      --epsilon=E       key error threshold (default 0)
  check <file.csv> --fd=LHS->RHS
                        measure one dependency: g1, g2, g3, violations
  violations <file.csv> --fd=LHS->RHS [--limit=N]
                        list the exceptional rows behind a dependency
  normalize <file.csv>  minimal cover, candidate keys, BCNF decomposition
  profile <file.csv>    per-column statistics (cardinality, entropy, flags)
  rules <file.csv>      association rules between attribute-value pairs
      --min-support=S   itemset support threshold (default 0.1)
      --min-confidence=C rule confidence threshold (default 0.8)
      --limit=N         print at most N rules (default 50)
  generate <dataset>    write a synthetic stand-in dataset as CSV to stdout
      dataset           lymphography|hepatitis|wbc|chess|adult
      --rows=N          override the row count
      --copies=K        concatenate K suffixed copies (the paper's "xK")
      --seed=S          generator seed (default 42)
  help                  show this message

shared CSV options: --no-header, --delimiter=C
global options: --log-level=info|warning|error|fatal (default warning; the
  TANE_LOG_LEVEL environment variable sets the same thing, flag wins)

exit codes: 0 ok (including partial results), 2 invalid argument,
  3 not found, 4 out of range, 5 I/O error, 6 failed precondition,
  7 resource exhausted, 8 unimplemented, 9 internal error,
  10 interrupted but resumable (a checkpoint on disk can continue the run)
)";

constexpr int kExitResumable = 10;

struct ParsedArgs {
  std::string command;
  std::vector<std::string> positional;
  // Flag name -> value ("" for bare flags).
  std::vector<std::pair<std::string, std::string>> flags;

  const std::string* Flag(const std::string& name) const {
    for (const auto& [key, value] : flags) {
      if (key == name) return &value;
    }
    return nullptr;
  }
};

StatusOr<ParsedArgs> ParseArgs(const std::vector<std::string>& args) {
  ParsedArgs parsed;
  if (args.empty()) return Status::InvalidArgument("missing command");
  parsed.command = args[0];
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (StartsWith(arg, "--")) {
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        parsed.flags.emplace_back(arg.substr(2), "");
      } else {
        parsed.flags.emplace_back(arg.substr(2, eq - 2), arg.substr(eq + 1));
      }
    } else {
      parsed.positional.push_back(arg);
    }
  }
  return parsed;
}

// Rejects flags no command handler would read; a silently dropped typo
// (--memory-budget-md) would otherwise run without the limit the user
// asked for.
Status CheckKnownFlags(const ParsedArgs& args,
                       std::initializer_list<const char*> known) {
  for (const auto& [name, value] : args.flags) {
    bool found = false;
    for (const char* candidate : known) {
      if (name == candidate) {
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument("unknown flag --" + name + " for '" +
                                     args.command + "' (see 'tane help')");
    }
  }
  return Status::OK();
}

StatusOr<double> FlagAsDouble(const ParsedArgs& args, const std::string& name,
                              double fallback) {
  const std::string* raw = args.Flag(name);
  if (raw == nullptr) return fallback;
  double value = 0;
  if (!ParseDouble(*raw, &value)) {
    return Status::InvalidArgument("bad --" + name + " value: " + *raw);
  }
  return value;
}

StatusOr<int64_t> FlagAsInt(const ParsedArgs& args, const std::string& name,
                            int64_t fallback) {
  const std::string* raw = args.Flag(name);
  if (raw == nullptr) return fallback;
  int64_t value = 0;
  if (!ParseInt64(*raw, &value)) {
    return Status::InvalidArgument("bad --" + name + " value: " + *raw);
  }
  return value;
}

// FlagAsInt for a flag stored in an `int`: a value outside int's range is
// rejected rather than wrapped by the narrowing.
StatusOr<int> FlagAsNarrowInt(const ParsedArgs& args, const std::string& name,
                              int fallback) {
  TANE_ASSIGN_OR_RETURN(const int64_t value, FlagAsInt(args, name, fallback));
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("bad --" + name + " value: " +
                                   *args.Flag(name) + " (out of range)");
  }
  return static_cast<int>(value);
}

StatusOr<Relation> LoadCsv(const ParsedArgs& args) {
  if (args.positional.empty()) {
    return Status::InvalidArgument("missing input file");
  }
  CsvOptions options;
  options.has_header = args.Flag("no-header") == nullptr;
  if (const std::string* delim = args.Flag("delimiter")) {
    if (delim->size() != 1) {
      return Status::InvalidArgument("--delimiter must be one character");
    }
    options.delimiter = (*delim)[0];
  }
  return ReadCsvFile(args.positional[0], options);
}

Status RunDiscover(const ParsedArgs& args, std::ostream& out,
                   std::ostream& err, bool* resumable) {
  const WallTimer total_timer;
  const WallTimer read_timer;
  TANE_ASSIGN_OR_RETURN(Relation relation, LoadCsv(args));
  const double read_seconds = read_timer.ElapsedSeconds();
  TaneConfig config;
  TANE_ASSIGN_OR_RETURN(config.epsilon, FlagAsDouble(args, "epsilon", 0.0));
  TANE_ASSIGN_OR_RETURN(config.max_lhs_size,
                        FlagAsNarrowInt(args, "max-lhs", kMaxAttributes));
  TANE_ASSIGN_OR_RETURN(int64_t deadline_ms,
                        FlagAsInt(args, "deadline-ms", 0));
  TANE_ASSIGN_OR_RETURN(int64_t budget_mb,
                        FlagAsInt(args, "memory-budget-mb", 0));
  TANE_ASSIGN_OR_RETURN(config.num_threads,
                        FlagAsNarrowInt(args, "threads", 1));
  if (deadline_ms < 0) {
    return Status::InvalidArgument("--deadline-ms must be >= 0");
  }
  if (budget_mb < 0) {
    return Status::InvalidArgument("--memory-budget-mb must be >= 0");
  }
  // The controller takes bytes: a budget whose byte count overflows int64
  // would wrap into a tiny limit.
  if (budget_mb > (std::numeric_limits<int64_t>::max() >> 20)) {
    return Status::InvalidArgument("bad --memory-budget-mb value: " +
                                   *args.Flag("memory-budget-mb") +
                                   " (out of range)");
  }
  if (const std::string* dir = args.Flag("checkpoint-dir")) {
    if (dir->empty()) {
      return Status::InvalidArgument("--checkpoint-dir needs a path");
    }
    config.checkpoint_directory = *dir;
  }
  if (args.Flag("checkpoint-every-level") != nullptr) {
    config.checkpoint_every_level = true;
  }
  if (args.Flag("resume") != nullptr) config.resume = true;
  TANE_ASSIGN_OR_RETURN(config.stop_after_level,
                        FlagAsNarrowInt(args, "stop-after-level", 0));

  if (const std::string* storage = args.Flag("storage")) {
    if (*storage == "memory") {
      config.storage = StorageMode::kMemory;
    } else if (*storage == "disk") {
      config.storage = StorageMode::kDisk;
    } else if (*storage == "auto") {
      config.storage = StorageMode::kAuto;
    } else {
      return Status::InvalidArgument("unknown --storage: " + *storage);
    }
  } else if (budget_mb > 0) {
    // A budget without an explicit storage choice means "stay fast, but
    // degrade to disk rather than die".
    config.storage = StorageMode::kAuto;
  }

  RunController controller;
  if (deadline_ms > 0) {
    controller.SetDeadlineAfter(std::chrono::milliseconds(deadline_ms));
  }
  if (budget_mb > 0) controller.set_memory_budget_bytes(budget_mb << 20);
  if (deadline_ms > 0 || budget_mb > 0) config.run_controller = &controller;

  if (const std::string* progress = args.Flag("progress")) {
    double period = 1.0;
    if (!progress->empty() &&
        (!ParseDouble(*progress, &period) || !std::isfinite(period) ||
         period <= 0)) {
      return Status::InvalidArgument(
          "--progress period must be finite and > 0, got " + *progress);
    }
    config.progress_period_seconds = period;
  }

  std::optional<obs::Tracer> tracer;
  if (args.Flag("trace") != nullptr) {
    tracer.emplace();
    config.tracer = &*tracer;
  }

  // The flight recorder rides the checkpoint directory: a run durable
  // enough to checkpoint is a run whose early exits deserve a postmortem.
  // Armed before discovery so the rings cover the whole run, including
  // restore.
  if (!config.checkpoint_directory.empty()) {
    obs::FlightRecorder::Arm(config.checkpoint_directory + "/flightrec.json",
                             config.num_threads + 1);
    obs::FlightRecorder::InstallSignalHandlers();
  }

  obs::Profiler profiler;
  const std::string* profile = args.Flag("profile");
  // --profile-out alone implies profiling at the default rate.
  if (profile != nullptr || args.Flag("profile-out") != nullptr) {
    int64_t hz = obs::Profiler::kDefaultHz;
    if (profile != nullptr && !profile->empty() &&
        (!ParseInt64(*profile, &hz) || hz <= 0 ||
         hz > std::numeric_limits<int>::max())) {
      return Status::InvalidArgument("--profile rate must be in [1, " +
                                     std::to_string(
                                         std::numeric_limits<int>::max()) +
                                     "], got " + *profile);
    }
    profiler.Start(static_cast<int>(hz));
  }

  TANE_ASSIGN_OR_RETURN(DiscoveryResult result,
                        Tane::Discover(relation, config));
  if (profiler.running()) {
    profiler.Stop();
    const std::string* out_path = args.Flag("profile-out");
    const std::string folded_path =
        out_path != nullptr ? *out_path : std::string("tane-profile.folded");
    if (!profiler.WriteFolded(folded_path)) {
      return Status::IoError("cannot write profile to " + folded_path);
    }
    err << "note: wrote " << profiler.total_samples() << " samples to "
        << folded_path << "\n";
  }
  const WallTimer report_timer;
  result.stats.read_seconds = read_seconds;
  if (!result.complete()) {
    err << "warning: partial result ("
        << CompletionToString(result.completion) << ") after "
        << result.completed_levels << " completed levels\n";
  }
  if (result.resumable) {
    *resumable = true;
    err << "note: checkpoint on disk covers " << result.stats.checkpoint_writes
        << " write(s); rerun with --checkpoint-dir="
        << config.checkpoint_directory << " --resume to continue\n";
  }
  const Schema& schema = relation.schema();

  const std::string* format = args.Flag("format");
  const std::string format_name = format == nullptr ? "text" : *format;
  if (format_name == "json") {
    out << "{\n  \"num_fds\": " << result.num_fds() << ",\n  \"completion\": \""
        << CompletionToString(result.completion)
        << "\",\n  \"completed_levels\": " << result.completed_levels
        << ",\n  \"fds\": [\n";
    for (size_t i = 0; i < result.fds.size(); ++i) {
      out << "    " << FdToJson(result.fds[i], schema)
          << (i + 1 < result.fds.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"keys\": [\n";
    for (size_t i = 0; i < result.keys.size(); ++i) {
      out << "    \"" << JsonEscape(result.keys[i].ToString(schema)) << "\""
          << (i + 1 < result.keys.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  } else if (format_name == "csv") {
    out << "lhs,rhs,g3_error\n";
    for (const FunctionalDependency& fd : result.fds) {
      std::vector<std::string> names;
      for (int a : Members(fd.lhs)) names.push_back(schema.name(a));
      out << "\"" << JoinStrings(names, ";") << "\"," << schema.name(fd.rhs)
          << "," << fd.error << "\n";
    }
  } else if (format_name == "text") {
    out << "# " << result.num_fds() << " minimal dependencies, "
        << result.keys.size() << " minimal keys\n";
    if (!result.complete()) {
      out << "# partial result: " << CompletionToString(result.completion)
          << " after " << result.completed_levels << " completed levels\n";
    }
    for (const FunctionalDependency& fd : result.fds) {
      out << fd.ToString(schema);
      if (fd.error > 0) out << "   (g3=" << fd.error << ")";
      out << "\n";
    }
    for (AttributeSet key : result.keys) {
      out << "key: " << key.ToString(schema) << "\n";
    }
  } else {
    return Status::InvalidArgument("unknown --format: " + format_name);
  }

  if (args.Flag("stats") != nullptr) {
    DiscoveryStats& stats = result.stats;
    out << "# levels=" << stats.levels_processed
        << " sets=" << stats.sets_generated
        << " validity_tests=" << stats.validity_tests
        << " products=" << stats.partition_products
        << " g3_scans=" << stats.g3_scans
        << " g3_scans_skipped=" << stats.g3_scans_skipped
        << " product_allocations=" << stats.product_allocations
        << " product_rows_scanned=" << stats.product_rows_scanned
        << " product_label_reuses=" << stats.product_label_reuses
        << " g3_rows_scanned=" << stats.g3_rows_scanned
        << " peak_partition_bytes=" << stats.peak_partition_bytes
        << " spill_bytes=" << stats.spill_bytes_written
        << " degraded_to_disk=" << (stats.degraded_to_disk ? 1 : 0)
        << " checkpoint_writes=" << stats.checkpoint_writes
        << " checkpoint_bytes=" << stats.checkpoint_bytes
        << " resumed_from_level=" << stats.resumed_from_level
        << " threads=" << stats.num_threads;
    if (tracer.has_value()) out << " trace_dropped=" << tracer->dropped();
    out << " seconds=" << stats.wall_seconds << "\n";
    // Hardware-counter phase aggregates, one line per phase. Under the
    // noop backend the spans are still counted, the counters read zero.
    out << "# hw backend=" << obs::PerfBackendName(obs::PerfCounters::backend())
        << "\n";
    for (const obs::HwPhaseSnapshot& phase : result.metrics.hw_phases) {
      out << "# hw " << phase.phase << ": spans=" << phase.spans
          << " cycles=" << phase.hw.cycles
          << " instructions=" << phase.hw.instructions
          << " cache_misses=" << phase.hw.cache_misses
          << " branch_misses=" << phase.hw.branch_misses;
      if (phase.hw.cycles > 0) {
        char ipc[32];
        std::snprintf(ipc, sizeof(ipc), " ipc=%.2f", phase.hw.ipc());
        out << ipc;
      }
      out << "\n";
    }
    // The phase breakdown sums exactly: "other" is defined as the remainder
    // of the total after the measured phases, never clamped.
    stats.report_seconds = report_timer.ElapsedSeconds();
    const double total = total_timer.ElapsedSeconds();
    const double other = total - stats.read_seconds - stats.wall_seconds -
                         stats.report_seconds;
    out << "# phases read=" << stats.read_seconds
        << "s discover=" << stats.wall_seconds
        << "s report=" << stats.report_seconds << "s other=" << other
        << "s total=" << total << "s\n";
    for (const LevelParallelStats& level : stats.level_parallel) {
      out << "# level " << level.level << ": nodes=" << level.nodes
          << " wall=" << level.wall_seconds
          << "s worker=" << level.worker_seconds << "s\n";
    }
  }

  if (const std::string* trace_path = args.Flag("trace")) {
    // One-shot, not per-event: the ring already absorbed the loss; the
    // operator only needs to know the trace is a suffix, not the whole run.
    if (tracer->dropped() > 0) {
      err << "warning: trace ring overflowed; dropped " << tracer->dropped()
          << " oldest event(s) — the trace covers the tail of the run\n";
    }
    if (!WriteChromeTrace(*tracer, *trace_path)) {
      return Status::IoError("cannot write trace to " + *trace_path);
    }
  }
  if (const std::string* report_path = args.Flag("report")) {
    obs::RunReportOptions report_options;
    report_options.dataset_path = args.positional[0];
    report_options.dataset_fingerprint = DatasetFingerprint(relation);
    report_options.dataset_rows = relation.num_rows();
    report_options.dataset_columns = relation.num_columns();
    report_options.read_seconds = read_seconds;
    report_options.report_seconds = report_timer.ElapsedSeconds();
    report_options.total_seconds = total_timer.ElapsedSeconds();
    result.stats.report_seconds = report_options.report_seconds;
    JsonWriter json;
    obs::WriteRunReport(config, result, report_options, &json);
    if (!json.WriteFile(*report_path)) {
      return Status::IoError("cannot write report to " + *report_path);
    }
  }
  return Status::OK();
}

Status RunKeys(const ParsedArgs& args, std::ostream& out) {
  TANE_ASSIGN_OR_RETURN(Relation relation, LoadCsv(args));
  KeyDiscoveryOptions options;
  TANE_ASSIGN_OR_RETURN(options.epsilon, FlagAsDouble(args, "epsilon", 0.0));
  TANE_ASSIGN_OR_RETURN(std::vector<DiscoveredKey> keys,
                        DiscoverKeys(relation, options));
  out << "# " << keys.size() << " minimal keys (epsilon=" << options.epsilon
      << ")\n";
  for (const DiscoveredKey& key : keys) {
    out << key.attributes.ToString(relation.schema());
    if (key.error > 0) out << "   (error=" << key.error << ")";
    out << "\n";
  }
  return Status::OK();
}

StatusOr<FunctionalDependency> FdFromArgs(const ParsedArgs& args,
                                          const Schema& schema) {
  const std::string* fd_text = args.Flag("fd");
  if (fd_text == nullptr) {
    return Status::InvalidArgument("missing --fd=LHS->RHS");
  }
  return ParseFd(*fd_text, schema);
}

Status RunCheck(const ParsedArgs& args, std::ostream& out) {
  TANE_ASSIGN_OR_RETURN(Relation relation, LoadCsv(args));
  TANE_ASSIGN_OR_RETURN(FunctionalDependency fd,
                        FdFromArgs(args, relation.schema()));
  TANE_ASSIGN_OR_RETURN(double g3, MeasureG3(relation, fd));
  TANE_ASSIGN_OR_RETURN(std::vector<int64_t> exceptional,
                        ExceptionalRows(relation, fd));
  out << fd.ToString(relation.schema()) << "\n";
  out << "g3 error:         " << g3 << (g3 == 0 ? "  (holds exactly)" : "")
      << "\n";
  out << "exceptional rows: " << exceptional.size() << " of "
      << relation.num_rows() << "\n";
  return Status::OK();
}

Status RunViolations(const ParsedArgs& args, std::ostream& out) {
  TANE_ASSIGN_OR_RETURN(Relation relation, LoadCsv(args));
  TANE_ASSIGN_OR_RETURN(FunctionalDependency fd,
                        FdFromArgs(args, relation.schema()));
  TANE_ASSIGN_OR_RETURN(int64_t limit, FlagAsInt(args, "limit", 20));
  TANE_ASSIGN_OR_RETURN(std::vector<int64_t> rows,
                        ExceptionalRows(relation, fd));
  out << "# " << rows.size() << " exceptional rows for "
      << fd.ToString(relation.schema()) << "\n";
  const Schema& schema = relation.schema();
  for (size_t i = 0; i < rows.size() && static_cast<int64_t>(i) < limit;
       ++i) {
    out << "row " << rows[i] << ":";
    for (int a : Members(fd.lhs.With(fd.rhs))) {
      out << " " << schema.name(a) << "=" << relation.value(rows[i], a);
    }
    out << "\n";
  }
  return Status::OK();
}

Status RunNormalize(const ParsedArgs& args, std::ostream& out) {
  TANE_ASSIGN_OR_RETURN(Relation relation, LoadCsv(args));
  TANE_ASSIGN_OR_RETURN(DiscoveryResult result, Tane::Discover(relation));
  const Schema& schema = relation.schema();
  const int n = relation.num_columns();

  std::vector<FunctionalDependency> cover = MinimalCover(result.fds);
  out << "# minimal cover (" << cover.size() << " rules)\n";
  for (const FunctionalDependency& fd : cover) {
    out << fd.ToString(schema) << "\n";
  }

  std::vector<AttributeSet> keys = CandidateKeys(n, result.fds);
  out << "# candidate keys (" << keys.size() << ")\n";
  for (AttributeSet key : keys) out << key.ToString(schema) << "\n";

  const std::vector<BcnfViolation> violations =
      FindBcnfViolations(n, result.fds);
  out << "# bcnf violations: " << violations.size() << "\n";
  out << "# proposed decomposition\n"
      << DescribeDecomposition(schema, DecomposeToBcnf(n, result.fds));
  return Status::OK();
}

Status RunProfile(const ParsedArgs& args, std::ostream& out) {
  TANE_ASSIGN_OR_RETURN(Relation relation, LoadCsv(args));
  const RelationStats stats = ComputeStats(relation);
  out << "# " << stats.rows << " rows, " << relation.num_columns()
      << " columns\n";
  out << FormatStats(stats);
  const std::vector<int> constants = stats.constant_columns();
  const std::vector<int> uniques = stats.unique_columns();
  if (!constants.empty()) {
    out << "# constant columns imply {} -> column dependencies\n";
  }
  if (!uniques.empty()) {
    out << "# unique columns are unary keys and determine every column\n";
  }
  return Status::OK();
}

Status RunRules(const ParsedArgs& args, std::ostream& out) {
  TANE_ASSIGN_OR_RETURN(Relation relation, LoadCsv(args));
  AssociationMiningOptions options;
  TANE_ASSIGN_OR_RETURN(options.min_support,
                        FlagAsDouble(args, "min-support", 0.1));
  TANE_ASSIGN_OR_RETURN(options.min_confidence,
                        FlagAsDouble(args, "min-confidence", 0.8));
  TANE_ASSIGN_OR_RETURN(int64_t limit, FlagAsInt(args, "limit", 50));
  TANE_ASSIGN_OR_RETURN(std::vector<AssociationRule> rules,
                        MineAssociationRules(relation, options));
  out << "# " << rules.size() << " rules (min_support=" << options.min_support
      << ", min_confidence=" << options.min_confidence << ")\n";
  for (size_t i = 0; i < rules.size() && static_cast<int64_t>(i) < limit;
       ++i) {
    out << rules[i].ToString(relation) << "\n";
  }
  return Status::OK();
}

Status RunGenerate(const ParsedArgs& args, std::ostream& out) {
  if (args.positional.empty()) {
    return Status::InvalidArgument("missing dataset name");
  }
  TANE_ASSIGN_OR_RETURN(PaperDataset dataset,
                        ParsePaperDatasetName(args.positional[0]));
  TANE_ASSIGN_OR_RETURN(int64_t rows, FlagAsInt(args, "rows", 0));
  TANE_ASSIGN_OR_RETURN(int64_t seed, FlagAsInt(args, "seed", 42));
  TANE_ASSIGN_OR_RETURN(const int copies,
                        FlagAsNarrowInt(args, "copies", 1));
  TANE_ASSIGN_OR_RETURN(
      Relation relation,
      MakePaperDataset(dataset, rows, static_cast<uint64_t>(seed)));
  if (copies > 1) {
    TANE_ASSIGN_OR_RETURN(relation, ConcatenateCopies(relation, copies));
  }
  WriteCsv(relation, out);
  return Status::OK();
}

}  // namespace

StatusOr<FunctionalDependency> ParseFd(const std::string& text,
                                       const Schema& schema) {
  const size_t arrow = text.find("->");
  if (arrow == std::string::npos) {
    return Status::InvalidArgument("dependency must contain '->': " + text);
  }
  FunctionalDependency fd;
  const std::string_view rhs_name =
      StripWhitespace(std::string_view(text).substr(arrow + 2));
  fd.rhs = schema.IndexOf(rhs_name);
  if (fd.rhs < 0) {
    return Status::NotFound("unknown attribute: " + std::string(rhs_name));
  }
  const std::string_view lhs_text = std::string_view(text).substr(0, arrow);
  if (!StripWhitespace(lhs_text).empty()) {
    for (std::string_view part : SplitString(lhs_text, ',')) {
      part = StripWhitespace(part);
      const int attribute = schema.IndexOf(part);
      if (attribute < 0) {
        return Status::NotFound("unknown attribute: " + std::string(part));
      }
      fd.lhs = fd.lhs.With(attribute);
    }
  }
  if (fd.lhs.Contains(fd.rhs)) {
    return Status::InvalidArgument("dependency is trivial: " + text);
  }
  return fd;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char ch : text) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string FdToJson(const FunctionalDependency& fd, const Schema& schema) {
  std::ostringstream out;
  out << "{\"lhs\": [";
  bool first = true;
  for (int a : Members(fd.lhs)) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << JsonEscape(schema.name(a)) << "\"";
  }
  out << "], \"rhs\": \"" << JsonEscape(schema.name(fd.rhs))
      << "\", \"g3_error\": " << fd.error << "}";
  return out.str();
}

int ExitCodeForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kInvalidArgument:
      return 2;
    case StatusCode::kNotFound:
      return 3;
    case StatusCode::kOutOfRange:
      return 4;
    case StatusCode::kIoError:
      return 5;
    case StatusCode::kFailedPrecondition:
      return 6;
    case StatusCode::kResourceExhausted:
      return 7;
    case StatusCode::kUnimplemented:
      return 8;
    case StatusCode::kInternal:
      return 9;
  }
  return 1;
}

int Run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  // Chaos-harness hook: lets a spawned child die by SIGKILL at a precise
  // checkpoint site (TANE_FAILPOINT_KILL=<site>[:skip]). No-op otherwise.
  failpoint::ArmKillFromEnv();
  StatusOr<ParsedArgs> parsed = ParseArgs(args);
  if (!parsed.ok()) {
    err << "error: " << parsed.status().ToString() << "\n" << kUsage;
    return ExitCodeForStatus(parsed.status());
  }

  // Log severity: the environment applies first, an explicit --log-level
  // wins over it, and --progress without either lowers to Info so the
  // heartbeats it asks for are actually visible (the library default of
  // kWarning would swallow them).
  namespace logging = internal_logging;
  bool log_level_chosen = logging::InitLogSeverityFromEnv();
  if (const std::string* level = parsed->Flag("log-level")) {
    logging::LogSeverity severity = logging::LogSeverity::kWarning;
    if (!logging::ParseLogSeverity(*level, &severity)) {
      err << "error: bad --log-level value: " << *level
          << " (want info, warning, error, or fatal)\n";
      return 2;
    }
    logging::SetMinLogSeverity(severity);
    log_level_chosen = true;
  }
  if (!log_level_chosen && parsed->Flag("progress") != nullptr &&
      logging::GetMinLogSeverity() > logging::LogSeverity::kInfo) {
    logging::SetMinLogSeverity(logging::LogSeverity::kInfo);
  }

  Status status = Status::OK();
  bool resumable = false;
  const std::string& command = parsed->command;
  if (command == "discover") {
    status = CheckKnownFlags(
        *parsed, {"epsilon", "max-lhs", "deadline-ms", "memory-budget-mb",
                  "threads", "storage", "format",
                  "stats", "trace", "report", "progress", "profile",
                  "profile-out", "log-level",
                  "no-header", "delimiter", "checkpoint-dir",
                  "checkpoint-every-level", "resume", "stop-after-level"});
    if (status.ok()) status = RunDiscover(*parsed, out, err, &resumable);
  } else if (command == "keys") {
    status = CheckKnownFlags(
        *parsed, {"epsilon", "log-level", "no-header", "delimiter"});
    if (status.ok()) status = RunKeys(*parsed, out);
  } else if (command == "check") {
    status = CheckKnownFlags(*parsed,
                             {"fd", "log-level", "no-header", "delimiter"});
    if (status.ok()) status = RunCheck(*parsed, out);
  } else if (command == "violations") {
    status = CheckKnownFlags(
        *parsed, {"fd", "limit", "log-level", "no-header", "delimiter"});
    if (status.ok()) status = RunViolations(*parsed, out);
  } else if (command == "normalize") {
    status = CheckKnownFlags(*parsed, {"log-level", "no-header", "delimiter"});
    if (status.ok()) status = RunNormalize(*parsed, out);
  } else if (command == "profile") {
    status = CheckKnownFlags(*parsed, {"log-level", "no-header", "delimiter"});
    if (status.ok()) status = RunProfile(*parsed, out);
  } else if (command == "rules") {
    status = CheckKnownFlags(
        *parsed, {"min-support", "min-confidence", "limit", "log-level",
                  "no-header", "delimiter"});
    if (status.ok()) status = RunRules(*parsed, out);
  } else if (command == "generate") {
    status = CheckKnownFlags(*parsed, {"rows", "seed", "copies", "log-level"});
    if (status.ok()) status = RunGenerate(*parsed, out);
  } else if (command == "help" || command == "--help") {
    out << kUsage;
    return 0;
  } else {
    err << "error: unknown command '" << command << "'\n" << kUsage;
    return 2;
  }

  if (!status.ok()) {
    err << "error: " << status.ToString() << "\n";
    if (command == "discover") {
      // A corrupt snapshot means "clear the directory and start over", not
      // "page someone" — the lost work is recomputable — so it shares the
      // retryable exit code rather than the failed-precondition one that a
      // genuine dataset/config mismatch gets.
      if (IsSnapshotCorruptStatus(status)) return kExitResumable;
      // A memory-budget breach surfaces as an error (there is no partial
      // result to print), but the wind-down checkpoint may still have
      // landed; if a loadable snapshot exists, the run is resumable.
      if (status.code() == StatusCode::kResourceExhausted) {
        const std::string* dir = parsed->Flag("checkpoint-dir");
        if (dir != nullptr && !dir->empty() &&
            LoadLatestSnapshot(*dir).ok()) {
          err << "note: checkpoint on disk; rerun with --resume to continue\n";
          return kExitResumable;
        }
      }
    }
    return ExitCodeForStatus(status);
  }
  if (resumable) return kExitResumable;
  return 0;
}

}  // namespace cli
}  // namespace tane
