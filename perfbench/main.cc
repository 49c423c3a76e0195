// perfbench_tane: one measured TANE run per process, driven by run.py.
//
//   perfbench_tane run --workload W --seed S --threads N --scratch DIR
//                      [--trace] [--trace-capacity C] [--tiny]
//     Sets up the workload's relation, runs one Tane::Discover, checks its
//     output, and prints one JSON line: set-up and Discover wall seconds,
//     process CPU seconds of the Discover, this process's peak RSS, the
//     output digest, the run's counters, and — with --trace — the
//     program's own phase spans summed per phase.
//
//   perfbench_tane replay --workload W --seed S --scratch DIR [--tiny]
//     Replays every level window on the run's exact operands (replay.h) and
//     prints the per-layer totals as one JSON line.
//
// Exit code 0 means the line was printed; its "ok" field says whether the
// run itself succeeded.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/tane.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oracle.h"
#include "replay.h"
#include "util/json_writer.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Counters and gauges are looked up by their report names, so a counter the
// program drops reads 0 here instead of breaking the build.
int64_t Counter(const tane::obs::MetricsSnapshot& m, std::string_view name) {
  for (int id = 0; id < tane::obs::kCounterCount; ++id) {
    if (tane::obs::CounterName(static_cast<tane::obs::CounterId>(id)) == name) {
      return m.counters[id];
    }
  }
  return 0;
}

int64_t Gauge(const tane::obs::MetricsSnapshot& m, std::string_view name) {
  for (int id = 0; id < tane::obs::kGaugeCount; ++id) {
    if (tane::obs::GaugeName(static_cast<tane::obs::GaugeId>(id)) == name) {
      return m.gauges[id];
    }
  }
  return 0;
}

// The program's own per-level speedup(), wall-weighted over the levels; 0
// once the program no longer reports it.
template <typename Stats>
double ReportedSpeedup(const Stats& stats) {
  double wall = 0.0;
  double weighted = 0.0;
  if constexpr (requires { stats.level_parallel[0].speedup(); }) {
    for (const auto& level : stats.level_parallel) {
      wall += level.wall_seconds;
      weighted += level.speedup() * level.wall_seconds;
    }
  }
  return wall > 0.0 ? weighted / wall : 0.0;
}

struct Args {
  std::string mode;
  std::string workload;
  std::string scratch;
  uint64_t seed = 42;
  int threads = 1;
  bool trace = false;
  bool tiny = false;
  size_t trace_capacity = 1 << 16;
};

bool Parse(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--trace") {
      args->trace = true;
    } else if (flag == "--tiny") {
      args->tiny = true;
    } else if (flag == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (flag == "--scratch" && has_value) {
      args->scratch = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--threads" && has_value) {
      args->threads = std::atoi(argv[++i]);
    } else if (flag == "--trace-capacity" && has_value) {
      args->trace_capacity = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return false;
    }
  }
  return (args->mode == "run" || args->mode == "replay") &&
         !args->workload.empty() && !args->scratch.empty();
}

// The program's phase spans, summed per phase.
std::map<std::string, double> PhaseSeconds(const tane::obs::Tracer& tracer) {
  static const std::map<std::string, std::string> kPhases = {
      {"base-partitions", "base"}, {"generate", "generate"},
      {"products", "window"},      {"validity", "merge"},
      {"prune", "prune"}};
  std::map<std::string, double> seconds;
  for (const auto& [span, phase] : kPhases) seconds[phase] = 0.0;
  for (const tane::obs::TraceEvent& event : tracer.Events()) {
    auto it = kPhases.find(event.name);
    if (it != kPhases.end()) seconds[it->second] += 1e-6 * event.dur_us;
  }
  return seconds;
}

// Ends the record with its status and prints it as one line.
int Print(tane::JsonWriter* json, const tane::Status& status) {
  json->Key("ok").Value(status.ok());
  if (!status.ok()) json->Key("error").Value(status.ToString());
  std::printf("%s\n", json->EndObject().str().c_str());
  return 0;
}

// Sets the relation up until 50 ms have gone into it (at most 9 times) and
// reports the median, so set-up time is steady even where it is tiny.
tane::StatusOr<BenchInput> TimedSetup(const Args& args,
                                      const Workload& workload,
                                      double* median_s) {
  std::vector<double> times;
  tane::StatusOr<BenchInput> input = tane::Status::Internal("no set-up ran");
  double total = 0.0;
  while (times.empty() || (times.size() < 9 && total < 0.05)) {
    const Clock::time_point start = Clock::now();
    input = MakeInput(workload, args.seed);
    times.push_back(Seconds(start));
    total += times.back();
    if (!input.ok()) break;
  }
  std::sort(times.begin(), times.end());
  *median_s = times[times.size() / 2];
  return input;
}

int Run(const Args& args, const Workload& workload) {
  tane::JsonWriter json;
  json.BeginObject();
  double setup_s = 0.0;
  tane::StatusOr<BenchInput> input = TimedSetup(args, workload, &setup_s);
  json.Key("setup_s").Value(setup_s);
  if (!input.ok()) return Print(&json, input.status());
  tane::RunController controller;
  tane::TaneConfig config = MakeConfig(workload, args.threads, &controller,
                                       args.scratch + "/spill");
  tane::obs::Tracer tracer(args.trace_capacity);
  if (args.trace) config.tracer = &tracer;

  const double cpu_before = CpuSeconds();
  const Clock::time_point start = Clock::now();
  tane::StatusOr<tane::DiscoveryResult> result =
      tane::Tane::Discover(input->relation, config);
  json.Key("discover_s").Value(Seconds(start));
  json.Key("cpu_s").Value(CpuSeconds() - cpu_before);
  if (!result.ok()) return Print(&json, result.status());

  const tane::obs::MetricsSnapshot& m = result->metrics;
  json.Key("complete").Value(result->complete());
  json.Key("digest").Value(Digest(*result, *input));
  json.Key("verify").Value(VerifySample(input->relation, *result,
                                        workload.epsilon, args.seed,
                                        /*max_fds=*/12, /*max_keys=*/4));
  for (const char* name :
       {"sets_generated", "partition_products", "g3_scans", "g3_scans_skipped",
        "g3_rows_scanned", "product_rows_scanned", "product_allocations",
        "product_label_reuses", "pli_cache_lookups", "pli_cache_hits",
        "spill_bytes_written", "spill_bytes_read"}) {
    json.Key(name).Value(Counter(m, name));
  }
  json.Key("peak_resident_mb")
      .Value(static_cast<double>(Gauge(m, "peak_resident_bytes")) / (1 << 20));
  json.Key("reported_speedup").Value(ReportedSpeedup(result->stats));
  if (args.trace) {
    for (const auto& [phase, seconds] : PhaseSeconds(tracer)) {
      json.Key("phase_" + phase + "_s").Value(seconds);
    }
    json.Key("trace_dropped").Value(tracer.dropped());
  }
  json.Key("peak_rss_mb").Value(PeakRssMb());
  return Print(&json, tane::Status::OK());
}

int RunReplay(const Args& args, const Workload& workload) {
  tane::JsonWriter json;
  json.BeginObject();
  tane::StatusOr<BenchInput> input = MakeInput(workload, args.seed);
  if (!input.ok()) return Print(&json, input.status());
  tane::obs::Tracer tracer(args.trace_capacity);
  tane::StatusOr<ReplayTotals> totals =
      Replay(workload, *input, args.scratch, &tracer);
  if (!totals.ok()) return Print(&json, totals.status());
  json.Key("build_s").Value(totals->build_s);
  json.Key("generate_s").Value(totals->generate_s);
  json.Key("product_s").Value(totals->product_s);
  json.Key("error_s").Value(totals->error_s);
  json.Key("put_s").Value(totals->put_s);
  json.Key("get_s").Value(totals->get_s);
  json.Key("release_s").Value(totals->release_s);
  json.Key("candidates").Value(totals->candidates);
  json.Key("products").Value(totals->products);
  json.Key("product_rows").Value(totals->product_rows);
  json.Key("scans").Value(totals->scans);
  json.Key("trace_dropped").Value(tracer.dropped());
  return Print(&json, tane::Status::OK());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::Parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_tane run|replay --workload W --seed S "
                 "--scratch DIR [--threads N] [--trace] [--trace-capacity C] "
                 "[--tiny]\n");
    return 2;
  }
  tane::StatusOr<perfbench::Workload> workload =
      perfbench::FindWorkload(args.workload, args.tiny);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }
  return args.mode == "run" ? perfbench::Run(args, *workload)
                            : perfbench::RunReplay(args, *workload);
}
