// Tests for the observability layer: metrics registry exactness under
// concurrency, histogram semantics, the tracer ring and span deltas, the
// progress heartbeat, Chrome trace export, and the run report's agreement
// with DiscoveryStats.

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/tane.h"
#include "gtest/gtest.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "tests/test_util.h"
#include "util/logging.h"
#include "util/run_control.h"
#include "util/span_stack.h"
#include "util/thread_pool.h"

namespace tane {
namespace obs {
namespace {

using testing_util::PaperFigure1Relation;

// A validity-only JSON parser: accepts exactly the RFC 8259 grammar the
// exporters are supposed to produce. No values are built — the tests only
// need "this byte string is JSON a real parser would load".
class JsonValidator {
 public:
  static bool Valid(std::string_view text) {
    JsonValidator validator(text);
    validator.SkipWs();
    if (!validator.Value()) return false;
    validator.SkipWs();
    return validator.pos_ == text.size();
  }

 private:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default:  return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char escape = text_[pos_];
        if (escape == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(text_[pos_])) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(escape) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    if (!DigitRun()) return false;
    if (Peek() == '.') {
      ++pos_;
      if (!DigitRun()) return false;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!DigitRun()) return false;
    }
    return pos_ > start;
  }

  bool DigitRun() {
    const size_t start = pos_;
    while (pos_ < text_.size() && std::isdigit(text_[pos_])) ++pos_;
    return pos_ > start;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  std::string_view text_;
  size_t pos_ = 0;
};

TEST(JsonValidatorTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonValidator::Valid(R"({"a":[1,2.5,-3e4],"b":"x\n","c":null})"));
  EXPECT_FALSE(JsonValidator::Valid(R"({"a":1,})"));
  EXPECT_FALSE(JsonValidator::Valid(R"({"a":1} extra)"));
  EXPECT_FALSE(JsonValidator::Valid(R"(["unterminated)"));
}

TEST(MetricsRegistryTest, ShardAggregationIsExactUnderEightThreads) {
  constexpr int kThreads = 8;
  constexpr int64_t kIncrements = 100000;
  MetricsRegistry registry(kThreads);

  // A concurrent reader snapshotting while writers run: every snapshot must
  // be untorn (each shard value read atomically), and the final aggregate
  // exact.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    int64_t last_count = 0;
    int64_t last_sum = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const MetricsSnapshot snapshot = registry.Snapshot();
      EXPECT_GE(snapshot.counter(kValidityTests), 0);
      EXPECT_LE(snapshot.counter(kValidityTests), kThreads * kIncrements);
      // Every recorded value is 1, but a snapshot loads each shard's count
      // and sum at different moments, and a reader preempted between the
      // two loads falls any number of records behind, so mid-run they need
      // not agree. Each is an untorn single-writer atomic per shard,
      // though, so neither may ever move backwards between snapshots.
      const HistogramSnapshot h = snapshot.histogram(kProductClasses);
      EXPECT_GE(h.count, last_count);
      EXPECT_GE(h.sum, last_sum);
      EXPECT_LE(h.count, kThreads * kIncrements);
      EXPECT_LE(h.sum, kThreads * kIncrements);
      last_count = h.count;
      last_sum = h.sum;
    }
  });

  std::vector<std::thread> writers;
  for (int shard = 0; shard < kThreads; ++shard) {
    writers.emplace_back([&, shard] {
      for (int64_t i = 0; i < kIncrements; ++i) {
        registry.Add(shard, kValidityTests, 1);
        registry.AddShared(kSpillWrites, 1);
        registry.Record(shard, kProductClasses, 1);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true);
  reader.join();

  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counter(kValidityTests), kThreads * kIncrements);
  EXPECT_EQ(snapshot.counter(kSpillWrites), kThreads * kIncrements);
  EXPECT_EQ(snapshot.histogram(kProductClasses).count, kThreads * kIncrements);
  EXPECT_EQ(snapshot.histogram(kProductClasses).sum, kThreads * kIncrements);
  EXPECT_EQ(registry.CounterTotal(kValidityTests), kThreads * kIncrements);
  EXPECT_EQ(registry.CounterTotals()[kValidityTests], kThreads * kIncrements);
}

TEST(MetricsRegistryTest, GaugesSetAndMax) {
  MetricsRegistry registry(1);
  registry.SetGauge(kCurrentLevel, 3);
  EXPECT_EQ(registry.gauge(kCurrentLevel), 3);
  registry.MaxGauge(kPeakResidentBytes, 100);
  registry.MaxGauge(kPeakResidentBytes, 50);
  EXPECT_EQ(registry.gauge(kPeakResidentBytes), 100);
  registry.MaxGauge(kPeakResidentBytes, 200);
  EXPECT_EQ(registry.gauge(kPeakResidentBytes), 200);
}

TEST(MetricsRegistryTest, HistogramBucketsPercentilesAndMax) {
  MetricsRegistry registry(1);
  registry.Record(0, kProductMemberRows, 0);     // bucket 0
  registry.Record(0, kProductMemberRows, 1);     // bucket 1: [1,2)
  registry.Record(0, kProductMemberRows, 7);     // bucket 3: [4,8)
  registry.Record(0, kProductMemberRows, 1024);  // bucket 11: [1024,2048)

  const HistogramSnapshot h =
      registry.Snapshot().histogram(kProductMemberRows);
  EXPECT_EQ(h.count, 4);
  EXPECT_EQ(h.sum, 1032);
  EXPECT_EQ(h.max, 1024);
  EXPECT_EQ(h.buckets[0], 1);
  EXPECT_EQ(h.buckets[1], 1);
  EXPECT_EQ(h.buckets[3], 1);
  EXPECT_EQ(h.buckets[11], 1);
  EXPECT_DOUBLE_EQ(h.mean(), 1032 / 4.0);
  // The median rank falls in the [1,2) or [4,8) region; the p100 clamp is
  // the observed max, never the bucket's upper bound.
  EXPECT_GE(h.Percentile(50.0), 1.0);
  EXPECT_LE(h.Percentile(50.0), 8.0);
  EXPECT_LE(h.Percentile(100.0), 1024.0);
  EXPECT_EQ(HistogramSnapshot().Percentile(50.0), 0.0);
}

TEST(TracerTest, RingOverflowDropsOldestFirst) {
  Tracer tracer(/*capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    TraceEvent event;
    event.name = "e" + std::to_string(i);
    tracer.Emit(std::move(event));
  }
  EXPECT_EQ(tracer.dropped(), 2);
  const std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "e2");
  EXPECT_EQ(events[3].name, "e5");
}

TEST(TracerTest, SpanGuardEmitsCounterDeltas) {
  Tracer tracer;
  MetricsRegistry registry(2);
  registry.Add(0, kPartitionProducts, 10);  // pre-span counts must not leak
  {
    SpanGuard span(&tracer, "phase", &registry);
    registry.Add(0, kPartitionProducts, 3);
    registry.Add(1, kValidityTests, 5);
    registry.AddShared(kSpillWrites, 2);
    span.AddArg("extra", 7);
  }
  const std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 1u);
  const TraceEvent& event = events[0];
  EXPECT_EQ(event.name, "phase");
  EXPECT_FALSE(event.instant);
  EXPECT_GE(event.dur_us, 0.0);

  const auto arg = [&](std::string_view key) -> int64_t {
    for (const auto& [name, value] : event.args) {
      if (name == key) return value;
    }
    return -1;
  };
  EXPECT_EQ(arg("partition_products"), 3);
  EXPECT_EQ(arg("validity_tests"), 5);
  EXPECT_EQ(arg("spill_writes"), 2);
  EXPECT_EQ(arg("extra"), 7);
  EXPECT_EQ(arg("g3_scans"), -1);  // zero deltas are elided
}

TEST(TracerTest, NullTracerSpanIsNoOp) {
  MetricsRegistry registry(1);
  SpanGuard span(nullptr, "ignored", &registry);
  span.AddArg("extra", 1);  // must not crash
}

TEST(TracerTest, ChromeExportIsWellFormedJson) {
  Tracer tracer;
  TraceEvent complete;
  complete.name = "level 1 \"quoted\"";
  complete.tid = 2;
  complete.start_us = 10.5;
  complete.dur_us = 100.25;
  complete.args = {{"products", 42}};
  tracer.Emit(complete);
  TraceEvent instant;
  instant.name = "heartbeat";
  instant.instant = true;
  tracer.Emit(instant);

  JsonWriter json;
  ExportChromeTrace(tracer.Events(), tracer.dropped(), &json);
  const std::string& text = json.str();
  EXPECT_TRUE(JsonValidator::Valid(text)) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"products\":42"), std::string::npos);
}

TEST(ProgressMonitorTest, FormatLineCarriesRegistryState) {
  MetricsRegistry registry(1);
  registry.SetGauge(kCurrentLevel, 3);
  registry.SetGauge(kLevelNodesTotal, 100);
  registry.SetGauge(kLevelNodesStart, 10);
  registry.Add(0, kNodesProcessed, 50);
  registry.Add(0, kFdsEmitted, 7);
  registry.SetGauge(kResidentBytes, 2 << 20);

  ProgressMonitor monitor(&registry, {});
  const std::string line = monitor.FormatLine("unit-test");
  EXPECT_NE(line.find("(unit-test)"), std::string::npos) << line;
  EXPECT_NE(line.find("level=3"), std::string::npos) << line;
  EXPECT_NE(line.find("nodes=40/100"), std::string::npos) << line;
  EXPECT_NE(line.find("fds=7"), std::string::npos) << line;
  EXPECT_NE(line.find("spilled=0"), std::string::npos) << line;
  EXPECT_EQ(line.find("deadline_left="), std::string::npos) << line;
}

TEST(ProgressMonitorTest, FormatLineShowsDeadline) {
  MetricsRegistry registry(1);
  RunController controller;
  controller.SetDeadlineAfter(std::chrono::seconds(60));
  ProgressMonitor::Options options;
  options.controller = &controller;
  ProgressMonitor monitor(&registry, options);
  EXPECT_NE(monitor.FormatLine("").find("deadline_left="), std::string::npos);
}

TEST(ProgressMonitorTest, StartStopDoesNotHangOrCrash) {
  MetricsRegistry registry(1);
  ProgressMonitor::Options options;
  options.period_seconds = 0.005;
  ProgressMonitor monitor(&registry, options);
  monitor.Start();
  monitor.Start();  // idempotent
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  monitor.EmitNow("mid-run");
  monitor.Stop();
}

TEST(LoggingTest, ParseLogSeverityAcceptsAnyCaseNames) {
  using internal_logging::LogSeverity;
  using internal_logging::ParseLogSeverity;
  LogSeverity severity = LogSeverity::kFatal;
  EXPECT_TRUE(ParseLogSeverity("info", &severity));
  EXPECT_EQ(severity, LogSeverity::kInfo);
  EXPECT_TRUE(ParseLogSeverity("WARNING", &severity));
  EXPECT_EQ(severity, LogSeverity::kWarning);
  EXPECT_TRUE(ParseLogSeverity("Warn", &severity));
  EXPECT_EQ(severity, LogSeverity::kWarning);
  EXPECT_TRUE(ParseLogSeverity("error", &severity));
  EXPECT_EQ(severity, LogSeverity::kError);
  EXPECT_TRUE(ParseLogSeverity("fatal", &severity));
  EXPECT_EQ(severity, LogSeverity::kFatal);
  EXPECT_FALSE(ParseLogSeverity("verbose", &severity));
  EXPECT_FALSE(ParseLogSeverity("", &severity));
}

TEST(LoggingTest, InitLogSeverityFromEnvAppliesAndRestores) {
  using internal_logging::GetMinLogSeverity;
  using internal_logging::InitLogSeverityFromEnv;
  using internal_logging::LogSeverity;
  using internal_logging::SetMinLogSeverity;
  const LogSeverity saved = GetMinLogSeverity();

  ::setenv("TANE_LOG_LEVEL", "error", 1);
  EXPECT_TRUE(InitLogSeverityFromEnv());
  EXPECT_EQ(GetMinLogSeverity(), LogSeverity::kError);

  ::unsetenv("TANE_LOG_LEVEL");
  EXPECT_FALSE(InitLogSeverityFromEnv());
  EXPECT_EQ(GetMinLogSeverity(), LogSeverity::kError);  // left untouched

  ::setenv("TANE_LOG_LEVEL", "bogus", 1);
  EXPECT_FALSE(InitLogSeverityFromEnv());

  ::unsetenv("TANE_LOG_LEVEL");
  SetMinLogSeverity(saved);
}

TEST(DiscoveryObservabilityTest, TracerSeesPhaseSpansAndMetricsMatchStats) {
  const Relation relation = PaperFigure1Relation();
  Tracer tracer;
  TaneConfig config;
  config.num_threads = 2;
  config.tracer = &tracer;
  TANE_ASSERT_OK_AND_ASSIGN(DiscoveryResult result,
                            Tane::Discover(relation, config));

  // The stats fields are views over the registry: both must agree exactly.
  EXPECT_EQ(result.metrics.counter(kValidityTests),
            result.stats.validity_tests);
  EXPECT_EQ(result.metrics.counter(kPartitionProducts),
            result.stats.partition_products);
  EXPECT_EQ(result.metrics.counter(kSetsGenerated), result.stats.sets_generated);
  EXPECT_EQ(result.metrics.counter(kKeysFound), result.stats.keys_found);
  EXPECT_EQ(result.metrics.counter(kFdsEmitted), result.num_fds());
  EXPECT_EQ(result.metrics.gauge(kMaxLevelSize), result.stats.max_level_size);
  EXPECT_GT(result.metrics.histogram(kProductClasses).count, 0);

  bool saw_run = false, saw_level = false, saw_validity = false,
       saw_products = false, saw_prune = false, saw_generate = false;
  for (const TraceEvent& event : tracer.Events()) {
    const std::string phase = event.name.substr(0, event.name.find(' '));
    saw_run |= phase == "run";
    saw_level |= phase == "level";
    saw_validity |= phase == "validity";
    saw_products |= phase == "products";
    saw_prune |= phase == "prune";
    saw_generate |= phase == "generate";
  }
  EXPECT_TRUE(saw_run && saw_level && saw_validity && saw_products &&
              saw_prune && saw_generate);

  // Per-level rows carry the node counts the report mirrors.
  ASSERT_FALSE(result.stats.level_parallel.empty());
  EXPECT_GT(result.stats.level_parallel[0].nodes, 0);
}

TEST(DiscoveryObservabilityTest, OutputIdenticalAcrossThreadCounts) {
  const Relation relation = PaperFigure1Relation();
  TaneConfig serial;
  TANE_ASSERT_OK_AND_ASSIGN(DiscoveryResult baseline,
                            Tane::Discover(relation, serial));
  for (int threads : {2, 8}) {
    Tracer tracer;
    TaneConfig config;
    config.num_threads = threads;
    config.tracer = &tracer;
    TANE_ASSERT_OK_AND_ASSIGN(DiscoveryResult result,
                              Tane::Discover(relation, config));
    EXPECT_EQ(testing_util::FdStrings(result.fds),
              testing_util::FdStrings(baseline.fds));
    EXPECT_EQ(result.keys.size(), baseline.keys.size());
  }
}

TEST(RunReportTest, IsWellFormedAndMirrorsStats) {
  const Relation relation = PaperFigure1Relation();
  TaneConfig config;
  config.num_threads = 2;
  TANE_ASSERT_OK_AND_ASSIGN(DiscoveryResult result,
                            Tane::Discover(relation, config));

  RunReportOptions options;
  options.dataset_path = "figure1.csv";
  options.dataset_fingerprint = "crc32:deadbeef";
  options.dataset_rows = relation.num_rows();
  options.dataset_columns = relation.num_columns();
  options.read_seconds = 0.25;
  options.report_seconds = 0.125;
  options.total_seconds = result.stats.wall_seconds + 0.5;

  JsonWriter json;
  WriteRunReport(config, result, options, &json);
  const std::string& text = json.str();
  EXPECT_TRUE(JsonValidator::Valid(text)) << text;

  const auto contains = [&](const std::string& needle) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  };
  contains("\"schema_version\":5");
  contains("\"fingerprint\":\"crc32:deadbeef\"");
  contains("\"checkpoint\":{");
  contains("\"resumable\":false");
  contains("\"resumed_from_level\":0");
  contains("\"num_fds\":" + std::to_string(result.num_fds()));
  contains("\"validity_tests\":" +
           std::to_string(result.stats.validity_tests));
  contains("\"partition_products\":" +
           std::to_string(result.stats.partition_products));
  contains("\"sets_generated\":" +
           std::to_string(result.stats.sets_generated));
  contains("\"levels\":[");
  contains("\"nodes\":" +
           std::to_string(result.stats.level_parallel[0].nodes));
  // Schema 4: level rows carry wall and worker seconds but no "speedup" — a
  // run cannot know its speedup without a run at another thread count.
  EXPECT_EQ(text.find("\"speedup\""), std::string::npos);
  // Schema 5: no "pooled_bytes" gauge — the driver attaches no buffer pool.
  EXPECT_EQ(text.find("\"pooled_bytes\""), std::string::npos);
  contains("\"histograms\"");
  contains("\"product_classes\"");

  // Schema 3: the hardware-counter block and the tracer ring status are
  // always present — zero-valued under the noop backend, "enabled":false
  // when no tracer was attached — so consumers never branch on shape.
  contains("\"hw\":{");
  contains("\"backend\":\"" +
           std::string(PerfBackendName(PerfCounters::backend())) + "\"");
  contains("\"phase\":\"run\"");
  contains("\"derived\":{");
  contains("\"run_ipc\":");
  contains("\"products_cache_misses_per_row\":");
  contains("\"trace\":{");
  contains("\"enabled\":false");
  contains("\"dropped_events\":0");
}

TEST(PerfCountersTest, NoopBackendReadsZeros) {
  PerfCounters::ForceBackendForTest(PerfBackend::kNoop);
  EXPECT_EQ(PerfCounters::backend(), PerfBackend::kNoop);
  EXPECT_EQ(PerfBackendName(PerfCounters::backend()), "noop");
  EXPECT_EQ(PerfBackendName(PerfBackend::kLinuxPerf), "linux_perf");
  const HwCounters counters = PerfCounters::Read();
  EXPECT_FALSE(counters.any());
  EXPECT_EQ(counters.ipc(), 0.0);
}

TEST(PerfCountersTest, CounterArithmetic) {
  HwCounters after;
  after.cycles = 100;
  after.instructions = 250;
  after.cache_misses = 8;
  HwCounters before;
  before.cycles = 40;
  before.instructions = 50;
  before.cache_misses = 3;

  HwCounters delta = after - before;
  EXPECT_EQ(delta.cycles, 60);
  EXPECT_EQ(delta.instructions, 200);
  EXPECT_EQ(delta.cache_misses, 5);
  EXPECT_TRUE(delta.any());
  EXPECT_DOUBLE_EQ(delta.ipc(), 200.0 / 60.0);

  delta += before;
  EXPECT_EQ(delta.cycles, 100);
  EXPECT_EQ(delta.instructions, 250);
  EXPECT_FALSE(HwCounters().any());
}

TEST(MetricsRegistryTest, HwSpanAggregatesAndSnapshotSortsPhases) {
  MetricsRegistry registry(1);
  HwCounters delta;
  delta.cycles = 10;
  delta.instructions = 25;
  registry.AddHwSpan("validity", delta);
  registry.AddHwSpan("level", delta);
  registry.AddHwSpan("level", delta);

  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.hw_phases.size(), 2u);
  EXPECT_EQ(snapshot.hw_phases[0].phase, "level");  // map order: sorted
  EXPECT_EQ(snapshot.hw_phases[0].spans, 2);
  EXPECT_EQ(snapshot.hw_phases[0].hw.cycles, 20);
  EXPECT_EQ(snapshot.hw_phases[0].hw.instructions, 50);
  EXPECT_EQ(snapshot.hw_phases[1].phase, "validity");
  EXPECT_EQ(snapshot.hw_phases[1].spans, 1);
  EXPECT_EQ(snapshot.hw_backend, PerfBackendName(PerfCounters::backend()));
}

TEST(SpanStackTest, RecordingGatePushPopAndTruncation) {
  SpanStack& stack = SpanStack::Local();
  SpanStack::SetRecording(false);
  stack.Push("invisible");  // recording off: full no-op, no Pop owed
  EXPECT_TRUE(stack.TakeSample().frames.empty());

  SpanStack::SetRecording(true);
  stack.SetLabel("main");
  stack.Push("run");
  stack.Push("level 3");
  const std::string long_name(2 * kSpanFrameChars, 'x');
  stack.Push(long_name.c_str());

  SpanStack::Sample sample = stack.TakeSample();
  EXPECT_FALSE(sample.skipped);
  EXPECT_STREQ(sample.label, "main");
  ASSERT_EQ(sample.frames.size(), 3u);
  EXPECT_EQ(sample.frames[0], "run");
  EXPECT_EQ(sample.frames[1], "level 3");
  EXPECT_EQ(sample.frames[2], std::string(kSpanFrameChars - 1, 'x'));

  stack.Pop();
  stack.Pop();
  stack.Pop();
  EXPECT_TRUE(stack.TakeSample().frames.empty());
  SpanStack::SetRecording(false);
}

TEST(SpanStackTest, DepthOverflowStaysBalanced) {
  SpanStack::SetRecording(true);
  SpanStack& stack = SpanStack::Local();
  for (int i = 0; i < kSpanStackMaxDepth + 4; ++i) stack.Push("deep");
  SpanStack::Sample sample = stack.TakeSample();
  EXPECT_EQ(sample.frames.size(),
            static_cast<size_t>(kSpanStackMaxDepth));
  for (int i = 0; i < kSpanStackMaxDepth + 4; ++i) stack.Pop();
  EXPECT_TRUE(stack.TakeSample().frames.empty());
  SpanStack::SetRecording(false);
}

TEST(SpanStackTest, WorkerDrainsCarryTheCollectiveLabel) {
  // The thread pool pushes the coordinator-set collective label as each
  // participant's drain frame, so samples on workers attribute to the
  // parallel region that fanned them out. Every fn invocation — caller
  // or background worker — must see that frame on its own stack.
  SpanStack::SetRecording(true);
  SpanStack::SetCollectiveLabel("window level-9");
  ThreadPool pool(4);
  std::atomic<int> labeled{0};
  std::atomic<int> sampled{0};
  pool.ParallelFor(64, [&](int, int64_t) {
    const SpanStack::Sample sample = SpanStack::Local().TakeSample();
    for (const std::string& frame : sample.frames) {
      if (frame == "window level-9") {
        labeled.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
    // The thread running this index registered its stack to take the
    // sample above, so the registry holds at least that thread. Checked on
    // every index, not on one worker's: which threads run indices is
    // scheduling-dependent, and under load thieves can drain even the
    // caller's own deque before it runs one.
    if (!SpanStack::SampleAll().empty()) {
      sampled.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(labeled.load(), 64);
  EXPECT_EQ(sampled.load(), 64);
  SpanStack::SetCollectiveLabel("");
  SpanStack::SetRecording(false);
}

TEST(ProfilerTest, SamplesLiveSpansIntoValidFoldedOutput) {
  Profiler profiler;
  profiler.Start(/*hz=*/500);
  EXPECT_TRUE(profiler.running());
  EXPECT_TRUE(SpanStack::recording());

  SpanStack& stack = SpanStack::Local();
  stack.SetLabel("main");
  stack.Push("run");
  stack.Push("unit test phase");
  // Hold the spans open until the sampler has observed this stack at
  // least once (bounded: 500 Hz means one tick every 2 ms).
  const int64_t target = profiler.total_samples() + 2;
  for (int i = 0; i < 2000 && profiler.total_samples() < target; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stack.Pop();
  stack.Pop();
  profiler.Stop();
  EXPECT_FALSE(profiler.running());
  EXPECT_FALSE(SpanStack::recording());
  EXPECT_GE(profiler.total_samples(), target);

  const std::string path =
      ::testing::TempDir() + "/tane_profiler_test.folded";
  ASSERT_TRUE(profiler.WriteFolded(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  bool saw_phase = false;
  while (std::getline(in, line)) {
    ++lines;
    // Folded format: "tane;label;frame;... count" — root always "tane",
    // frames never contain ' ' or ';', count strictly positive.
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string frames = line.substr(0, space);
    EXPECT_EQ(frames.rfind("tane;", 0), 0u) << line;
    EXPECT_GT(std::stoll(line.substr(space + 1)), 0) << line;
    EXPECT_EQ(frames.find(";;"), std::string::npos) << line;
    if (frames.find("unit_test_phase") != std::string::npos) {
      saw_phase = true;
      EXPECT_NE(frames.find("main;run;unit_test_phase"),
                std::string::npos) << line;
    }
  }
  EXPECT_GT(lines, 0);
  EXPECT_TRUE(saw_phase);
  std::filesystem::remove(path);
}

TEST(FlightRecorderTest, GracefulDumpIsValidJsonAndFirstWins) {
  const std::string dir =
      ::testing::TempDir() + "/tane_flightrec_graceful";
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/flightrec.json";
  FlightRecorder::Arm(path, /*rings=*/3);  // creates the parent directory
  FlightRecorder* recorder = FlightRecorder::active();
  ASSERT_NE(recorder, nullptr);
  EXPECT_EQ(recorder->dump_path(), path);
  EXPECT_FALSE(recorder->dumped());

  recorder->Record(0, FlightEventType::kLevel, "level", 2, 40);
  recorder->Record(1, FlightEventType::kStall, "gate", 7, 3);
  // Out-of-range tid clamps to the last ring; over-long labels truncate.
  recorder->Record(99, FlightEventType::kVerdict,
                   "deadline-with-a-very-long-suffix");

  EXPECT_TRUE(recorder->DumpGraceful("deadline"));
  EXPECT_TRUE(recorder->dumped());
  EXPECT_FALSE(recorder->DumpGraceful("cancelled"));  // first dump wins

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_TRUE(JsonValidator::Valid(text)) << text;
  const auto contains = [&](const std::string& needle) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  };
  contains("\"tool\":\"tane-flightrec\"");
  contains("\"schema_version\":1");
  contains("\"reason\":\"deadline\"");
  contains("\"type\":\"level\"");
  contains("\"type\":\"stall\"");
  contains("\"type\":\"verdict\"");
  contains("\"label\":\"gate\"");
  contains("\"a\":7");
  EXPECT_EQ(text.find("cancelled"), std::string::npos) << text;
  EXPECT_EQ(text.find("deadline-with-a-very-long-suffix"),
            std::string::npos)
      << "labels must truncate to the fixed slot width";

  FlightRecorder::Disarm();
  EXPECT_EQ(FlightRecorder::active(), nullptr);
  std::filesystem::remove_all(dir);
}

TEST(FlightRecorderTest, DiscoveryCancelDumpsPostmortem) {
  const std::string dir =
      ::testing::TempDir() + "/tane_flightrec_cancel";
  std::filesystem::remove_all(dir);
  FlightRecorder::Arm(dir + "/flightrec.json", /*rings=*/3);

  RunController controller;
  controller.RequestCancel();
  TaneConfig config;
  config.run_controller = &controller;
  // A pre-cancelled run winds down at the first poll; the verdict latch
  // must still leave a postmortem behind. The discovery status itself is
  // not under test here.
  (void)Tane::Discover(PaperFigure1Relation(), config);

  FlightRecorder* recorder = FlightRecorder::active();
  ASSERT_NE(recorder, nullptr);
  EXPECT_TRUE(recorder->dumped());
  std::ifstream in(dir + "/flightrec.json");
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_TRUE(JsonValidator::Valid(text)) << text;
  EXPECT_NE(text.find("\"reason\":\"cancelled\""), std::string::npos)
      << text;
  EXPECT_NE(text.find("\"type\":\"verdict\""), std::string::npos) << text;

  FlightRecorder::Disarm();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace obs
}  // namespace tane
