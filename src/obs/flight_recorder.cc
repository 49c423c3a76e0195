#include "obs/flight_recorder.h"

// tane-atomics: seqlock(seq)
// Each ring slot is published under its own per-slot seqlock: `seq` is 0
// while a writer owns the slot and (event sequence + 1) once the payload
// is complete. Readers (Render, possibly inside a signal handler) copy
// the payload between two reads of `seq` and drop the slot on mismatch.

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <memory>

#if !defined(_WIN32)
#include <time.h>
#include <unistd.h>
#endif

#include "util/checkpoint.h"
#include "util/logging.h"
#include "util/sigsafe.h"

namespace tane {
namespace obs {

namespace {

constexpr int kRingSlots = 256;
constexpr int kLabelChars = 24;
constexpr int kLabelWords = kLabelChars / 8;
constexpr int kMaxRings = 32;

int64_t MonotonicNs() {
#if defined(_WIN32)
  return 0;
#else
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
#endif
}

void FatalHookTrampoline() {
  FlightRecorder* recorder = FlightRecorder::active();
  if (recorder == nullptr) return;
  recorder->Record(-1, FlightEventType::kCheckFail, "check_fail");
  recorder->DumpGraceful("check_fail");
}

void FatalSignalHandler(int signo) {
  FlightRecorder* recorder = FlightRecorder::active();
  if (recorder != nullptr) recorder->DumpFromSignal(signo);
  signal(signo, SIG_DFL);
  raise(signo);
}

}  // namespace

std::string_view FlightEventTypeName(FlightEventType type) {
  switch (type) {
    case FlightEventType::kSpanBegin:         return "span_begin";
    case FlightEventType::kSpanEnd:           return "span_end";
    case FlightEventType::kLevel:             return "level";
    case FlightEventType::kVerdict:           return "verdict";
    case FlightEventType::kBudget:            return "budget";
    case FlightEventType::kCheckpointWrite:   return "checkpoint_write";
    case FlightEventType::kCheckpointRestore: return "checkpoint_restore";
    case FlightEventType::kSpill:             return "spill";
    case FlightEventType::kCheckFail:         return "check_fail";
    case FlightEventType::kSignal:            return "signal";
  }
  return "unknown";
}

/// One event slot. `seq` doubles as the publication word: writers store the
/// 1-based sequence number with release after filling the payload; the dump
/// reader accepts a slot only when `seq` reads the same (nonzero) value
/// before and after copying the payload — a torn slot (overwritten while
/// being read) is skipped, never emitted garbled.
struct FlightRecorder::Slot {
  std::atomic<uint64_t> seq{0};
  std::atomic<int64_t> t_us{0};
  std::atomic<int64_t> a{0};
  std::atomic<int64_t> b{0};
  std::atomic<uint32_t> meta{0};  ///< type | tid << 8
  std::atomic<uint64_t> label[kLabelWords] = {};
};

struct FlightRecorder::Ring {
  std::atomic<uint64_t> next{0};
  Slot slots[kRingSlots];
};

std::atomic<FlightRecorder*>& FlightRecorder::active_ptr() {
  // constinit: the signal path reads this; a guarded magic static would
  // take a lock on first use inside the handler.
  static constinit std::atomic<FlightRecorder*> ptr{nullptr};
  return ptr;
}

FlightRecorder::FlightRecorder(const std::string& dump_path, int rings)
    : rings_count_(std::clamp(rings, 1, kMaxRings)),
      rings_(std::make_unique<Ring[]>(
          static_cast<size_t>(std::clamp(rings, 1, kMaxRings)))),
      dump_path_str_(dump_path),
      arm_ns_(MonotonicNs()) {
  std::memset(dump_path_, 0, sizeof(dump_path_));
  std::memset(tmp_path_, 0, sizeof(tmp_path_));
  std::strncpy(dump_path_, dump_path.c_str(), sizeof(dump_path_) - 1);
  const std::string tmp = dump_path + ".sigtmp";
  std::strncpy(tmp_path_, tmp.c_str(), sizeof(tmp_path_) - 1);
  const size_t max_events =
      static_cast<size_t>(rings_count_) * kRingSlots;
  // 320 bytes bounds the longest possible event line (worst-case escaped
  // label); 4 KiB covers the header, so truncation is a can't-happen that
  // the renderer still survives (it drops whole trailing events).
  buffer_capacity_ = 4096 + max_events * 320;
  buffer_ = std::make_unique<char[]>(buffer_capacity_);
  sort_scratch_ = std::make_unique<SortEntry[]>(max_events);
}

FlightRecorder::~FlightRecorder() = default;

void FlightRecorder::Arm(const std::string& dump_path, int rings) {
  Disarm();
  // The dump directory must exist *now*: the first dump may fire before
  // anything else touches it (a deadline can expire before the first
  // checkpoint creates the directory), and the signal path cannot mkdir.
  std::error_code ec;
  const std::filesystem::path parent =
      std::filesystem::path(dump_path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  // Owned by the global atomic slot; Disarm() deletes it. A raw pointer
  // because signal handlers must be able to load it without touching any
  // smart-pointer machinery. tane-lint: allow(naked-new)
  active_ptr().store(new FlightRecorder(dump_path, rings),
                     std::memory_order_release);
  internal_logging::SetFatalHook(&FatalHookTrampoline);
}

void FlightRecorder::Disarm() {
  FlightRecorder* recorder =
      active_ptr().exchange(nullptr, std::memory_order_acq_rel);
  if (recorder != nullptr) {
    internal_logging::SetFatalHook(nullptr);
    delete recorder;
  }
}

void FlightRecorder::InstallSignalHandlers() {
#if !defined(_WIN32)
  const int signals[] = {SIGTERM, SIGINT, SIGSEGV, SIGBUS, SIGFPE, SIGABRT};
  for (int signo : signals) {
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = &FatalSignalHandler;
    sigemptyset(&action.sa_mask);
    // SA_RESETHAND would also work, but the handler resets explicitly so
    // the re-raise path is identical on every signal.
    sigaction(signo, &action, nullptr);
  }
#endif
}

int64_t FlightRecorder::NowUs() const {
  return (MonotonicNs() - arm_ns_) / 1000;
}

void FlightRecorder::Record(int tid, FlightEventType type,
                            std::string_view label, int64_t a, int64_t b) {
  const int ring_index =
      tid >= 0 && tid < rings_count_ - 1 ? tid : rings_count_ - 1;
  Ring& ring = rings_[ring_index];
  // fetch_add makes the ring multi-writer safe (non-worker threads share
  // the last ring); each writer owns its slot until the next wraparound,
  // kRingSlots events later — far longer than one Record call.
  const uint64_t seq = ring.next.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring.slots[seq % kRingSlots];
  // Invalidate while writing. acq_rel RMW, not a release store: release
  // only orders the stores *before* it, so the payload stores below could
  // be hoisted above a plain store and land in a slot readers still see
  // as valid.
  slot.seq.exchange(0, std::memory_order_acq_rel);
  slot.t_us.store(NowUs(), std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.meta.store(static_cast<uint32_t>(type) |
                      (static_cast<uint32_t>(tid & 0xffff) << 8),
                  std::memory_order_relaxed);
  char padded[kLabelChars];
  std::memset(padded, 0, sizeof(padded));
  const size_t n = std::min(label.size(), size_t{kLabelChars - 1});
  std::memcpy(padded, label.data(), n);
  for (int w = 0; w < kLabelWords; ++w) {
    uint64_t word;
    std::memcpy(&word, padded + w * 8, 8);
    slot.label[w].store(word, std::memory_order_relaxed);
  }
  slot.seq.store(seq + 1, std::memory_order_release);  // publish (1-based)
}

size_t FlightRecorder::Render(std::string_view reason, int signo) {
  // 64 bytes of hard headroom keep the closing "],\"truncated\":...}" out
  // of the writer's reach even if the event loop rolled back at capacity.
  SigsafeWriter out(buffer_.get(), buffer_capacity_ - 64);
  out.Append("{\"schema_version\":1,\"tool\":\"tane-flightrec\",\"reason\":\"");
  out.AppendJsonEscaped(reason.data(), reason.size());
  out.Append("\",\"signal\":");
  out.AppendInt(signo);
  out.Append(",\"elapsed_us\":");
  out.AppendInt(NowUs());
  out.Append(",\"rings\":");
  out.AppendInt(rings_count_);
  out.Append(",\"events\":[");

  // Collect every published slot into the preallocated scratch, then order
  // by timestamp so the dump reads as one chronological story.
  size_t count = 0;
  for (int r = 0; r < rings_count_; ++r) {
    const Ring& ring = rings_[r];
    const uint64_t written = ring.next.load(std::memory_order_acquire);
    const int live = written < kRingSlots ? static_cast<int>(written)
                                          : kRingSlots;
    for (int s = 0; s < live; ++s) {
      if (ring.slots[s].seq.load(std::memory_order_acquire) == 0) continue;
      sort_scratch_[count++] = SortEntry{
          ring.slots[s].t_us.load(std::memory_order_relaxed), r, s};
    }
  }
  // Shell sort: in-place, allocation-free, loop-only — safe in signal
  // context where std::sort's introspection depth is fine but heap use
  // (none, but guaranteed here) must be provably absent.
  for (size_t gap = count / 2; gap > 0; gap /= 2) {
    for (size_t i = gap; i < count; ++i) {
      const SortEntry key = sort_scratch_[i];
      size_t j = i;
      while (j >= gap && sort_scratch_[j - gap].t_us > key.t_us) {
        sort_scratch_[j] = sort_scratch_[j - gap];
        j -= gap;
      }
      sort_scratch_[j] = key;
    }
  }

  bool first = true;
  bool events_dropped = false;
  for (size_t i = 0; i < count; ++i) {
    const size_t mark = out.size();
    const Slot& slot =
        rings_[sort_scratch_[i].ring].slots[sort_scratch_[i].slot];
    // Seqlock read: copy under a stable nonzero seq or skip the slot.
    const uint64_t seq_before = slot.seq.load(std::memory_order_acquire);
    if (seq_before == 0) continue;
    const int64_t t_us = slot.t_us.load(std::memory_order_relaxed);
    const int64_t a = slot.a.load(std::memory_order_relaxed);
    const int64_t b = slot.b.load(std::memory_order_relaxed);
    const uint32_t meta = slot.meta.load(std::memory_order_relaxed);
    char label[kLabelChars];
    for (int w = 0; w < kLabelWords; ++w) {
      const uint64_t word = slot.label[w].load(std::memory_order_relaxed);
      std::memcpy(label + w * 8, &word, 8);
    }
    label[kLabelChars - 1] = '\0';
    // The fence, not the acquire on the re-read, is what orders the
    // relaxed payload loads above: an acquire load only orders the
    // accesses that come *after* it.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != seq_before) continue;

    if (!first) out.AppendChar(',');
    first = false;
    out.Append("{\"seq\":");
    out.AppendInt(static_cast<int64_t>(seq_before - 1));
    out.Append(",\"t_us\":");
    out.AppendInt(t_us);
    out.Append(",\"tid\":");
    // Sign-extend the 16-bit tid field (tid -1 = non-worker thread).
    out.AppendInt(static_cast<int16_t>((meta >> 8) & 0xffff));
    out.Append(",\"type\":\"");
    const FlightEventType type = static_cast<FlightEventType>(meta & 0xff);
    const std::string_view type_name = FlightEventTypeName(type);
    out.Append(type_name.data(), type_name.size());
    out.Append("\",\"label\":\"");
    out.AppendJsonEscaped(label, kLabelChars);
    out.Append("\",\"a\":");
    out.AppendInt(a);
    out.Append(",\"b\":");
    out.AppendInt(b);
    out.Append("}");
    if (out.truncated()) {
      // Drop the half-written event and stop; the closing tokens below
      // always fit in the headroom reserved at construction.
      out.ResetTo(mark);  // mark precedes this event's separator comma
      events_dropped = true;
      break;
    }
  }
  out.Append("],\"truncated\":");
  out.Append(events_dropped ? "true" : "false");
  out.Append("}\n");
  return out.size();
}

bool FlightRecorder::DumpGraceful(std::string_view reason) {
  if (!ClaimDump()) return false;
  const size_t size = Render(reason, /*signo=*/0);
  return AtomicWriteFile(dump_path_str_,
                         std::string(buffer_.get(), size))
      .ok();
}

void FlightRecorder::DumpFromSignal(int signo) {
  if (!ClaimDump()) return;
  const size_t size = Render("signal", signo);
  SigsafeWriteFile(dump_path_, tmp_path_, buffer_.get(), size);
}

}  // namespace obs
}  // namespace tane
