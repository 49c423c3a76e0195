#ifndef TANE_OBS_FLIGHT_RECORDER_H_
#define TANE_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace tane {
namespace obs {

/// What a flight-recorder event describes. Names (FlightEventTypeName) are
/// the strings that appear in flightrec.json.
enum class FlightEventType : uint8_t {
  kSpanBegin = 0,      ///< a tracer span opened (label = span name)
  kSpanEnd,            ///< a tracer span closed (a = duration µs)
  kLevel,              ///< level started (a = level, b = nodes)
  kVerdict,            ///< RunController verdict latched (label = reason)
  kBudget,             ///< memory budget breached (a = resident, b = budget)
  kCheckpointWrite,    ///< snapshot written (a = bytes, b = nodes)
  kCheckpointRestore,  ///< snapshot restored (a = bytes, b = nodes)
  kSpill,              ///< store degraded / spill I/O (a = bytes)
  kCheckFail,          ///< TANE_CHECK failed (dump follows)
  kSignal,             ///< fatal signal received (a = signo)
};

std::string_view FlightEventTypeName(FlightEventType type);

/// A postmortem black box: per-worker lock-free rings of the most recent
/// structured events, dumped to `<dir>/flightrec.json` when a run dies —
/// deadline, cancel, memory-budget breach, TANE_CHECK failure, or a fatal
/// signal. Recording is wait-free for writers (one fetch_add plus relaxed
/// stores, seqlock-published per slot) and cheap enough to leave on for
/// every checkpointed run; the dump path is split in two:
///
///  * DumpGraceful(): normal context — renders into the preallocated
///    buffer and publishes through AtomicWriteFile (failpoint-aware,
///    durable, torn-write safe);
///  * DumpFromSignal(): async-signal-safe — same renderer (fixed buffer,
///    no allocation, no locks), published via raw open/write/fsync/rename.
///
/// First dump wins: the earliest verdict is the root cause, and later
/// writers must not clobber it with wind-down noise.
class FlightRecorder {
 public:
  /// Creates and activates the global recorder: `rings` event rings
  /// (clamped to [1, 32]; pass workers + 1 so non-worker threads share the
  /// last ring), dumping to `dump_path`. Installs the TANE_CHECK fatal
  /// hook. Replaces any previous instance (tests re-arm freely).
  static void Arm(const std::string& dump_path, int rings);

  /// Deactivates and destroys the global recorder (tests).
  static void Disarm();

  /// The live global recorder, or nullptr. Callers must treat the pointer
  /// as valid only while they know Disarm cannot run (the CLI arms once
  /// per process; tests serialize).
  static FlightRecorder* active() {
    return active_ptr().load(std::memory_order_acquire);
  }

  /// Installs handlers for SIGTERM/SIGINT/SIGSEGV/SIGBUS/SIGFPE/SIGABRT
  /// that dump the active recorder and re-raise with default disposition.
  /// CLI-only (a library must not steal its host's handlers).
  static void InstallSignalHandlers();

  /// Appends one event. Wait-free; callable from any thread. `tid` picks
  /// the ring (out-of-range ids share the last ring). `label` is truncated
  /// to 23 chars.
  void Record(int tid, FlightEventType type, std::string_view label,
              int64_t a = 0, int64_t b = 0);

  /// Renders and durably writes the dump. Returns false on I/O failure or
  /// if a dump already happened (first wins).
  bool DumpGraceful(std::string_view reason);

  /// Async-signal-safe dump; `signo` is recorded in the header.
  void DumpFromSignal(int signo);

  /// Microseconds since Arm (signal-safe on POSIX).
  int64_t NowUs() const;

  bool dumped() const { return dumped_.load(std::memory_order_acquire); }
  const std::string& dump_path() const { return dump_path_str_; }

  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

 private:
  FlightRecorder(const std::string& dump_path, int rings);

  static std::atomic<FlightRecorder*>& active_ptr();

  /// Renders the full JSON dump into buffer_; returns rendered size.
  size_t Render(std::string_view reason, int signo);
  bool ClaimDump() {
    bool expected = false;
    return dumped_.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire);
  }

  struct Slot;
  struct Ring;

  int rings_count_;
  std::unique_ptr<Ring[]> rings_;
  // One-shot dump latch (CAS in ClaimDump); the slot seqlock protocol
  // lives with the Slot definition in the .cc.
  // tane-lint: allow(naked-atomic)
  std::atomic<bool> dumped_{false};

  std::string dump_path_str_;
  char dump_path_[512];
  char tmp_path_[512];
  int64_t arm_ns_ = 0;  ///< CLOCK_MONOTONIC at Arm

  // Preallocated at Arm so signal-context rendering never allocates.
  size_t buffer_capacity_ = 0;
  std::unique_ptr<char[]> buffer_;
  struct SortEntry {
    int64_t t_us;
    int ring;
    int slot;
  };
  std::unique_ptr<SortEntry[]> sort_scratch_;
};

}  // namespace obs
}  // namespace tane

#endif  // TANE_OBS_FLIGHT_RECORDER_H_
