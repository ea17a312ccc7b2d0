// Always-on flight recorder: a black box for the serving + admission
// stack.
//
// Unlike the trace collector (opt-in, rich spans, mutex-protected
// rings), the flight recorder is meant to run in *every* configuration
// — including production-shaped benchmark runs — and be read out only
// when something has already gone wrong. That dictates the design:
//
//  * recording is wait-free and allocation-free: each thread owns a
//    fixed ring of fixed-size POD records and is its ring's only
//    writer; a record is a handful of relaxed atomic stores plus one
//    relaxed head increment (bench_obs pins the cost);
//  * readers (dump paths) walk the rings concurrently with writers
//    using relaxed loads. A record being overwritten mid-read can come
//    out torn — mixed fields from two events. That is an accepted
//    trade: a black box favours never perturbing the flight over
//    perfect readback, and torn records are rare (only the ring's
//    oldest slot races) and harmless (the dump is for humans);
//  * `detail` strings must be string literals: the ring stores the
//    pointer bits, never a copy.
//
// Dumps are JSON (schema "bevr.flight.v1"), merged across threads and
// time-sorted. They happen on demand (bevr_serve --flight-dump,
// SIGUSR2) or automatically: set_auto_dump_path arms a one-shot latch
// that contract failures and overload-storm detection fire, so the
// moments before a failure are preserved without anyone asking.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "bevr/obs/metrics.h"  // BEVR_OBS + now_ns()

namespace bevr::obs {

/// What happened. Codes are stable vocabulary, not free text: the dump
/// renders them as fixed uppercase names (flight_code_name) that tests
/// and humans can grep for.
enum class FlightCode : std::uint32_t {
  kMark = 0,          ///< generic annotation (detail says what)
  // Service lifecycle.
  kSubmit,            ///< request accepted into the queue
  kShed,              ///< request rejected for a non-load reason (shutdown)
  kCoalesce,          ///< request piggybacked on an in-flight evaluation
  kEvaluate,          ///< worker started evaluating a batch; a = batch rows
  kRespond,           ///< response delivered on time; a = latency_us
  kDeadlineMiss,      ///< response delivered late; a = latency_us
  kExpire,            ///< request expired before evaluation; a = waited_us
  kOverloaded,        ///< request shed: queue full; a = queue depth
  kStorm,             ///< overload storm detected; a = consecutive count
  // Flow decisions, every policy family (a = flows in service at
  // decision, b = flow index).
  kAdmit,
  kBlock,
  kCounteroffer,
  kCancel,
  kExpireSweep,       ///< calendar sweep retired reservations; a = count
  // Failure hooks.
  kContractFail,      ///< a benchmark/test contract failed
  // Routing decisions, appended so earlier codes keep their values
  // (a = flows in service at decision, b = flow index).
  kRouteAlternate,    ///< call admitted on an alternate (overflow) path
};

/// Fixed uppercase name for a code ("OVERLOADED", "ADMIT", ...).
[[nodiscard]] const char* flight_code_name(FlightCode code) noexcept;

/// One decoded record, as read back out of a ring.
struct FlightRecord {
  std::uint64_t ts_ns = 0;      ///< now_ns() at record time
  std::uint64_t trace_id = 0;   ///< causal link into the trace (0 = none)
  const char* detail = nullptr; ///< static string or nullptr
  double a = 0.0;               ///< code-specific payload
  double b = 0.0;
  FlightCode code = FlightCode::kMark;
  std::uint32_t track = 0;      ///< same track ids as the trace export
};

class FlightRecorder {
 public:
  /// `ring_capacity`: records retained per recording thread.
  explicit FlightRecorder(std::size_t ring_capacity = 1 << 12);

  /// The process-wide recorder. Always recording (that is the point);
  /// BEVR_OBS=0 compiles record() down to nothing.
  [[nodiscard]] static FlightRecorder& global();

  /// Record one event. Wait-free, allocation-free after the calling
  /// thread's first record, never blocks or throws. `detail` must be a
  /// string literal (or otherwise immortal) — the pointer is stored.
  void record(FlightCode code, std::uint64_t trace_id = 0,
              const char* detail = nullptr, double a = 0.0,
              double b = 0.0) noexcept;

  /// Decode every ring, oldest-first per thread, merged and sorted by
  /// timestamp. Safe while writers run (see torn-record caveat above).
  [[nodiscard]] std::vector<FlightRecord> records() const;

  /// Records lost to ring wrap, total across threads.
  [[nodiscard]] std::uint64_t dropped() const;

  /// Dump as "bevr.flight.v1" JSON: schema, dump reason, capture
  /// timestamp, drop count, and the merged records (code names
  /// uppercase, details escaped via json_escape).
  void write_json(std::ostream& out, std::string_view reason) const;

  /// Arm automatic dumping: the next auto_dump() writes the JSON to
  /// `path` (empty disarms). Re-arming resets the once-latch.
  void set_auto_dump_path(std::string path);

  /// Fire the auto-dump latch: writes at most one dump per arming (so
  /// a storm of failures produces the *first* flight, not the last).
  /// Returns true if this call wrote the dump.
  bool auto_dump(const char* reason) noexcept;

  /// Discard all records (rings stay registered).
  void clear();

 private:
  /// One ring slot: plain relaxed-atomic cells so concurrent
  /// read-while-write is data-race-free (if possibly torn).
  struct Slot {
    std::atomic<std::uint64_t> ts_ns{0};
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::uint64_t> detail_bits{0};  ///< const char* bits
    std::atomic<std::uint64_t> a_bits{0};       ///< double bits
    std::atomic<std::uint64_t> b_bits{0};
    std::atomic<std::uint64_t> code_track{0};   ///< code << 32 | track
  };
  struct Ring {
    Ring(std::size_t slot_count, std::uint32_t track_id)
        : slots(std::make_unique<Slot[]>(slot_count)),
          capacity(slot_count),
          track(track_id) {}
    std::unique_ptr<Slot[]> slots;
    std::size_t capacity;
    std::atomic<std::uint64_t> head{0};  ///< total records ever written
    std::uint32_t track;
  };

  [[nodiscard]] Ring& this_thread_ring();

  /// Process-unique id; the per-thread ring cache keys on it (same
  /// stale-cache rationale as TraceCollector::id_).
  std::uint64_t id_;
  std::size_t ring_capacity_;
  mutable std::mutex mutex_;  ///< guards rings_ registration
  std::vector<std::shared_ptr<Ring>> rings_;

  std::mutex dump_mutex_;  ///< guards auto_dump_path_
  std::string auto_dump_path_;
  std::atomic<bool> auto_dump_armed_{false};
};

}  // namespace bevr::obs
