// Scoped trace spans with per-thread ring buffers and Chrome
// trace-event export, plus causal request tracing.
//
// BEVR_TRACE_SPAN("runner/task") drops an RAII probe into a scope;
// when the global TraceCollector is enabled, the span's begin/end
// timestamps land in the recording thread's ring buffer as one
// complete ("ph":"X") event. Buffers are fixed-capacity rings: a run
// that out-produces them overwrites its oldest spans and counts the
// drops, so tracing can never grow memory without bound or stall the
// traced code. Export renders the merged, time-sorted events as
// Chrome trace-event JSON — loadable directly in chrome://tracing and
// Perfetto (ui.perfetto.dev).
//
// Causality: an event may carry a TraceContext (trace/span/parent ids,
// deterministic — see trace_context.h) and flow flags. A flow-out
// event starts a Perfetto flow arrow keyed by the trace id; a flow-in
// event terminates one on its enclosing slice. That is how the service
// renders coalescing fan-in: N submit spans (each flow-out on its own
// trace id) arrow into the single evaluation span that served them
// (one flow-in per waiter recorded inside it).
//
// Tracks: threads can claim a stable track id and a display name
// (set_thread_track); the export emits process/thread-name metadata so
// traces open in Perfetto with labeled, deterministically-ordered
// tracks instead of bare registration-order tids.
//
// Costs: a span on a disabled collector is one relaxed bool load and
// a branch (bench_obs asserts it is noise); an enabled span is two
// steady_clock reads plus an uncontended per-thread mutex push.
// Span names must be string literals (or otherwise outlive the
// collector): buffers store the pointer, never a copy.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "bevr/obs/metrics.h"  // BEVR_OBS + now_ns()
#include "bevr/obs/trace_context.h"

namespace bevr::obs {

/// One recorded event, timestamps from now_ns()'s epoch. POD: rings
/// copy these around, so no members may own memory.
struct TraceEvent {
  /// Bit flags for `flags`.
  static constexpr std::uint8_t kInstant = 1;   ///< point event, end unused
  static constexpr std::uint8_t kFlowOut = 2;   ///< starts flow `trace_id`
  static constexpr std::uint8_t kFlowIn = 4;    ///< ends flow `trace_id` here
  static constexpr std::uint8_t kHasValue = 8;  ///< `value` is meaningful

  const char* name = nullptr;  ///< static-lifetime string
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t trace_id = 0;        ///< 0 = no causal context
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  double value = 0.0;                ///< free numeric payload (kHasValue)
  std::uint32_t tid = 0;             ///< track id (filled at record time)
  std::uint8_t flags = 0;
};

class TraceCollector {
 public:
  /// `buffer_capacity`: events retained per recording thread.
  explicit TraceCollector(std::size_t buffer_capacity = 1 << 16);

  /// The process-wide collector BEVR_TRACE_SPAN records into.
  /// Disabled by default (tracing is opt-in, e.g. bevr_run --trace-out).
  [[nodiscard]] static TraceCollector& global();

  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
#if BEVR_OBS
    return enabled_.load(std::memory_order_relaxed);
#else
    return false;
#endif
  }

  /// Record one completed span into the calling thread's buffer.
  void record(const char* name, std::uint64_t begin_ns,
              std::uint64_t end_ns);

  /// Record a fully-populated event (causal ids, flow flags, value).
  /// The event's tid is overwritten with the calling thread's track.
  void record(TraceEvent event);

  /// Point-in-time event ("ph":"i") with optional causal context; a
  /// flow-in instant recorded inside a span attaches its arrow to that
  /// span. No-op when disabled.
  void record_instant(const char* name, const TraceContext& context = {},
                      std::uint8_t flow_flags = 0);

  /// Claim this thread's display name and stable track id for every
  /// future event it records into any collector. Call once near thread
  /// start (pool/service workers do); events recorded *before* the
  /// claim keep the registration-order fallback track. Registration-
  /// cost path (allocates); never call per-event.
  static void set_thread_track(std::string name, std::uint32_t track);

  /// The track id this thread claimed via set_thread_track, or
  /// `fallback` if it never claimed one. The flight recorder uses this
  /// so its records carry the same track ids as the trace export.
  [[nodiscard]] static std::uint32_t thread_track_id(
      std::uint32_t fallback) noexcept;

  /// Merged events from every thread buffer, sorted by begin time.
  /// Meant to run after the traced activity quiesces (each buffer is
  /// locked only long enough to copy it out).
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Spans lost to ring overwrite, total across threads.
  [[nodiscard]] std::uint64_t dropped() const;

  /// Chrome trace-event JSON ({"traceEvents":[...]}): process/thread
  /// name metadata, "X" complete events and "i" instants with
  /// microsecond timestamps, causal ids as args, and "s"/"f" flow
  /// records for the flow-flagged events.
  void write_chrome_trace(std::ostream& out) const;

  /// Discard all recorded events (buffers stay registered).
  void clear();

 private:
  struct Buffer {
    Buffer(std::size_t ring_capacity, std::uint32_t track_id,
           std::string track_name)
        : capacity(ring_capacity), tid(track_id), name(std::move(track_name)) {}
    mutable std::mutex mutex;
    /// Grows on demand and becomes a ring once size == capacity; not
    /// reserved up front, because a short-lived worker thread records
    /// a handful of spans and a full reservation is 4 MB per thread.
    std::vector<TraceEvent> events;
    std::size_t capacity;
    std::size_t next = 0;      ///< ring write position
    std::uint64_t dropped = 0;
    std::uint32_t tid;
    std::string name;  ///< thread display name ("" = unnamed)
  };

  [[nodiscard]] Buffer& this_thread_buffer();

  std::atomic<bool> enabled_{false};
  /// Process-unique: the per-thread buffer cache keys on this rather
  /// than the collector's address, so a new collector reusing a dead
  /// one's storage (same stack slot in tests) can never hit a stale
  /// cache entry.
  std::uint64_t id_;
  std::size_t buffer_capacity_;
  mutable std::mutex mutex_;  ///< guards buffers_ registration
  std::vector<std::shared_ptr<Buffer>> buffers_;
};

/// RAII span: snapshots the clock at construction when the collector
/// is enabled, records the complete event at destruction. Enablement
/// is latched at entry so a span straddling a set_enabled(false) still
/// records coherently. The optional TraceContext and flow flags ride
/// along into the recorded event.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name,
                     TraceCollector& collector = TraceCollector::global())
      : TraceSpan(name, TraceContext{}, 0, collector) {}

  TraceSpan(const char* name, const TraceContext& context,
            std::uint8_t flow_flags = 0,
            TraceCollector& collector = TraceCollector::global())
      : collector_(collector.enabled() ? &collector : nullptr),
        name_(name),
        context_(context),
        flow_flags_(flow_flags),
        begin_ns_(collector_ != nullptr ? now_ns() : 0) {}

  ~TraceSpan() {
    if (collector_ == nullptr) return;
    TraceEvent event;
    event.name = name_;
    event.begin_ns = begin_ns_;
    event.end_ns = now_ns();
    event.trace_id = context_.trace_id;
    event.span_id = context_.span_id;
    event.parent_span_id = context_.parent_span_id;
    event.flags = flow_flags_;
    collector_->record(event);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceCollector* collector_;
  const char* name_;
  TraceContext context_;
  std::uint8_t flow_flags_;
  std::uint64_t begin_ns_;
};

#if BEVR_OBS
#define BEVR_OBS_CONCAT_IMPL(a, b) a##b
#define BEVR_OBS_CONCAT(a, b) BEVR_OBS_CONCAT_IMPL(a, b)
/// Trace the enclosing scope as one complete event named `name`
/// (a string literal; the collector stores the pointer).
#define BEVR_TRACE_SPAN(name) \
  ::bevr::obs::TraceSpan BEVR_OBS_CONCAT(bevr_trace_span_, __LINE__)(name)
/// Same, with a causal TraceContext attached.
#define BEVR_TRACE_SPAN_CTX(name, context)                              \
  ::bevr::obs::TraceSpan BEVR_OBS_CONCAT(bevr_trace_span_, __LINE__)(   \
      name, context)
#else
#define BEVR_TRACE_SPAN(name) \
  do {                        \
  } while (false)
#define BEVR_TRACE_SPAN_CTX(name, context) \
  do {                                     \
  } while (false)
#endif

}  // namespace bevr::obs
