#include "bevr/obs/flight_recorder.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bevr/obs/json_text.h"
#include "bevr/obs/trace.h"

namespace bevr::obs {

namespace {

std::uint64_t next_recorder_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

constexpr std::uint32_t kUnnamedTrackBase = 1000;

struct RingCache {
  std::uint64_t recorder_id = 0;
  void* ring = nullptr;  // borrowed; rings_ keeps it alive for process life
};

RingCache& this_thread_cache() {
  thread_local RingCache cache;
  return cache;
}

}  // namespace

const char* flight_code_name(FlightCode code) noexcept {
  switch (code) {
    case FlightCode::kMark: return "MARK";
    case FlightCode::kSubmit: return "SUBMIT";
    case FlightCode::kShed: return "SHED";
    case FlightCode::kCoalesce: return "COALESCE";
    case FlightCode::kEvaluate: return "EVALUATE";
    case FlightCode::kRespond: return "RESPOND";
    case FlightCode::kDeadlineMiss: return "DEADLINE_MISS";
    case FlightCode::kExpire: return "EXPIRE";
    case FlightCode::kOverloaded: return "OVERLOADED";
    case FlightCode::kStorm: return "STORM";
    case FlightCode::kAdmit: return "ADMIT";
    case FlightCode::kBlock: return "BLOCK";
    case FlightCode::kCounteroffer: return "COUNTEROFFER";
    case FlightCode::kCancel: return "CANCEL";
    case FlightCode::kExpireSweep: return "EXPIRE_SWEEP";
    case FlightCode::kContractFail: return "CONTRACT_FAIL";
    case FlightCode::kRouteAlternate: return "ROUTE_ALT";
  }
  return "UNKNOWN";
}

FlightRecorder::FlightRecorder(std::size_t ring_capacity)
    : id_(next_recorder_id()),
      ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity) {}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

FlightRecorder::Ring& FlightRecorder::this_thread_ring() {
  RingCache& cache = this_thread_cache();
  if (cache.recorder_id == id_ && cache.ring != nullptr) {
    return *static_cast<Ring*>(cache.ring);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint32_t track = TraceCollector::thread_track_id(
      kUnnamedTrackBase + static_cast<std::uint32_t>(rings_.size()));
  auto ring = std::make_shared<Ring>(ring_capacity_, track);
  rings_.push_back(ring);
  cache.recorder_id = id_;
  cache.ring = ring.get();
  return *ring;
}

void FlightRecorder::record(FlightCode code, std::uint64_t trace_id,
                            const char* detail, double a, double b) noexcept {
#if BEVR_OBS
  Ring& ring = this_thread_ring();
  // Single writer per ring: claim the slot with a relaxed head bump,
  // then fill the cells. A concurrent reader may see a half-filled
  // slot; that torn record is the documented trade for wait-freedom.
  const std::uint64_t sequence = ring.head.load(std::memory_order_relaxed);
  Slot& slot = ring.slots[sequence % ring.capacity];
  slot.ts_ns.store(now_ns(), std::memory_order_relaxed);
  slot.trace_id.store(trace_id, std::memory_order_relaxed);
  slot.detail_bits.store(
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(detail)),
      std::memory_order_relaxed);
  slot.a_bits.store(std::bit_cast<std::uint64_t>(a),
                    std::memory_order_relaxed);
  slot.b_bits.store(std::bit_cast<std::uint64_t>(b),
                    std::memory_order_relaxed);
  slot.code_track.store(
      (static_cast<std::uint64_t>(code) << 32) | ring.track,
      std::memory_order_relaxed);
  ring.head.store(sequence + 1, std::memory_order_relaxed);
#else
  (void)code;
  (void)trace_id;
  (void)detail;
  (void)a;
  (void)b;
#endif
}

std::vector<FlightRecord> FlightRecorder::records() const {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    rings = rings_;
  }
  std::vector<FlightRecord> merged;
  for (const auto& ring : rings) {
    const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
    const std::uint64_t count = std::min<std::uint64_t>(head, ring->capacity);
    const std::uint64_t first = head - count;
    for (std::uint64_t sequence = first; sequence < head; ++sequence) {
      const Slot& slot = ring->slots[sequence % ring->capacity];
      FlightRecord record;
      record.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
      record.trace_id = slot.trace_id.load(std::memory_order_relaxed);
      record.detail = reinterpret_cast<const char*>(
          static_cast<std::uintptr_t>(
              slot.detail_bits.load(std::memory_order_relaxed)));
      record.a = std::bit_cast<double>(
          slot.a_bits.load(std::memory_order_relaxed));
      record.b = std::bit_cast<double>(
          slot.b_bits.load(std::memory_order_relaxed));
      const std::uint64_t code_track =
          slot.code_track.load(std::memory_order_relaxed);
      record.code = static_cast<FlightCode>(code_track >> 32);
      record.track = static_cast<std::uint32_t>(code_track);
      merged.push_back(record);
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.ts_ns < b.ts_ns;
            });
  return merged;
}

std::uint64_t FlightRecorder::dropped() const {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    rings = rings_;
  }
  std::uint64_t total = 0;
  for (const auto& ring : rings) {
    const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
    if (head > ring->capacity) total += head - ring->capacity;
  }
  return total;
}

void FlightRecorder::write_json(std::ostream& out,
                                std::string_view reason) const {
  out << "{\"schema\":\"bevr.flight.v1\",\"reason\":\""
      << json_escape(reason) << "\",\"captured_ns\":" << now_ns()
      << ",\"dropped\":" << dropped() << ",\"records\":[";
  bool first = true;
  for (const FlightRecord& record : records()) {
    if (!first) out << ",";
    first = false;
    out << "{\"ts_ns\":" << record.ts_ns << ",\"code\":\""
        << flight_code_name(record.code) << "\",\"tid\":" << record.track;
    if (record.trace_id != 0) {
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "0x%016" PRIx64, record.trace_id);
      out << ",\"trace\":\"" << buffer << "\"";
    }
    if (record.detail != nullptr) {
      out << ",\"detail\":\"" << json_escape(record.detail) << "\"";
    }
    if (record.a != 0.0 || record.b != 0.0) {
      // JSON has no nan/inf literals; a torn or hostile payload must
      // not invalidate the whole dump, so non-finite becomes null.
      const auto emit = [&out](const char* key, double value) {
        if (std::isfinite(value)) {
          char buffer[40];
          std::snprintf(buffer, sizeof buffer, "%.17g", value);
          out << ",\"" << key << "\":" << buffer;
        } else {
          out << ",\"" << key << "\":null";
        }
      };
      emit("a", record.a);
      emit("b", record.b);
    }
    out << "}";
  }
  out << "]}\n";
  out.flush();
}

void FlightRecorder::set_auto_dump_path(std::string path) {
  bool armed = false;
  {
    const std::lock_guard<std::mutex> lock(dump_mutex_);
    auto_dump_path_ = std::move(path);
    armed = !auto_dump_path_.empty();
  }
  auto_dump_armed_.store(armed, std::memory_order_release);
}

bool FlightRecorder::auto_dump(const char* reason) noexcept {
  // One-shot latch: the first failure wins, later ones are no-ops
  // until re-armed, so the dump shows the flight *into* the first
  // failure rather than the aftermath of the last.
  bool expected = true;
  if (!auto_dump_armed_.compare_exchange_strong(expected, false,
                                                std::memory_order_acq_rel)) {
    return false;
  }
  try {
    std::string path;
    {
      const std::lock_guard<std::mutex> lock(dump_mutex_);
      path = auto_dump_path_;
    }
    if (path.empty()) return false;
    std::ofstream out(path);
    if (!out) return false;
    write_json(out, reason != nullptr ? reason : "auto");
    return true;
  } catch (...) {
    return false;  // a black box must never take the plane down with it
  }
}

void FlightRecorder::clear() {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    rings = rings_;
  }
  for (const auto& ring : rings) {
    ring->head.store(0, std::memory_order_relaxed);
  }
}

}  // namespace bevr::obs
