// In-process concurrent evaluation service over the kernels/runner
// stack: the "front door" the compute layers below it never had.
//
// Architecture (one Server):
//
//   submit() ──► admission ──► bounded FIFO of *tickets* ──► workers
//                 │  │                │
//                 │  │                └─ coalescing: an identical query
//                 │  │                   (same batch key, capacity, Δ
//                 │  │                   flag) already pending attaches
//                 │  │                   as an extra waiter instead of
//                 │  │                   a new ticket
//                 │  └─ queue full → kOverloaded, immediately
//                 └─ deadline already passed → kDeadlineExceeded
//
// A worker claims the front ticket plus every queued ticket sharing
// its batch key (up to max_batch), evaluates all their capacities in
// one SweepEvaluator::evaluate_grid call over the sorted batch, and
// fans each row out to that ticket's waiters. Waiters whose deadline
// passed while queued resolve kDeadlineExceeded without costing any
// evaluation. Results are bit-identical to direct runner evaluation —
// the service changes scheduling, never values.
//
// Every submitted request resolves exactly once with kOk, kOverloaded
// or kDeadlineExceeded; shutdown drains the queue before joining, so
// no admitted request is ever lost.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <atomic>

#include "bevr/obs/metrics.h"
#include "bevr/obs/slo.h"
#include "bevr/obs/trace_context.h"
#include "bevr/obs/window.h"
#include "bevr/runner/memo_cache.h"
#include "bevr/runner/scenario.h"
#include "bevr/service/request.h"

namespace bevr::service {

class Server {
 public:
  struct Options {
    /// Worker threads; 0 = hardware concurrency (at least 1).
    unsigned workers = 2;
    /// Bound on *distinct pending evaluations* (tickets). Coalesced
    /// waiters ride free — that is the point of coalescing.
    std::size_t queue_capacity = 256;
    /// Max rows per shared evaluate_grid call.
    std::size_t max_batch = 64;
    /// Memo shared across every scenario this server builds (λ-
    /// calibrations, point memos). Created internally when null.
    std::shared_ptr<runner::MemoCache> cache;
    /// Scenario namespace; the built-in paper registry when null. The
    /// pointee must outlive the server.
    const runner::ScenarioRegistry* registry = nullptr;
    /// Start with workers gated: requests queue but are not claimed
    /// until resume(). For deterministic tests of queue-state paths
    /// (coalescing, overflow, in-queue expiry).
    bool paused = false;
    /// Seed for deriving per-request trace ids (TraceContext::derive):
    /// same seed + same submit order = byte-identical trace ids.
    std::uint64_t trace_seed = 0;
    /// Consecutive overload rejections that constitute an overload
    /// storm: crossing it records a STORM flight event and fires the
    /// flight recorder's auto-dump latch. 0 disables detection.
    std::size_t overload_storm_threshold = 0;
    /// Required good fractions for the SLO trackers: deadline = the
    /// fraction of resolved requests that must meet their deadline,
    /// admission = the fraction of submits that must not be shed.
    double deadline_slo_target = 0.99;
    double admission_slo_target = 0.95;
  };

  explicit Server(Options options);
  /// Drains and joins (shutdown()).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admit one request. Returns a future that is always eventually
  /// resolved (kOk / kOverloaded / kDeadlineExceeded) — never
  /// abandoned. Throws std::invalid_argument, in the caller's thread
  /// and before anything is queued, for a scenario name the registry
  /// does not know or a capacity that is not finite and positive.
  [[nodiscard]] std::future<Response> submit(const Query& query,
                                             Deadline deadline = kNoDeadline);

  /// Release a paused server's workers.
  void resume();

  /// Stop admitting (further submits resolve kOverloaded), drain every
  /// queued ticket, join the workers. Idempotent.
  void shutdown();

  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] unsigned worker_count() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Rolling view of response latency (µs) over the last ~10 seconds,
  /// as opposed to the cumulative service/latency_us histogram.
  [[nodiscard]] obs::WindowSnapshot rolling_latency() const {
    return latency_window_.snapshot();
  }

  /// Coalescing/batching identity of a scenario's evaluation context —
  /// the kernels batch key (content-fingerprinted, so distinct scenario
  /// names sharing one model coalesce). Builds the context on first
  /// touch, like submit does. Exposed for tests and capacity planning.
  [[nodiscard]] std::string scenario_key(const std::string& scenario);

 private:
  struct Entry;       // one evaluation context (model + kernel + key)
  struct Waiter;      // one caller's promise + deadline
  struct Ticket;      // one distinct pending evaluation
  struct CoalesceKey {
    const Entry* entry = nullptr;
    std::uint64_t capacity_bits = 0;
    bool with_gap = false;
    bool operator==(const CoalesceKey&) const = default;
  };
  struct CoalesceKeyHash {
    std::size_t operator()(const CoalesceKey& key) const noexcept;
  };

  [[nodiscard]] std::shared_ptr<const Entry> resolve_entry(
      const std::string& scenario);
  void worker_loop(unsigned worker_index);
  /// Evaluate a claimed batch and resolve every waiter. Called with no
  /// locks held.
  void process_batch(std::vector<std::unique_ptr<Ticket>> batch);
  void respond(Waiter& waiter, Response response);

  Options options_;

  // Scenario → evaluation context, built lazily; contexts with equal
  // batch keys are shared so queries coalesce across scenario names.
  mutable std::mutex entries_mutex_;
  std::unordered_map<std::string, std::shared_ptr<const Entry>> by_scenario_;
  std::unordered_map<std::string, std::shared_ptr<const Entry>> by_key_;

  // Queue state. pending_ indexes the tickets currently in queue_ so
  // an identical query attaches instead of enqueueing.
  mutable std::mutex queue_mutex_;
  std::condition_variable work_ready_;
  std::deque<std::unique_ptr<Ticket>> queue_;
  std::unordered_map<CoalesceKey, Ticket*, CoalesceKeyHash> pending_;
  bool paused_ = false;
  bool stopping_ = false;

  std::vector<std::thread> workers_;

  // Observability (global registry; all no-ops when disabled).
  obs::Counter requests_;
  obs::Counter admitted_;
  obs::Counter coalesced_;
  obs::Counter rejected_overload_;
  obs::Counter rejected_shutdown_;
  obs::Counter deadline_at_submit_;
  obs::Counter deadline_in_queue_;
  obs::Counter responses_ok_;
  obs::Counter evaluations_;
  obs::Counter rows_evaluated_;
  obs::Gauge queue_depth_gauge_;
  obs::Histogram queue_us_;
  obs::Histogram latency_us_;
  obs::Histogram eval_us_;
  obs::Histogram batch_rows_;

  // Diagnosis layer: deterministic request ids, storm detection, SLO
  // burn tracking and a rolling latency window. All side channels —
  // none of these feed back into scheduling or values.
  std::atomic<std::uint64_t> next_request_{0};
  std::atomic<std::uint64_t> consecutive_overloads_{0};
  obs::SloTracker* deadline_slo_ = nullptr;   // registry-owned
  obs::SloTracker* admission_slo_ = nullptr;  // registry-owned
  obs::RollingWindow latency_window_ = obs::RollingWindow::over_seconds(10.0);
};

}  // namespace bevr::service
