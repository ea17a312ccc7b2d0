#include "bevr/service/server.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "bevr/kernels/sweep_evaluator.h"
#include "bevr/obs/flight_recorder.h"
#include "bevr/obs/trace.h"
#include "bevr/runner/memoized_model.h"
#include "bevr/runner/runner.h"

namespace bevr::service {

std::string to_string(StatusCode status) {
  switch (status) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kOverloaded: return "OVERLOADED";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
  }
  return "UNKNOWN";
}

namespace {

double elapsed_us(std::uint64_t since_ns) {
  return static_cast<double>(obs::now_ns() - since_ns) * 1e-3;
}

}  // namespace

/// One evaluation context: the memoizing façade (whose kernel answers
/// every batch) and the batching identity. Immutable after
/// construction; shared by every scenario name that resolves to the
/// same key.
struct Server::Entry {
  std::shared_ptr<runner::MemoizedVariableLoad> model;
  double mean = 0.0;
  std::string key;
};

struct Server::Waiter {
  std::promise<Response> promise;
  Deadline deadline = kNoDeadline;
  std::uint64_t submit_ns = 0;
  bool coalesced = false;
  obs::TraceContext trace;  ///< this request's causal identity
};

struct Server::Ticket {
  std::shared_ptr<const Entry> entry;
  double capacity = 0.0;
  bool with_gap = false;
  std::vector<Waiter> waiters;
};

std::size_t Server::CoalesceKeyHash::operator()(
    const CoalesceKey& key) const noexcept {
  std::size_t hash = std::hash<const void*>{}(key.entry);
  hash ^= std::hash<std::uint64_t>{}(key.capacity_bits) + 0x9e3779b97f4a7c15ULL +
          (hash << 6) + (hash >> 2);
  return hash * 2ULL + (key.with_gap ? 1ULL : 0ULL);
}

Server::Server(Options options) : options_(std::move(options)) {
  if (options_.queue_capacity == 0) {
    throw std::invalid_argument("Server: queue_capacity must be positive");
  }
  if (options_.max_batch == 0) {
    throw std::invalid_argument("Server: max_batch must be positive");
  }
  if (!options_.cache) options_.cache = std::make_shared<runner::MemoCache>();
  if (options_.registry == nullptr) {
    options_.registry = &runner::ScenarioRegistry::builtin();
  }
  paused_ = options_.paused;

  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  requests_ = registry.counter("service/requests");
  admitted_ = registry.counter("service/admitted");
  coalesced_ = registry.counter("service/coalesced");
  rejected_overload_ = registry.counter("service/rejected_overload");
  rejected_shutdown_ = registry.counter("service/rejected_shutdown");
  deadline_at_submit_ = registry.counter("service/deadline_at_submit");
  deadline_in_queue_ = registry.counter("service/deadline_in_queue");
  responses_ok_ = registry.counter("service/responses_ok");
  evaluations_ = registry.counter("service/evaluations");
  rows_evaluated_ = registry.counter("service/rows_evaluated");
  queue_depth_gauge_ = registry.gauge("service/queue_depth");
  queue_us_ = registry.histogram("service/queue_us");
  latency_us_ = registry.histogram("service/latency_us");
  eval_us_ = registry.histogram("service/eval_us");
  batch_rows_ =
      registry.histogram("service/batch_rows",
                         obs::HistogramSpec::linear(1.0, 1.0, 64));
  deadline_slo_ = &obs::SloRegistry::global().tracker(
      "service/deadline", options_.deadline_slo_target);
  admission_slo_ = &obs::SloRegistry::global().tracker(
      "service/admission", options_.admission_slo_target);

  unsigned count = options_.workers;
  if (count == 0) count = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

Server::~Server() { shutdown(); }

std::shared_ptr<const Server::Entry> Server::resolve_entry(
    const std::string& scenario) {
  std::lock_guard<std::mutex> lock(entries_mutex_);
  if (const auto it = by_scenario_.find(scenario); it != by_scenario_.end()) {
    return it->second;
  }
  const runner::ScenarioSpec* spec = options_.registry->find(scenario);
  if (spec == nullptr) {
    throw std::invalid_argument("Server: unknown scenario '" + scenario + "'");
  }
  // Build through the runner's own factory so the service evaluates on
  // the exact path (memo + kernel dispatch) a bevr_run sweep would.
  auto model = runner::make_memoized_model(*spec, options_.cache);
  auto entry = std::make_shared<Entry>();
  entry->mean = model->mean_load();
  entry->key = model->kernel().batch_key();
  entry->model = std::move(model);
  // Two scenario names with one identity share the first-built context,
  // so their queries coalesce and share memo state.
  if (const auto it = by_key_.find(entry->key); it != by_key_.end()) {
    by_scenario_.emplace(scenario, it->second);
    return it->second;
  }
  by_key_.emplace(entry->key, entry);
  by_scenario_.emplace(scenario, entry);
  return entry;
}

std::string Server::scenario_key(const std::string& scenario) {
  return resolve_entry(scenario)->key;
}

void Server::respond(Waiter& waiter, Response response) {
  response.trace_id = waiter.trace.trace_id;
  response.total_us = elapsed_us(waiter.submit_ns);
  latency_us_.observe(response.total_us);
  latency_window_.observe(response.total_us);
  obs::FlightRecorder& flight = obs::FlightRecorder::global();
  switch (response.status) {
    case StatusCode::kOk: {
      // A response that arrives after its deadline still carries
      // values, but it missed the objective — that is the SLO's "bad".
      const bool on_time =
          waiter.deadline == kNoDeadline || Clock::now() <= waiter.deadline;
      deadline_slo_->record(on_time);
      if (on_time) {
        flight.record(obs::FlightCode::kRespond, waiter.trace.trace_id,
                      nullptr, response.total_us);
      } else {
        flight.record(obs::FlightCode::kDeadlineMiss, waiter.trace.trace_id,
                      "late delivery", response.total_us);
      }
      break;
    }
    case StatusCode::kDeadlineExceeded:
      deadline_slo_->record(false);
      flight.record(obs::FlightCode::kExpire, waiter.trace.trace_id, nullptr,
                    response.total_us);
      break;
    case StatusCode::kOverloaded:
      // An admission outcome, not a deadline one; the submit path
      // already recorded it against the admission SLO.
      break;
  }
  obs::TraceCollector::global().record_instant("service/respond",
                                               waiter.trace.child(1));
  waiter.promise.set_value(std::move(response));
}

std::future<Response> Server::submit(const Query& query, Deadline deadline) {
  requests_.inc();
  // Causal identity first: every outcome of this submit — even a
  // rejection — carries the same deterministic trace id.
  const std::uint64_t request_index =
      next_request_.fetch_add(1, std::memory_order_relaxed);
  const obs::TraceContext trace =
      obs::TraceContext::derive(options_.trace_seed, request_index);
  // Flow-out: the arrow from this submit span lands on whichever
  // evaluation span eventually serves (or expires) the request.
  obs::TraceSpan submit_span("service/submit", trace,
                             obs::TraceEvent::kFlowOut);
  obs::FlightRecorder& flight = obs::FlightRecorder::global();

  const std::shared_ptr<const Entry> entry = resolve_entry(query.scenario);
  // In a batch, a capacity <= 0 or NaN would throw in the worker, out
  // of every caller's reach, a NaN would also break the sort, and +inf
  // would be answered with a meaningless row: refuse them here.
  if (!(std::isfinite(query.capacity) && query.capacity > 0.0)) {
    throw std::invalid_argument(
        "Server: capacity must be finite and positive");
  }

  Waiter waiter;
  waiter.deadline = deadline;
  waiter.submit_ns = obs::now_ns();
  waiter.trace = trace;
  std::future<Response> future = waiter.promise.get_future();

  Response rejection;
  rejection.capacity = query.capacity;

  if (deadline != kNoDeadline && Clock::now() >= deadline) {
    deadline_at_submit_.inc();
    rejection.status = StatusCode::kDeadlineExceeded;
    respond(waiter, std::move(rejection));
    return future;
  }

  const CoalesceKey key{entry.get(),
                        std::bit_cast<std::uint64_t>(query.capacity),
                        query.with_bandwidth_gap};
  bool coalesced = false;
  bool enqueued = false;
  bool shed_overload = false;
  std::size_t depth_at_rejection = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!stopping_) {
      if (const auto it = pending_.find(key); it != pending_.end()) {
        waiter.coalesced = true;
        coalesced_.inc();
        admitted_.inc();
        it->second->waiters.push_back(std::move(waiter));
        coalesced = true;
        enqueued = true;
      } else if (queue_.size() < options_.queue_capacity) {
        auto ticket = std::make_unique<Ticket>();
        ticket->entry = entry;
        ticket->capacity = query.capacity;
        ticket->with_gap = query.with_bandwidth_gap;
        ticket->waiters.push_back(std::move(waiter));
        pending_.emplace(key, ticket.get());
        queue_.push_back(std::move(ticket));
        admitted_.inc();
        queue_depth_gauge_.set(static_cast<double>(queue_.size()));
        work_ready_.notify_one();
        enqueued = true;
      } else {
        rejected_overload_.inc();
        shed_overload = true;
        depth_at_rejection = queue_.size();
      }
    } else {
      rejected_shutdown_.inc();
      flight.record(obs::FlightCode::kShed, trace.trace_id, "shutdown");
    }
  }
  if (enqueued) {
    admission_slo_->record(true);
    consecutive_overloads_.store(0, std::memory_order_relaxed);
    if (coalesced) {
      flight.record(obs::FlightCode::kCoalesce, trace.trace_id);
      obs::TraceCollector::global().record_instant("service/coalesce", trace);
    } else {
      flight.record(obs::FlightCode::kSubmit, trace.trace_id);
      obs::TraceCollector::global().record_instant("service/enqueue", trace);
    }
    return future;
  }
  admission_slo_->record(false);
  if (shed_overload) {
    flight.record(obs::FlightCode::kOverloaded, trace.trace_id, nullptr,
                  static_cast<double>(depth_at_rejection));
    // Storm detection: a run of back-to-back sheds means the server is
    // not just momentarily full — preserve the flight into the storm.
    // Shutdown rejections don't count; an emptying server is not a
    // storm.
    const std::uint64_t streak =
        consecutive_overloads_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (options_.overload_storm_threshold != 0 &&
        streak == options_.overload_storm_threshold) {
      flight.record(obs::FlightCode::kStorm, trace.trace_id, nullptr,
                    static_cast<double>(streak));
      obs::TraceCollector::global().record_instant("service/overload_storm",
                                                   trace);
      flight.auto_dump("overload-storm");
    }
  }
  rejection.status = StatusCode::kOverloaded;
  respond(waiter, std::move(rejection));
  return future;
}

void Server::worker_loop(unsigned worker_index) {
  // Stable track ids: service workers live at 200+, distinct from the
  // runner pool's 100+ block and the main thread's 1.
  obs::TraceCollector::set_thread_track(
      "service/worker" + std::to_string(worker_index), 200 + worker_index);
  for (;;) {
    std::vector<std::unique_ptr<Ticket>> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      work_ready_.wait(lock, [this] {
        return stopping_ || (!paused_ && !queue_.empty());
      });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;  // spurious wake while paused
      }
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      const Ticket& first = *batch.front();
      pending_.erase(CoalesceKey{first.entry.get(),
                                 std::bit_cast<std::uint64_t>(first.capacity),
                                 first.with_gap});
      // Claim every queued ticket this evaluation context can serve in
      // the same kernel call.
      for (auto it = queue_.begin();
           it != queue_.end() && batch.size() < options_.max_batch;) {
        Ticket& other = **it;
        if (other.entry == first.entry && other.with_gap == first.with_gap) {
          pending_.erase(
              CoalesceKey{other.entry.get(),
                          std::bit_cast<std::uint64_t>(other.capacity),
                          other.with_gap});
          batch.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      queue_depth_gauge_.set(static_cast<double>(queue_.size()));
    }
    process_batch(std::move(batch));
  }
}

void Server::process_batch(std::vector<std::unique_ptr<Ticket>> batch) {
  const std::uint64_t eval_start_ns = obs::now_ns();
  const auto now = Clock::now();

  // Resolve waiters that aged out in the queue; they cost no
  // evaluation. A ticket with no live waiter left is dropped whole.
  // Expired waiters still count toward the queue-time histogram —
  // every request that reached a worker is observed exactly once.
  std::vector<std::unique_ptr<Ticket>> live;
  live.reserve(batch.size());
  for (auto& ticket : batch) {
    std::vector<Waiter> keep;
    keep.reserve(ticket->waiters.size());
    for (Waiter& waiter : ticket->waiters) {
      if (waiter.deadline != kNoDeadline && now >= waiter.deadline) {
        deadline_in_queue_.inc();
        Response expired;
        expired.status = StatusCode::kDeadlineExceeded;
        expired.capacity = ticket->capacity;
        expired.queue_us = elapsed_us(waiter.submit_ns);
        queue_us_.observe(expired.queue_us);
        // Terminate the request's flow arrow at its expiry point so
        // the trace shows where the wait ended.
        obs::TraceCollector::global().record_instant(
            "service/expire", waiter.trace, obs::TraceEvent::kFlowIn);
        respond(waiter, std::move(expired));
      } else {
        keep.push_back(std::move(waiter));
      }
    }
    ticket->waiters = std::move(keep);
    if (!ticket->waiters.empty()) live.push_back(std::move(ticket));
  }
  if (live.empty()) return;

  // Sorted batch: what makes the kernel's warm k_max resume pay.
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) {
              return a->capacity < b->capacity;
            });
  std::vector<double> capacities;
  capacities.reserve(live.size());
  for (const auto& ticket : live) capacities.push_back(ticket->capacity);

  const Entry& entry = *live.front()->entry;
  const bool with_gap = live.front()->with_gap;

  // The evaluation span adopts the first waiter's trace as its causal
  // parent; every waiter's fan-in arrow (flow-in instants recorded
  // inside the span, below) terminates on this one slice.
  const obs::TraceContext eval_trace = live.front()->waiters.front().trace;
  obs::TraceSpan eval_span("service/evaluate", eval_trace.child(0));
  obs::FlightRecorder::global().record(
      obs::FlightCode::kEvaluate, eval_trace.trace_id, nullptr,
      static_cast<double>(live.size()));

  std::vector<kernels::SweepEvaluator::Row> rows;
  {
    obs::Histogram::Timer timer(eval_us_);
    rows = entry.model->kernel().evaluate_grid(capacities, with_gap);
  }
  evaluations_.inc();
  rows_evaluated_.add(rows.size());
  batch_rows_.observe(static_cast<double>(rows.size()));

  for (std::size_t i = 0; i < live.size(); ++i) {
    Ticket& ticket = *live[i];
    const kernels::SweepEvaluator::Row& row = rows[i];
    Response ok;
    ok.status = StatusCode::kOk;
    ok.capacity = ticket.capacity;
    ok.best_effort = row.best_effort;
    ok.reservation = row.reservation;
    ok.performance_gap = row.performance_gap;
    ok.bandwidth_gap = with_gap ? row.bandwidth_gap : 0.0;
    ok.k_max = row.k_max;
    ok.blocking = row.blocking;
    // Identical expression to {SweepEvaluator,VariableLoadModel}::
    // total_*: mean · per-flow value, hence bitwise-equal totals.
    ok.total_best_effort = entry.mean * row.best_effort;
    ok.total_reservation = entry.mean * row.reservation;
    ok.coalesced = ticket.waiters.size() > 1;
    ok.batch_rows = static_cast<std::uint32_t>(rows.size());
    for (Waiter& waiter : ticket.waiters) {
      responses_ok_.inc();
      Response copy = ok;
      copy.queue_us =
          static_cast<double>(eval_start_ns - waiter.submit_ns) * 1e-3;
      queue_us_.observe(copy.queue_us);
      // One flow-in instant per waiter, recorded while the evaluation
      // span is still open: N submit arrows fan into this one slice.
      obs::TraceCollector::global().record_instant(
          "service/serve", waiter.trace, obs::TraceEvent::kFlowIn);
      respond(waiter, std::move(copy));
    }
  }
}

void Server::resume() {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  paused_ = false;
  work_ready_.notify_all();
}

void Server::shutdown() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
    paused_ = false;  // a paused queue must still drain
    work_ready_.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

std::size_t Server::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return queue_.size();
}

}  // namespace bevr::service
