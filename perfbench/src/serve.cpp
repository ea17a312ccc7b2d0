// The serve workload: open-loop capacity-planner traffic into one
// service::Server with default options (2 workers).
//
// Why: it exercises the service front door (admission, queue, batching,
// coalescing), and it drives the kernels with isolated unsorted points
// rather than the dense sorted sweeps of the figures workload, so a
// kernel change that helps sweeps but hurts points shows here.
//
// One generator thread sends a Poisson schedule precomputed from the
// seed. It sleeps until kSpinNs before each due time, then spins:
// sleeping alone overshoots by ~60 us at the median, and spinning
// alone takes a core from the two workers (their mean queue wait rose
// from ~18 us to ~250 us at 1000/s). Latency is measured from the due
// time — lateness + Response.total_us — so a stall delays every
// request behind it. service::run_{closed,open}_loop are not used:
// they time from submit, and their phase-offset clients make the
// amount of coalesced work depend on timing.
//
// Untraced runs bound work_ms, the p90 of evaluation time per request,
// and print the latency from the due time beside it; traced runs
// report that latency per rate as service.* metrics (see run_serve for
// why it is not the bounded one).
#include <time.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>

#include "bevr/obs/metrics.h"
#include "bevr/obs/trace.h"
#include "bevr/runner/memoized_model.h"
#include "bevr/runner/runner.h"
#include "bevr/service/server.h"
#include "bevr/sim/rng.h"
#include "common.h"
#include "layers.h"
#include "stats.h"

namespace perfbench {

namespace {

using namespace bevr;
using service::Query;
using service::Response;
using service::StatusCode;

// The six variable-load figure models, the whole query space of a
// capacity planner over the paper's loads and utilities.
const std::vector<std::string> kModels = {"fig2_rigid",    "fig2_adaptive", "fig3_rigid",
                                          "fig3_adaptive", "fig4_rigid",    "fig4_adaptive"};

// Isolated points land anywhere on the figures' capacity axis, so the
// k_max search starts cold.
constexpr double kCapacityLo = 10.0;
constexpr double kCapacityHi = 400.0;

// Share of isolated points that ask for Δ(C). Δ costs a root solve:
// 0.34 ms on fig3_adaptive and 6-9 ms on fig4_adaptive against <= 0.8 ms
// for any point without it. At 2% one request in ~300 is a fig4_adaptive
// Δ: the root solve runs tens of times per phase, yet two of them rarely
// hold both workers at once, so p90 stays a property of ordinary points.
constexpr double kGapShare = 0.02;

/// How much of a traffic mix arrives as sorted planner sweeps: the
/// share of requests and the capacities in one sweep, all due at once.
struct Mix {
  double sweep_share;
  int sweep_points;
};

// The measured mix: 10% of requests in 8-point sweeps, so the workers'
// batching claims several tickets per kernel call. A fig4_adaptive
// point costs ~0.8 ms even in a sorted batch, so one such sweep holds a
// worker for ~7 ms; that happens about three times a second at the
// high rate. The shares were chosen to keep the latencies steady, not
// taken from observed planner use: under kConvoyMix they moved with how
// many convoys a run happened to catch.
constexpr Mix kPlannerMix{0.10, 8};

// The convoy mix, traced runs only: 20% of requests in 16-point sweeps.
// The workers' batch claims then snowball into 10-20 ms fig4_adaptive
// convoys that hold a tenth of all requests. service.convoy_share and
// service.batch_hold_ms_p99 report that tail, which the planner mix
// leaves out.
constexpr Mix kConvoyMix{0.20, 16};

// A sweep spans [lo, lo + width] with lo in [10, 300] and width in
// [20, 100], inside the figures' capacity axis.
constexpr double kSweepStartSpan = 290.0;
constexpr double kSweepWidthMin = 20.0;
constexpr double kSweepWidthSpan = 80.0;

// Share of sweeps a second planner repeats at the same due time: those
// queries coalesce onto tickets still queued.
constexpr double kRepeatShare = 0.5;

// A request that waited over 5 ms in the queue sat behind a long batch:
// no point without Δ costs more than ~0.8 ms.
constexpr double kConvoyQueueMs = 5.0;

// Generator: spin for the last 150 us before a due time (see above);
// sample the queue depth at most every 2 ms.
constexpr std::int64_t kSpinNs = 150'000;
constexpr std::int64_t kDepthSampleNs = 2'000'000;

// A step shows a growing backlog when the last third's median exceeds
// the first third's by more than these: generator lateness (ms), queue
// depth (tickets).
constexpr double kLateGrowthMs = 0.25;
constexpr double kDepthGrowth = 2.0;

// Latency percentiles are taken per 0.5 s window of due times and the
// run reports their lower quartile across windows (the ladder judges by
// the median). Host stalls (hypervisor steal on a shared 4-vCPU
// machine) hold the workers for tens of ms now and then, and slow
// spells of seconds double every latency; one stall lifts a window's
// p90 from ~0.9 ms to 5-9 ms, and a whole-phase p90 would move with how
// many stalls the phase happened to catch. A window holds >= 450
// operations at the rates used, so its p90 rests on >= 45 samples
// beyond it.
constexpr std::int64_t kWindowNs = 500'000'000;

// max_rps ladder (traced runs): geometric rungs 5% apart, from 1000/s
// to well past the knee (9000-14000/s at the 5 ms limit on a 4-vCPU
// host). A binary search over them takes about six probes.
constexpr double kLadderLo = 1000.0;
constexpr double kLadderHi = 20000.0;
constexpr double kLadderStep = 0.05;

struct Arrival {
  std::int64_t offset_ns = 0;
  std::size_t model = 0;
  Query query;
  /// The user operation this query belongs to: its own for an isolated
  /// point, shared by every point of one planner's sweep.
  std::size_t op = 0;
};

/// `seconds` of Poisson arrivals at `rate` requests/s.
std::vector<Arrival> schedule(double rate, double seconds, const Mix& mix,
                              const sim::Rng& stream) {
  sim::Rng rng = stream;
  // Requests per arrival event: 1 for a point, the sweep (and its
  // repeat) for a sweep event; pick the event mix so sweeps carry
  // mix.sweep_share of the requests.
  const double per_sweep = mix.sweep_points * (1.0 + kRepeatShare);
  const double sweep_event_p =
      mix.sweep_share / (per_sweep * (1.0 - mix.sweep_share) + mix.sweep_share);
  const double per_event = (1.0 - sweep_event_p) + sweep_event_p * per_sweep;
  const double event_gap_s = per_event / rate;
  std::vector<Arrival> out;
  std::size_t ops = 0;
  double t = 0.0;
  for (;;) {
    t += rng.exponential(event_gap_s);
    if (t >= seconds) break;
    const auto offset = static_cast<std::int64_t>(t * 1e9);
    const auto model = static_cast<std::size_t>(rng.engine()() % kModels.size());
    if (!rng.bernoulli(sweep_event_p)) {
      const double c = kCapacityLo + (kCapacityHi - kCapacityLo) * rng.uniform();
      out.push_back({offset, model, Query{kModels[model], c, rng.bernoulli(kGapShare)}, ops++});
      continue;
    }
    const double lo = kCapacityLo + kSweepStartSpan * rng.uniform();
    const double width = kSweepWidthMin + kSweepWidthSpan * rng.uniform();
    const int copies = rng.bernoulli(kRepeatShare) ? 2 : 1;
    for (int copy = 0; copy < copies; ++copy, ++ops) {
      for (int i = 0; i < mix.sweep_points; ++i) {
        const double c = lo + width * i / (mix.sweep_points - 1);
        out.push_back({offset, model, Query{kModels[model], c, false}, ops});
      }
    }
  }
  return out;
}

void sleep_until_ns(std::int64_t when) {
  timespec ts{};
  ts.tv_sec = when / 1'000'000'000;
  ts.tv_nsec = when % 1'000'000'000;
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

/// The evaluated columns of a response, bit for bit.
std::uint64_t digest(const Response& r) {
  return bits_digest({r.capacity, r.best_effort, r.reservation, r.performance_gap,
                      r.bandwidth_gap, r.k_max, r.blocking, r.total_best_effort,
                      r.total_reservation});
}

/// What the generator keeps of one request. Not the Response itself,
/// so the benchmark's records (40 bytes a request, 16 an operation)
/// stay small beside the Server in peak_rss_mb.
struct Served {
  double late_ms = 0.0;   ///< submit time - due time
  double queue_ms = 0.0;  ///< Response.queue_us
  double total_ms = 0.0;  ///< Response.total_us
  std::uint64_t digest = 0;
  std::uint32_t batch_rows = 0;
  bool ok = false;
  bool coalesced = false;
};

/// One stretch of open-loop traffic and what was served.
struct Block {
  double rate = 0.0;
  double seconds = 0.0;
  Mix mix{};
  std::uint64_t stream = 0;
  std::vector<Served> served;  ///< per query, in schedule order
  /// Per user operation, in due-time order: its due offset (ns) and its
  /// latency (ms) from the due time to its last response, so a sweep
  /// counts once, when the planner has all of it.
  std::vector<std::pair<std::int64_t, double>> ops;
  std::vector<double> depth;  ///< queue-depth samples, in time order

  /// The block's schedule, regenerated from the seed.
  [[nodiscard]] std::vector<Arrival> arrivals(std::uint64_t seed) const {
    return schedule(rate, seconds, mix, sim::Rng(seed).split(stream));
  }
  [[nodiscard]] std::size_t shed() const {
    return static_cast<std::size_t>(
        std::count_if(served.begin(), served.end(), [](const Served& s) { return !s.ok; }));
  }
  [[nodiscard]] std::vector<double> late_ms() const {
    std::vector<double> v;
    for (const Served& s : served) v.push_back(s.late_ms);
    return v;
  }
  [[nodiscard]] std::vector<double> latency_ms() const {
    std::vector<double> v;
    for (const auto& op : ops) v.push_back(op.second);
    return v;
  }
  /// Operation latency p50 and p90 per consecutive kWindowNs of due times.
  [[nodiscard]] std::pair<std::vector<double>, std::vector<double>> windows() const {
    std::vector<double> p50;
    std::vector<double> p90;
    std::size_t begin = 0;
    while (begin < ops.size()) {
      const std::int64_t limit = (ops[begin].first / kWindowNs + 1) * kWindowNs;
      std::vector<double> latency;
      for (; begin < ops.size() && ops[begin].first < limit; ++begin) {
        latency.push_back(ops[begin].second);
      }
      if (samples_beyond(latency.size(), 0.9) < 10) continue;  // a short last window
      p50.push_back(median(latency));
      p90.push_back(tail_quantile(latency, 0.9));
    }
    return {p50, p90};
  }
};

/// Send `seconds` of Poisson traffic at `rate` open loop, then wait for
/// every response.
Block run_block(service::Server& server, const Options& options, double rate, double seconds,
                const Mix& mix, std::uint64_t stream) {
  Block block;
  block.rate = rate;
  block.seconds = seconds;
  block.mix = mix;
  block.stream = stream;
  const std::vector<Arrival> arrivals = block.arrivals(options.seed);
  const std::size_t n = arrivals.size();
  block.served.resize(n);
  std::vector<std::future<Response>> futures;
  futures.reserve(n);
  const std::int64_t start = mono_ns() + 1'000'000;
  std::int64_t next_sample = start;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t due = start + arrivals[i].offset_ns;
    if (mono_ns() >= next_sample) {
      block.depth.push_back(static_cast<double>(server.queue_depth()));
      next_sample = mono_ns() + kDepthSampleNs;
    }
    if (due - mono_ns() > kSpinNs) sleep_until_ns(due - kSpinNs);
    std::int64_t now = mono_ns();
    while (now < due) now = mono_ns();
    block.served[i].late_ms = static_cast<double>(now - due) * 1e-6;
    futures.push_back(server.submit(arrivals[i].query));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Response r = futures[i].get();
    Served& s = block.served[i];
    s.queue_ms = r.queue_us * 1e-3;
    s.total_ms = r.total_us * 1e-3;
    s.digest = digest(r);
    s.batch_rows = r.batch_rows;
    s.ok = r.status == StatusCode::kOk;
    s.coalesced = r.coalesced;
    const Arrival& a = arrivals[i];
    if (block.ops.size() <= a.op) block.ops.resize(a.op + 1, {a.offset_ns, 0.0});
    block.ops[a.op].second = std::max(block.ops[a.op].second, s.late_ms + s.total_ms);
  }
  return block;
}

/// Bitwise comparison of served responses with direct evaluation
/// through runner::make_memoized_model, once per distinct query. Built
/// once traffic has stopped and peak_rss_mb is read: its models and
/// memo are the benchmark's memory, not the program's.
class Verifier {
 public:
  explicit Verifier(std::uint64_t seed) : seed_(seed) {
    for (const auto& name : kModels) {
      models_.push_back(runner::make_memoized_model(
          *runner::ScenarioRegistry::builtin().find(name), cache_, true));
    }
  }

  /// Check every request of `block`; non-OK responses count failed.
  void check(const Block& block, Outcome& out) {
    struct Key {
      std::size_t model;
      std::uint64_t capacity;
      bool gap;
      bool operator==(const Key&) const = default;
    };
    struct KeyHash {
      std::size_t operator()(const Key& k) const {
        return k.capacity * 31 + k.model * 2 + (k.gap ? 1 : 0);
      }
    };
    const std::vector<Arrival> arrivals = block.arrivals(seed_);
    std::unordered_map<Key, std::size_t, KeyHash> index;  // key -> expected slot
    std::vector<Key> keys;
    const auto key_of = [](const Arrival& a) {
      return Key{a.model, std::bit_cast<std::uint64_t>(a.query.capacity),
                 a.query.with_bandwidth_gap};
    };
    for (const Arrival& a : arrivals) {
      if (index.emplace(key_of(a), keys.size()).second) keys.push_back(key_of(a));
    }
    std::vector<std::uint64_t> expected(keys.size());
    runner::parallel_for(&pool_, static_cast<std::int64_t>(keys.size()), [&](std::int64_t i) {
      const Key& key = keys[static_cast<std::size_t>(i)];
      const runner::MemoizedVariableLoad& m = *models_[key.model];
      const double c = std::bit_cast<double>(key.capacity);
      Response r;
      const auto kmax = m.k_max(c);
      r.capacity = c;
      r.best_effort = m.best_effort(c);
      r.reservation = m.reservation(c);
      r.performance_gap = m.performance_gap(c);
      r.bandwidth_gap = key.gap ? m.bandwidth_gap(c) : 0.0;
      r.k_max = kmax ? static_cast<double>(*kmax) : -1.0;
      r.blocking = m.blocking_fraction(c);
      r.total_best_effort = m.total_best_effort(c);
      r.total_reservation = m.total_reservation(c);
      expected[static_cast<std::size_t>(i)] = digest(r);
    });
    std::uint64_t bad = 0;
    std::uint64_t refused = 0;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const Served& got = block.served[i];
      if (!got.ok) {
        ++refused;
      } else if (got.digest != expected[index.at(key_of(arrivals[i]))]) {
        ++bad;
      }
    }
    out.attempted(arrivals.size());
    out.failed(refused, "fixed-rate requests not resolved OK");
    out.failed(bad, "responses differ from direct evaluation");
  }

 private:
  std::uint64_t seed_;
  std::shared_ptr<runner::MemoCache> cache_ = std::make_shared<runner::MemoCache>();
  std::vector<std::shared_ptr<runner::MemoizedVariableLoad>> models_;
  runner::ThreadPool pool_{std::max(1u, std::thread::hardware_concurrency())};
};

/// Window p50s and p90s of several blocks, pooled.
std::pair<std::vector<double>, std::vector<double>> windows(const std::vector<Block>& blocks) {
  std::vector<double> p50;
  std::vector<double> p90;
  for (const Block& b : blocks) {
    const auto [a, c] = b.windows();
    p50.insert(p50.end(), a.begin(), a.end());
    p90.insert(p90.end(), c.begin(), c.end());
  }
  return {p50, p90};
}

struct Verdict {
  bool pass = false;
  double p90_ms = 0.0;
  std::string why;  ///< what failed, "" on a pass
};

/// A rate passes when nothing is shed, the median window p90 is within
/// the limit and neither lateness nor queue depth climbs across any
/// block.
Verdict judge(const std::vector<Block>& blocks, double p90_limit_ms) {
  Verdict v;
  v.p90_ms = median(windows(blocks).second);
  if (v.p90_ms > p90_limit_ms) v.why += " p90";
  for (const Block& b : blocks) {
    if (b.shed() > 0) v.why += " shed";
    if (growing(b.late_ms(), kLateGrowthMs)) v.why += " lateness-growing";
    if (growing(b.depth, kDepthGrowth)) v.why += " depth-growing";
  }
  v.pass = v.why.empty();
  return v;
}

/// Per-rate service metrics from traced blocks: queue wait, evaluation
/// time and the median window p90 (service.p90_ms_* are the windows'
/// lower quartile, so this is where a slow middle of the run shows).
void service_metrics(const std::vector<Block>& blocks, const std::string& suffix, Outcome& out) {
  std::vector<double> queue;
  std::vector<double> eval;
  for (const Block& b : blocks) {
    for (const Served& s : b.served) {
      if (!s.ok) continue;
      queue.push_back(s.queue_ms);
      eval.push_back(s.total_ms - s.queue_ms);
    }
  }
  out.metric("service.queue_ms_p50_" + suffix, median(queue), "ms");
  out.metric("service.queue_ms_p90_" + suffix, tail_quantile(queue, 0.9), "ms");
  out.metric("service.eval_ms_p50_" + suffix, median(eval), "ms");
  out.metric("service.eval_ms_p90_" + suffix, tail_quantile(eval, 0.9), "ms");
  out.metric("service.p90_ms_window_median_" + suffix, median(windows(blocks).second), "ms");
}

/// The convoy mix's tail: the share of requests that waited in the
/// queue behind a long batch, and how long batches held a worker
/// (evaluation start to resolution, p99 over requests).
void convoy_metrics(const Block& block, Outcome& out) {
  std::vector<double> hold;
  double convoyed = 0.0;
  for (const Served& s : block.served) {
    if (!s.ok) continue;
    hold.push_back(s.total_ms - s.queue_ms);
    if (s.queue_ms > kConvoyQueueMs) convoyed += 1.0;
  }
  const auto [p50, p90] = block.windows();
  std::printf("convoy mix: %zu requests, window medians p50 %.4f p90 %.4f ms\n",
              block.served.size(), median(p50), median(p90));
  out.metric("service.convoy_share", convoyed / static_cast<double>(block.served.size()),
             "fraction");
  out.metric("service.batch_hold_ms_p99", tail_quantile(hold, 0.99), "ms");
}

/// Replay of the stream's isolated points below the service: one fresh
/// context per model (built under numerics/core/kernels spans; what
/// building costs is reported from the figures replay), then each point
/// in stream order through SweepEvaluator::evaluate_grid, without and,
/// for Δ queries, with the gap column. Sweep queries are left out: they
/// are sorted, and the figures replay times sweeps.
void point_replay(const std::vector<Arrival>& arrivals, Outcome& out) {
  BuildCost build;
  std::vector<Context> contexts;
  for (const auto& name : kModels) {
    contexts.push_back(build_context(*runner::ScenarioRegistry::builtin().find(name), build));
  }
  const std::uint64_t p0 = counter_value("kernels/kmax/probes");
  const std::uint64_t w0 = counter_value("kernels/kmax/warm_hits");
  const std::uint64_t c0 = counter_value("kernels/kmax/cold_starts");
  double point_s = 0.0, gap_plain_s = 0.0, gap_s = 0.0, points = 0.0, gaps = 0.0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    const bool in_sweep = (i > 0 && arrivals[i - 1].op == a.op) ||
                          (i + 1 < arrivals.size() && arrivals[i + 1].op == a.op);
    if (in_sweep) continue;
    const std::vector<double> c{a.query.capacity};
    const auto& kernel = *contexts[a.model].kernel;
    if (!a.query.with_bandwidth_gap) {
      Timed t("kernels/point", point_s);
      (void)kernel.evaluate_grid(c, false);
      points += 1.0;
      continue;
    }
    {
      Timed t("kernels/point", gap_plain_s);
      (void)kernel.evaluate_grid(c, false);
    }
    Timed t("core/point_gap", gap_s);
    (void)kernel.evaluate_grid(c, true);
    gaps += 1.0;
  }
  const double rows = points + gaps;
  const auto delta = [](const std::string& name, std::uint64_t before) {
    return static_cast<double>(counter_value(name) - before);
  };
  const double warm = delta("kernels/kmax/warm_hits", w0);
  const double cold = delta("kernels/kmax/cold_starts", c0);
  out.metric("kernels.row_us_point", points > 0 ? point_s * 1e6 / points : 0.0, "us");
  out.metric("kernels.kmax_probes_per_point",
             rows > 0 ? delta("kernels/kmax/probes", p0) / rows : 0.0, "count");
  out.metric("kernels.kmax_warm_share_point", warm + cold > 0 ? warm / (warm + cold) : 0.0,
             "fraction");
  out.metric("core.gap_ms_per_point", gaps > 0 ? (gap_s - gap_plain_s) * 1e3 / gaps : 0.0, "ms");
}

/// Print the per-window p50/p90 of one rate's blocks: their lower
/// quartiles and medians, then every window.
void print_windows(const char* name, const std::vector<Block>& blocks) {
  const auto [p50, p90] = windows(blocks);
  std::printf("%s: %zu windows; p50 q1 %.4f median %.4f; p90 q1 %.4f median %.4f ms\n", name,
              p50.size(), lower_quartile(p50), median(p50), lower_quartile(p90), median(p90));
  std::printf("%s: p50/p90 per window (ms):", name);
  for (std::size_t i = 0; i < p50.size(); ++i) std::printf(" %.3f/%.3f", p50[i], p90[i]);
  std::printf("\n");
}

/// Print where one rate's time went, over all its requests: generator
/// lateness, queue wait and evaluation (p50/p90, ms). A slow run whose
/// lateness and queue wait grew while evaluation did not lost its time
/// to scheduling, not to the program's work.
void print_split(const char* name, const std::vector<Block>& blocks) {
  std::vector<double> late;
  std::vector<double> queue;
  std::vector<double> eval;
  for (const Block& b : blocks) {
    for (const Served& s : b.served) {
      late.push_back(s.late_ms);
      queue.push_back(s.queue_ms);
      eval.push_back(s.total_ms - s.queue_ms);
    }
  }
  std::printf("%s: late %.4f/%.4f queue %.4f/%.4f eval %.4f/%.4f ms (p50/p90)\n", name,
              median(late), tail_quantile(late, 0.9), median(queue), tail_quantile(queue, 0.9),
              median(eval), tail_quantile(eval, 0.9));
}

/// max_rps: binary search up the fixed ladder, untraced, in probes of
/// `step_s`. `high` holds blocks at the high rate; when they meet the
/// criteria, every rung up to that rate is known to pass.
double max_rps(service::Server& server, const Options& options, double step_s,
               const std::vector<Block>& high) {
  const std::vector<double> ladder = rate_ladder(kLadderLo, kLadderHi, kLadderStep);
  int known = -1;
  if (judge(high, options.p90_limit_ms).pass) {
    for (std::size_t i = 0; i < ladder.size() && ladder[i] <= options.high_rps; ++i) {
      known = static_cast<int>(i);
    }
  }
  // A rung fails only when two probes of it fail: a host stall inside
  // one probe (tens of ms, enough to fill the queue) is not the knee.
  const int best = highest_passing_rung(static_cast<int>(ladder.size()), known, [&](int rung) {
    const double rate = ladder[static_cast<std::size_t>(rung)];
    for (std::uint64_t attempt = 0; attempt < 2; ++attempt) {
      std::vector<Block> step;
      step.push_back(run_block(server, options, rate, step_s, kPlannerMix,
                               100 + 2 * static_cast<std::uint64_t>(rung) + attempt));
      const Verdict v = judge(step, options.p90_limit_ms);
      std::printf("ladder %.1f/s: p90 %.4f ms -> %s%s\n", rate, v.p90_ms,
                  v.pass ? "pass" : "fail:", v.why.c_str());
      if (v.pass) return true;
    }
    return false;
  });
  return best >= 0 ? ladder[static_cast<std::size_t>(best)] : 0.0;
}

void require_rates(const Options& options) {
  if (!(options.low_rps > 0.0 && options.high_rps > options.low_rps && options.p90_limit_ms > 0.0)) {
    throw std::invalid_argument("serve needs 0 < --low-rps < --high-rps and --p90-limit-ms > 0");
  }
}

/// First touch of the six contexts through the Server's front door;
/// returns how long it took.
double touch_contexts(service::Server& server) {
  const std::int64_t start = mono_ns();
  for (const auto& name : kModels) (void)server.scenario_key(name);
  return seconds_since(start);
}

}  // namespace

void run_serve(const Options& options, Outcome& out) {
  require_rates(options);
  (void)runner::git_describe();
  service::Server server(service::Server::Options{});
  (void)touch_contexts(server);
  setup_done(options, out);
  if (options.setup_only) return;

  const double budget = options.seconds;
  // Fills per-thread buffers, warm k_max slots and allocator pools.
  (void)run_block(server, options, options.high_rps, 0.04 * budget, kPlannerMix, 1);

  // The bounded work_ms is measured at the high rate only, in kBlocks
  // blocks: each block's futures are the benchmark's memory, so shorter
  // blocks keep them small beside the Server.
  constexpr std::uint64_t kBlocks = 8;
  std::vector<Block> high;
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    high.push_back(run_block(server, options, options.high_rps, 0.7 * budget / kBlocks,
                             kPlannerMix, 12 + 3 * b));
  }
  // Peak RSS as the fixed-rate blocks leave it, before the Verifier
  // builds models of its own.
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  // work_ms is the p90 over requests of the time a worker spent
  // answering one (Response.total_us - queue_us): the program's part of
  // the wait. The p90 falls inside the fig4_adaptive points, a sixth of
  // all points. The whole wait from the due time is printed below and
  // reported by the traced run (service.p50_ms_*, service.p90_ms_*),
  // but it is not bounded: on a shared 4-vCPU host its lateness and
  // queue parts are set by vCPU scheduling. In back-to-back runs of the
  // same code its windowed p90 read 0.94-2.2 ms (5.0 ms once) as the
  // host got busy, with generator lateness p90 at 0.03-1.7 ms, while
  // this evaluation p90 stayed at 0.91-0.98 ms.
  std::vector<double> eval;
  for (const Block& b : high) {
    for (const Served& s : b.served) eval.push_back(s.total_ms - s.queue_ms);
  }
  out.metric("work_ms", tail_quantile(eval, 0.9), "ms");
  print_windows("high", high);
  print_split("high", high);
  Verifier verifier(options.seed);
  for (const Block& b : high) verifier.check(b, out);
}

void trace_serve(const Options& options, double seconds, Outcome& out) {
  require_rates(options);
  service::Server server(service::Server::Options{});
  const double context_s = touch_contexts(server);
  (void)run_block(server, options, options.high_rps, 0.04 * seconds, kPlannerMix, 1);

  // Both rates alternate in kRounds rounds, untraced and traced blocks
  // of each, so every kind samples the whole stretch rather than one
  // part of the host's history.
  constexpr std::uint64_t kRounds = 3;
  std::vector<Block> low;
  std::vector<Block> high;
  std::vector<Block> untraced_low;
  std::vector<Block> untraced_high;
  obs::TraceCollector& collector = obs::TraceCollector::global();
  const double block_s = 0.05 * seconds;
  for (std::uint64_t b = 0; b < kRounds; ++b) {
    untraced_low.push_back(
        run_block(server, options, options.low_rps, block_s, kPlannerMix, 10 + 4 * b));
    untraced_high.push_back(
        run_block(server, options, options.high_rps, block_s, kPlannerMix, 11 + 4 * b));
    collector.set_enabled(true);
    low.push_back(run_block(server, options, options.low_rps, block_s, kPlannerMix, 12 + 4 * b));
    high.push_back(run_block(server, options, options.high_rps, block_s, kPlannerMix, 13 + 4 * b));
    collector.set_enabled(false);
  }

  std::vector<double> traced;
  std::vector<double> plain;
  for (std::size_t b = 0; b < low.size(); ++b) {
    for (const double v : low[b].latency_ms()) traced.push_back(v);
    for (const double v : untraced_low[b].latency_ms()) plain.push_back(v);
  }
  out.metric("obs.serve.trace_overhead", median(traced) / median(plain) - 1.0, "fraction");
  // The service's latencies from the due time at both rates, untraced:
  // per-window percentiles, lower quartile across windows.
  for (const auto& [name, blocks] :
       {std::pair{"low", &untraced_low}, std::pair{"high", &untraced_high}}) {
    const auto [p50, p90] = windows(*blocks);
    out.metric(std::string("service.p50_ms_") + name, lower_quartile(p50), "ms");
    out.metric(std::string("service.p90_ms_") + name, lower_quartile(p90), "ms");
    print_windows(name, *blocks);
  }
  service_metrics(low, "low", out);
  service_metrics(high, "high", out);
  std::vector<double> late;
  double rows = 0.0;
  double coalesced = 0.0;
  double shed = 0.0;
  double total = 0.0;
  for (const auto* blocks : {&low, &high}) {
    for (const Block& b : *blocks) {
      for (const Served& s : b.served) {
        late.push_back(s.late_ms);
        rows += s.batch_rows;
        coalesced += s.coalesced ? 1.0 : 0.0;
        shed += s.ok ? 0.0 : 1.0;
        total += 1.0;
      }
    }
  }
  out.metric("service.gen_late_ms_p99", tail_quantile(late, 0.99), "ms");
  out.metric("service.batch_rows_mean", rows / total, "count");
  out.metric("service.coalesced_share", coalesced / total, "fraction");
  out.metric("service.shed_share", shed / total, "fraction");
  out.metric("service.context_build_ms", context_s * 1e3, "ms");

  // Untraced, at the high rate: its tail is the program's, not the
  // collector's.
  std::vector<Block> convoy;
  convoy.push_back(run_block(server, options, options.high_rps, 0.1 * seconds, kConvoyMix, 50));
  convoy_metrics(convoy.front(), out);
  out.metric("service.max_rps", max_rps(server, options, 0.05 * seconds, untraced_high), "1/s");

  const std::vector<Arrival> stream =
      schedule(options.high_rps, 0.1 * seconds, kPlannerMix, sim::Rng(options.seed).split(2));
  const double coverage = traced_replay({"kernels/", "core/", "numerics/"},
                                        [&] { point_replay(stream, out); });
  out.require(coverage >= 0.9, "layer spans cover under 90% of the point replay");
  report_trace(options.trace_out, "serve", total, out);

  // Every fixed-rate response, checked once traffic has stopped.
  Verifier verifier(options.seed);
  for (const auto* blocks : {&untraced_low, &untraced_high, &low, &high, &convoy}) {
    for (const Block& b : *blocks) verifier.check(b, out);
  }
}

}  // namespace perfbench
