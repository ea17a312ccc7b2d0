#include "bevr/sim/event_queue.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace bevr::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(3.0, [&order] { order.push_back(3); });
  queue.schedule(1.0, [&order] { order.push_back(1); });
  queue.schedule(2.0, [&order] { order.push_back(2); });
  while (queue.step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
}

TEST(EventQueue, FifoAmongSimultaneousEvents) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(1.0, [&order] { order.push_back(1); });
  queue.schedule(1.0, [&order] { order.push_back(2); });
  queue.schedule(1.0, [&order] { order.push_back(3); });
  while (queue.step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue queue;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) queue.schedule_in(1.0, chain);
  };
  queue.schedule(0.0, chain);
  while (queue.step()) {
  }
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(queue.now(), 4.0);
}

TEST(EventQueue, RunUntilStopsAtHorizon) {
  EventQueue queue;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    queue.schedule(static_cast<double>(i), [&fired] { ++fired; });
  }
  queue.run_until(5.5);
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(queue.now(), 5.5);
  EXPECT_EQ(queue.pending(), 5u);
}

TEST(EventQueue, RefusesPastScheduling) {
  EventQueue queue;
  queue.schedule(5.0, [] {});
  queue.step();
  EXPECT_THROW(queue.schedule(4.0, [] {}), std::invalid_argument);
  EXPECT_NO_THROW(queue.schedule(5.0, [] {}));  // "now" is allowed
}

TEST(EventQueue, EmptyBehaviour) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.step());
  EXPECT_DOUBLE_EQ(queue.now(), 0.0);
}

TEST(EventQueueCancel, CancelledEventNeverFires) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(1.0, [&order] { order.push_back(1); });
  const auto doomed = queue.schedule(2.0, [&order] { order.push_back(2); });
  queue.schedule(3.0, [&order] { order.push_back(3); });
  EXPECT_TRUE(queue.cancel(doomed));
  while (queue.step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
}

TEST(EventQueueCancel, DoubleCancelAndCancelAfterFireReturnFalse) {
  EventQueue queue;
  const auto id = queue.schedule(1.0, [] {});
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_FALSE(queue.cancel(id));  // already cancelled

  const auto fired = queue.schedule(2.0, [] {});
  while (queue.step()) {
  }
  EXPECT_FALSE(queue.cancel(fired));       // already fired
  EXPECT_FALSE(queue.cancel(9999999));     // never existed
}

TEST(EventQueueCancel, FifoPreservedAroundInterleavedCancels) {
  // Cancelling events between simultaneous survivors must not perturb
  // the survivors' FIFO order (cancellation is lazy; the heap entries
  // are skipped, not reshuffled).
  EventQueue queue;
  std::vector<int> order;
  std::vector<EventQueue::EventId> doomed;
  for (int i = 0; i < 6; ++i) {
    const auto id =
        queue.schedule(1.0, [&order, i] { order.push_back(i); });
    if (i % 2 == 1) doomed.push_back(id);
  }
  for (const auto id : doomed) EXPECT_TRUE(queue.cancel(id));
  while (queue.step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4}));
}

TEST(EventQueueCancel, PendingAndEmptyCountLiveEventsOnly) {
  EventQueue queue;
  const auto a = queue.schedule(1.0, [] {});
  queue.schedule(2.0, [] {});
  EXPECT_EQ(queue.pending(), 2u);
  EXPECT_TRUE(queue.cancel(a));
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_FALSE(queue.empty());
  queue.step();
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_TRUE(queue.empty());
  // The cancelled entry still parked in the heap must not make step()
  // report progress.
  EXPECT_FALSE(queue.step());
}

TEST(EventQueueCancel, CancelledTopDoesNotAdvanceClock) {
  // step() skips cancelled events without running the clock forward to
  // their timestamps.
  EventQueue queue;
  const auto a = queue.schedule(1.0, [] {});
  queue.schedule(5.0, [] {});
  queue.cancel(a);
  EXPECT_TRUE(queue.step());
  EXPECT_DOUBLE_EQ(queue.now(), 5.0);
}

TEST(EventQueueCancel, RunUntilIgnoresCancelledBeyondHorizon) {
  // A cancelled event inside the horizon and a live one beyond it:
  // run_until must fire nothing and still land on the horizon.
  EventQueue queue;
  int fired = 0;
  const auto a = queue.schedule(1.0, [&fired] { ++fired; });
  queue.schedule(10.0, [&fired] { ++fired; });
  queue.cancel(a);
  queue.run_until(5.0);
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(queue.now(), 5.0);
  EXPECT_EQ(queue.pending(), 1u);
}

TEST(EventQueueCancel, EventsCanCancelOtherEvents) {
  // The admission engine's pattern: a cancel event retracts a pending
  // start event at runtime.
  EventQueue queue;
  std::vector<int> order;
  const auto start =
      queue.schedule(3.0, [&order] { order.push_back(3); });
  queue.schedule(1.0, [&order, &queue, start] {
    order.push_back(1);
    EXPECT_TRUE(queue.cancel(start));
  });
  while (queue.step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1}));
}

TEST(EventQueueCancel, DeterministicAcrossIdenticalRuns) {
  // Same schedule/cancel sequence → same firing order and clock, run
  // after run (tokens are assigned deterministically).
  const auto run = [] {
    EventQueue queue;
    std::vector<int> order;
    std::vector<EventQueue::EventId> ids;
    for (int i = 0; i < 20; ++i) {
      ids.push_back(queue.schedule(static_cast<double>(i % 5),
                                   [&order, i] { order.push_back(i); }));
    }
    for (int i = 0; i < 20; i += 3) queue.cancel(ids[static_cast<std::size_t>(i)]);
    while (queue.step()) {
    }
    return order;
  };
  EXPECT_EQ(run(), run());
}


TEST(EventQueueCancel, StaleTokenNeverCancelsASlotsNextOccupant) {
  // One live event at a time, so every schedule reuses the slot the
  // previous event freed; the old tokens must stay dead.
  EventQueue queue;
  std::vector<int> order;
  const auto fired = queue.schedule(1.0, [&order] { order.push_back(1); });
  ASSERT_TRUE(queue.step());
  const auto cancelled = queue.schedule(2.0, [&order] { order.push_back(2); });
  ASSERT_TRUE(queue.cancel(cancelled));
  EXPECT_FALSE(queue.step());  // pops the cancelled entry, frees the slot
  queue.schedule(3.0, [&order] { order.push_back(3); });
  EXPECT_FALSE(queue.cancel(fired));
  EXPECT_FALSE(queue.cancel(cancelled));
  EXPECT_EQ(queue.pending(), 1u);
  ASSERT_TRUE(queue.step());
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueCancel, TokensStayUniqueAcrossSlotReuse) {
  EventQueue queue;
  std::set<EventQueue::EventId> issued;
  for (int i = 0; i < 1000; ++i) {
    const auto id = queue.schedule(static_cast<double>(i), [] {});
    EXPECT_TRUE(issued.insert(id).second) << "token reissued at " << i;
    if (i % 2 == 0) {
      EXPECT_TRUE(queue.cancel(id));
    }
    queue.run_until(static_cast<double>(i));
  }
  for (const auto id : issued) EXPECT_FALSE(queue.cancel(id));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueCancel, CancelDestroysTheActionAndStepNeverCopiesIt) {
  // The action's captures are released at cancel time, and a firing
  // action is moved out of its slot, never copied.
  struct Counted {
    std::shared_ptr<int> copies;
    Counted(const Counted& other) : copies(other.copies) { ++*copies; }
    Counted(Counted&&) = default;
    explicit Counted(std::shared_ptr<int> c) : copies(std::move(c)) {}
    void operator()() const {}
  };
  EventQueue queue;
  const auto copies = std::make_shared<int>(0);
  const auto doomed = queue.schedule(1.0, Counted{copies});
  EXPECT_EQ(copies.use_count(), 2);
  EXPECT_TRUE(queue.cancel(doomed));
  EXPECT_EQ(copies.use_count(), 1);

  queue.schedule(2.0, Counted{copies});
  const int after_schedule = *copies;
  EXPECT_TRUE(queue.step());
  EXPECT_EQ(*copies, after_schedule);
  EXPECT_EQ(copies.use_count(), 1);
}

TEST(EventQueueStream, StepBeforeRunsOnlyStrictlyEarlierEvents) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(1.0, [&order] { order.push_back(1); });
  queue.schedule(2.0, [&order] { order.push_back(2); });
  queue.schedule(2.0, [&order] { order.push_back(3); });
  while (queue.step_before(2.0)) {
  }
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(queue.now(), 1.0);
  queue.advance_to(2.0);
  EXPECT_DOUBLE_EQ(queue.now(), 2.0);
  // An arrival handled here runs before both events due at 2.0.
  order.push_back(0);
  while (queue.step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 3}));
}

TEST(EventQueueStream, AdvanceToThePastThrows) {
  EventQueue queue;
  queue.advance_to(3.0);
  EXPECT_THROW(queue.advance_to(2.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
  EXPECT_NO_THROW(queue.advance_to(3.0));  // "now" is allowed
  EXPECT_THROW(queue.schedule(2.5, [] {}), std::invalid_argument);
}

TEST(EventQueueStream, AdvanceToCannotSkipALiveEvent) {
  EventQueue queue;
  queue.schedule(1.0, [] {});
  EXPECT_THROW(queue.advance_to(1.5), std::logic_error);
  EXPECT_DOUBLE_EQ(queue.now(), 0.0);
  EXPECT_NO_THROW(queue.advance_to(1.0));  // due at, not before, 1.0
  EXPECT_EQ(queue.pending(), 1u);
}

TEST(EventQueueStream, CancelledEntryNeverMovesTheClock) {
  EventQueue queue;
  int fired = 0;
  const auto a = queue.schedule(1.0, [&fired] { ++fired; });
  queue.schedule(5.0, [&fired] { ++fired; });
  queue.cancel(a);
  EXPECT_FALSE(queue.step_before(3.0));
  EXPECT_DOUBLE_EQ(queue.now(), 0.0);
  EXPECT_NO_THROW(queue.advance_to(3.0));  // the cancelled 1.0 is no obstacle
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
  EXPECT_TRUE(queue.step());
  EXPECT_DOUBLE_EQ(queue.now(), 5.0);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueStream, NanTimesThrow) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EventQueue queue;
  EXPECT_THROW(queue.schedule(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(queue.schedule_in(nan, [] {}), std::invalid_argument);
  EXPECT_THROW((void)queue.step_before(nan), std::invalid_argument);
  EXPECT_THROW(queue.advance_to(nan), std::invalid_argument);
  EXPECT_THROW(queue.run_until(nan), std::invalid_argument);
  EXPECT_TRUE(queue.empty());
  EXPECT_DOUBLE_EQ(queue.now(), 0.0);
  // +inf is a time like any other ("never, in practice").
  EXPECT_NO_THROW(queue.schedule(std::numeric_limits<double>::infinity(),
                                 [] {}));
}

/// Reference model: a std::multimap keyed by (time, seq) — the firing
/// order the heap must reproduce — plus the id → key index that cancel
/// needs. Events are named by test-assigned ids.
class ModelQueue {
 public:
  using Key = std::pair<double, std::uint64_t>;

  /// False when `when` precedes now() (the real queue throws).
  bool schedule(double when, int id) {
    if (!(when >= now_)) return false;
    const Key key{when, seq_++};
    events_.emplace(key, id);
    keys_.emplace(id, key);
    return true;
  }
  bool cancel(int id) {
    const auto it = keys_.find(id);
    if (it == keys_.end()) return false;
    events_.erase(events_.find(it->second));
    keys_.erase(it);
    return true;
  }
  /// Pop the earliest event if it is due strictly before `t`.
  std::optional<int> step_before(double t) {
    if (events_.empty() || !(events_.begin()->first.first < t)) {
      return std::nullopt;
    }
    const auto it = events_.begin();
    const int id = it->second;
    now_ = it->first.first;
    keys_.erase(id);
    events_.erase(it);
    return id;
  }
  std::optional<int> step() {
    return step_before(std::numeric_limits<double>::infinity());
  }
  /// 0 = advanced; 1 = into the past; 2 = would skip a live event.
  int advance_to(double t) {
    if (!(t >= now_)) return 1;
    if (!events_.empty() && events_.begin()->first.first < t) return 2;
    now_ = t;
    return 0;
  }
  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

 private:
  std::multimap<Key, int> events_;
  std::map<int, Key> keys_;
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
};

TEST(EventQueueDifferential, MatchesTheReferenceModelUnderRandomOperations) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    std::mt19937_64 rng(seed);
    const auto pick = [&rng](int n) {
      return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    };
    // Coarse offsets from now() so ties, zero delays and past times
    // are all common.
    const auto offset = [&pick] { return 0.5 * (pick(9) - 2); };

    EventQueue queue;
    ModelQueue model;
    std::vector<int> real_fired;
    std::vector<int> model_fired;
    std::map<int, EventQueue::EventId> tokens;  // every id ever issued
    // Follow-ups scheduled from inside a firing action, replayed on
    // the model once it has popped the same event.
    std::vector<std::pair<double, int>> follow_ups;
    int next_id = 0;

    std::function<EventQueue::Action(int)> action_for;
    action_for = [&](int id) -> EventQueue::Action {
      return [&, id] {
        real_fired.push_back(id);
        // Every seventh event schedules a follow-up, so the heap also
        // grows from inside step().
        if (id % 7 == 0) {
          const int next = next_id++;
          const double when = queue.now() + 0.5 * pick(3);
          tokens[next] = queue.schedule(when, action_for(next));
          follow_ups.emplace_back(when, next);
        }
      };
    };
    const auto model_fired_one = [&](std::optional<int> id) {
      if (!id) return false;
      model_fired.push_back(*id);
      for (const auto& [when, next] : follow_ups) {
        EXPECT_TRUE(model.schedule(when, next));
      }
      follow_ups.clear();
      return true;
    };

    for (int op = 0; op < 20000; ++op) {
      const int kind = pick(10);
      if (kind < 4) {
        const int id = next_id++;
        const double when = queue.now() + offset();
        const bool model_ok = model.schedule(when, id);
        try {
          tokens[id] = queue.schedule(when, action_for(id));
          EXPECT_TRUE(model_ok) << "seed " << seed << " op " << op;
        } catch (const std::invalid_argument&) {
          EXPECT_FALSE(model_ok) << "seed " << seed << " op " << op;
        }
      } else if (kind < 6) {
        // Any id ever issued: live, fired, cancelled or never scheduled.
        const int id = pick(next_id + 1);
        const auto it = tokens.find(id);
        if (it != tokens.end()) {
          EXPECT_EQ(queue.cancel(it->second), model.cancel(id))
              << "seed " << seed << " op " << op;
        }
      } else if (kind < 8) {
        const bool stepped = queue.step();
        EXPECT_EQ(stepped, model_fired_one(model.step()))
            << "seed " << seed << " op " << op;
      } else if (kind < 9) {
        const double t = queue.now() + offset();
        const bool stepped = queue.step_before(t);
        EXPECT_EQ(stepped, model_fired_one(model.step_before(t)))
            << "seed " << seed << " op " << op;
      } else {
        const double t = queue.now() + offset();
        int outcome = 0;
        try {
          queue.advance_to(t);
        } catch (const std::invalid_argument&) {
          outcome = 1;
        } catch (const std::logic_error&) {
          outcome = 2;
        }
        EXPECT_EQ(outcome, model.advance_to(t))
            << "seed " << seed << " op " << op;
      }
      ASSERT_EQ(real_fired, model_fired) << "seed " << seed << " op " << op;
      ASSERT_EQ(queue.now(), model.now()) << "seed " << seed << " op " << op;
      ASSERT_EQ(queue.pending(), model.size()) << "seed " << seed;
      ASSERT_EQ(queue.empty(), model.size() == 0) << "seed " << seed;
    }
    while (queue.step()) {
    }
    while (model_fired_one(model.step())) {
    }
    EXPECT_EQ(real_fired, model_fired) << "seed " << seed;
  }
}

}  // namespace
}  // namespace bevr::sim
