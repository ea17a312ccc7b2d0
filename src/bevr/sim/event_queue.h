// Discrete-event scheduler: a time-ordered queue of callbacks with
// FIFO tie-breaking and O(1) cancellation. Shared by the flow-level
// simulator (bevr::sim), the network experiment (bevr::net), and the
// flow engine (bevr::admission) that admission and network (bevr::net2)
// policies replay through, which retracts scheduled events (a
// pre-start cancellation retracts the flow's start) and streams its
// trace submits through step_before() and advance_to() rather than
// scheduling them up front.
//
// Layout (DESIGN.md §2.5): a std::vector binary heap of 24-byte
// {time, seq, slot} entries over a free-list-recycled table of
// actions, which step() moves out before running. A token is
// (generation, slot); freeing a slot advances its generation, so a
// stale token never matches a later occupant, and a slot whose
// generation would wrap is retired: no token is ever issued twice.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace bevr::sim {

class EventQueue {
 public:
  using Action = std::function<void()>;
  /// Token identifying one scheduled event; valid until the event
  /// fires or is cancelled. Tokens are never reused within a queue.
  using EventId = std::uint64_t;

  /// Schedule `action` at absolute time `when` (must not precede now();
  /// NaN throws). Returns a token that cancel() accepts; callers that
  /// never cancel can ignore it.
  EventId schedule(double when, Action action) {
    if (!(when >= now_)) {
      throw std::invalid_argument("EventQueue: time is NaN or in the past");
    }
    std::uint32_t index = 0;
    if (free_.empty()) {
      if (slots_.size() > kSlotMask) {
        throw std::length_error("EventQueue: slot table is full");
      }
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      index = free_.back();
      free_.pop_back();
    }
    Slot& slot = slots_[index];
    slot.action = std::move(action);
    slot.live = true;
    ++live_;
    heap_.push_back(Entry{when, next_seq_++, index});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return (EventId{slot.generation} << 32) | index;
  }

  /// Schedule `action` `delay` after the current time.
  EventId schedule_in(double delay, Action action) {
    return schedule(now_ + delay, std::move(action));
  }

  /// Retract a pending event: it will never fire, and its action is
  /// destroyed now (the heap entry is discarded when it reaches the
  /// top). Returns false when the token is unknown, already fired, or
  /// already cancelled, so double-cancel and cancel-after-fire are
  /// harmless no-ops.
  bool cancel(EventId id) {
    const auto index = static_cast<std::size_t>(id & kSlotMask);
    if (index >= slots_.size()) return false;
    Slot& slot = slots_[index];
    if (!slot.live || slot.generation != static_cast<std::uint32_t>(id >> 32)) {
      return false;
    }
    slot.live = false;
    slot.action = nullptr;
    --live_;
    return true;
  }

  /// True when no live (uncancelled) events remain.
  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] double now() const { return now_; }
  /// Live events only; cancelled entries still parked in the heap do
  /// not count.
  [[nodiscard]] std::size_t pending() const { return live_; }

  /// Pop and run the earliest live event; advances now(). Cancelled
  /// events are skipped silently (they advance neither the clock nor
  /// the FIFO order of survivors). Returns false when no live event
  /// remains.
  bool step() {
    purge_cancelled();
    if (heap_.empty()) return false;
    fire_top();
    return true;
  }

  /// step(), but only if the earliest live event is due strictly before
  /// `t`; returns false (running nothing) otherwise. A driver streaming
  /// external arrivals calls this until it returns false, then
  /// advance_to(t), then handles the arrival — which therefore runs
  /// before every event queued for the same instant.
  bool step_before(double t) {
    if (std::isnan(t)) throw std::invalid_argument("EventQueue: time is NaN");
    purge_cancelled();
    if (heap_.empty() || !(heap_.front().time < t)) return false;
    fire_top();
    return true;
  }

  /// Move the clock forward to `t` without running anything. Throws
  /// std::invalid_argument when `t` precedes now() or is NaN, and
  /// std::logic_error when a live event is due before `t` (it would
  /// otherwise fire in the past).
  void advance_to(double t) {
    if (!(t >= now_)) {
      throw std::invalid_argument("EventQueue: time is NaN or in the past");
    }
    purge_cancelled();
    if (!heap_.empty() && heap_.front().time < t) {
      throw std::logic_error("EventQueue: advance_to would skip an event");
    }
    now_ = t;
  }

  /// Run until the live queue drains or the clock passes `horizon`.
  void run_until(double horizon) {
    if (std::isnan(horizon)) {
      throw std::invalid_argument("EventQueue: horizon is NaN");
    }
    for (;;) {
      purge_cancelled();
      if (heap_.empty() || heap_.front().time > horizon) break;
      fire_top();
    }
    now_ = std::max(now_, horizon);
  }

 private:
  static constexpr std::uint64_t kSlotMask = 0xFFFF'FFFFu;

  struct Entry {
    double time;
    std::uint64_t seq;   // FIFO among simultaneous events
    std::uint32_t slot;  // index into slots_
  };
  static_assert(sizeof(Entry) == 24);

  /// Heap order: `a` fires after `b` (std heaps keep the max on top).
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// A slot stays occupied from schedule() until its heap entry is
  /// popped, so the entry's slot index never names a later occupant.
  struct Slot {
    Action action;
    std::uint32_t generation = 0;
    bool live = false;  // scheduled and not cancelled
  };

  Entry pop_top() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry top = heap_.back();
    heap_.pop_back();
    return top;
  }

  /// Return a popped entry's slot to the free list, retiring it rather
  /// than letting its generation wrap back to an issued value.
  void release(std::uint32_t index) {
    Slot& slot = slots_[index];
    slot.live = false;
    if (++slot.generation != 0) free_.push_back(index);
  }

  /// Drop cancelled entries sitting at the top of the heap so front()
  /// always describes the next event that will actually fire.
  void purge_cancelled() {
    while (!heap_.empty() && !slots_[heap_.front().slot].live) {
      release(pop_top().slot);
    }
  }

  /// Pop the (live) top entry, advance the clock and run its action.
  /// The action is moved out and the slot freed first, so the action
  /// may schedule or cancel freely.
  void fire_top() {
    const Entry top = pop_top();
    Action action = std::exchange(slots_[top.slot].action, nullptr);
    release(top.slot);
    --live_;
    now_ = top.time;
    action();
  }

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace bevr::sim
