// Discrete-event scheduler with O(1)-amortized insertion and cancellation.
//
// Events are callbacks stored in generation-stamped slots; a priority queue
// holds (time, sequence, slot, generation) entries. Cancellation bumps the
// slot generation, so stale queue entries are skipped lazily at pop time.
// Ties in time are executed in insertion order, which makes simulations
// deterministic even when two events share a timestamp.
//
// The queue is a des::LadderQueue, O(1) amortized: pushes append to time
// buckets, and comparisons are spent only on the few imminent events. It
// applies the same strict (time, sequence) order as the des::QuadHeap it
// is validated against (tests/ladder_queue_test.cpp).
//
// Callbacks are des::InlineCallback, not std::function: captures live inside
// the pooled slot (zero heap allocations per event in steady state) and a
// capture larger than the inline budget is a compile-time error.
//
// A self-rescheduling event whose next firing would be the very next event
// anyway can take it in place with advance_if_next(): the clock moves, the
// queue is untouched, and the simulated order is exactly what the re-push
// would have produced (DESIGN.md §7, "In-place advance").
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "des/inline_callback.hpp"
#include "des/ladder_queue.hpp"
#include "des/time.hpp"
#include "util/contracts.hpp"

namespace rrnet::des {

/// Opaque handle to a scheduled event; value-semantic and cheap to copy.
struct EventId {
  std::uint32_t slot = kInvalidSlot;
  std::uint32_t generation = 0;

  static constexpr std::uint32_t kInvalidSlot = ~0u;
  [[nodiscard]] bool valid() const noexcept { return slot != kInvalidSlot; }
  friend bool operator==(const EventId&, const EventId&) = default;
};

class Scheduler {
 public:
  using Callback = InlineCallback;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time (0 before any event runs).
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedule cb at absolute time t; requires t >= now(). The template
  /// overload constructs the callable directly in its event slot (no
  /// InlineCallback temporary, no indirect relocate — this is the hot
  /// path, run once per scheduled event); the Callback overload serves
  /// callers that already hold a built InlineCallback.
  template <typename F,
            typename = decltype(std::declval<Callback&>().emplace(
                std::declval<F>()))>
  EventId schedule_at(Time t, F&& f) {
    RRNET_EXPECTS(t >= now_);
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.callback.emplace(std::forward<F>(f));
    s.live = true;
    ++live_;
    queue_.push(HeapEntry{t, next_sequence_++, slot, s.generation});
    return EventId{slot, s.generation};
  }
  EventId schedule_at(Time t, Callback cb);
  /// Schedule cb after a nonnegative delay.
  template <typename F,
            typename = decltype(std::declval<Callback&>().emplace(
                std::declval<F>()))>
  EventId schedule_in(Time delay, F&& f) {
    RRNET_EXPECTS(delay >= 0.0);
    return schedule_at(now_ + delay, std::forward<F>(f));
  }
  EventId schedule_in(Time delay, Callback cb);

  /// Cancel a pending event. Returns true iff the event was still pending.
  bool cancel(EventId id) noexcept;
  /// True iff the event is scheduled and not yet executed or cancelled.
  [[nodiscard]] bool pending(EventId id) const noexcept;

  /// Run until the queue drains.
  void run();
  /// Run events with time <= t_end, then advance the clock to t_end.
  void run_until(Time t_end);
  /// Bounded slice of run_until: execute at most `max_events` events with
  /// time <= t_end. Advances the clock to t_end (and returns true) only
  /// once every such event has run, so repeated calls execute exactly the
  /// sequence the unbounded overload would. The run-health monitor's
  /// serial sampling loop drives this between checkpoints.
  bool run_until(Time t_end, std::uint64_t max_events);
  /// Execute at most one event; returns false when the queue is empty.
  bool step();

  /// Move the clock to `t` (>= now()) in place, without a queue push or
  /// pop, iff an event scheduled now at `t` would be the next to run:
  /// every live pending event is strictly later than `t` (an equal time
  /// refuses — a re-push would sort after it by sequence), and `t` lies
  /// within the enclosing run's bound: run_until's t_end, none under
  /// run(), the stop time under a bare step(). Returns whether it moved.
  /// Meant for an executing callback that would otherwise reschedule
  /// itself at `t`: it continues in place instead.
  bool advance_if_next(Time t);
  /// Bound on in-place advances for steps taken outside run()/run_until()
  /// (a bare step() loop up to `t` then folds what run_until(t) folds).
  /// Until set, a bare step() never advances in place.
  void set_stop_time(Time t) noexcept { advance_bound_ = t; }

  /// Absolute time of the earliest live pending event, or +infinity when
  /// the queue holds none. Non-const: cancelled entries at the top are
  /// discarded lazily on the way (the same settle run_until/step pay). The
  /// sharded engine derives its conservative time-window bound from this.
  [[nodiscard]] Time next_event_time() noexcept;

  [[nodiscard]] std::size_t pending_count() const noexcept { return live_; }
  [[nodiscard]] std::uint64_t executed_count() const noexcept {
    return executed_;
  }
  /// Successful advance_if_next() calls: steps a callback took in place,
  /// each one an event the queue would otherwise have executed.
  [[nodiscard]] std::uint64_t inline_advance_count() const noexcept {
    return inline_advances_;
  }
  /// Deepest the event queue has ever been (queue-pressure gauge).
  [[nodiscard]] std::size_t heap_high_water() const noexcept {
    return queue_.high_water();
  }

 private:
  struct HeapEntry {
    Time time;
    std::uint64_t sequence;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct Earlier {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
      if (a.time != b.time) return a.time < b.time;
      return a.sequence < b.sequence;  // FIFO among equal times
    }
  };
  struct EntryTime {
    Time operator()(const HeapEntry& e) const noexcept { return e.time; }
  };
  struct Slot {
    Callback callback;
    std::uint32_t generation = 0;
    bool live = false;
  };

  /// Pop entries until the top is live; returns false if the queue empties.
  bool settle_top() noexcept;
  std::uint32_t acquire_slot();

  LadderQueue<HeapEntry, EntryTime, Earlier> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  Time now_ = 0.0;
  /// Latest time advance_if_next() may reach: the stop time between run
  /// loops, the loop's own bound inside one.
  Time advance_bound_ = -std::numeric_limits<Time>::infinity();
  std::uint64_t next_sequence_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t inline_advances_ = 0;
  std::size_t live_ = 0;
};

}  // namespace rrnet::des
