#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "des/rng.hpp"
#include "des/scheduler.hpp"
#include "des/timer.hpp"
#include "util/contracts.hpp"

namespace rrnet::des {
namespace {

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(3.0, [&]() { order.push_back(3); });
  sched.schedule_at(1.0, [&]() { order.push_back(1); });
  sched.schedule_at(2.0, [&]() { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sched.now(), 3.0);
  EXPECT_EQ(sched.executed_count(), 3u);
}

TEST(Scheduler, EqualTimesRunFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(1.0, [&, i]() { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, RejectsPastAndNullCallbacks) {
  Scheduler sched;
  sched.schedule_at(5.0, []() {});
  sched.run();
  EXPECT_THROW(sched.schedule_at(4.0, []() {}), rrnet::ContractViolation);
  EXPECT_THROW(sched.schedule_in(-1.0, []() {}), rrnet::ContractViolation);
  EXPECT_THROW(sched.schedule_at(6.0, nullptr), rrnet::ContractViolation);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool ran = false;
  const EventId id = sched.schedule_at(1.0, [&]() { ran = true; });
  EXPECT_TRUE(sched.pending(id));
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.pending(id));
  EXPECT_FALSE(sched.cancel(id));  // second cancel is a no-op
  sched.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sched.executed_count(), 0u);
}

TEST(Scheduler, SlotReuseDoesNotResurrectOldIds) {
  Scheduler sched;
  int fired = 0;
  const EventId first = sched.schedule_at(1.0, [&]() { ++fired; });
  sched.cancel(first);
  // New event likely reuses the slot; the old id must stay dead.
  const EventId second = sched.schedule_at(2.0, [&]() { ++fired; });
  EXPECT_FALSE(sched.pending(first));
  EXPECT_TRUE(sched.pending(second));
  EXPECT_FALSE(sched.cancel(first));
  sched.run();
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, ScheduleDuringCallback) {
  Scheduler sched;
  std::vector<std::string> log;
  sched.schedule_at(1.0, [&]() {
    log.push_back("a");
    sched.schedule_in(0.5, [&]() { log.push_back("b"); });
  });
  sched.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b"}));
  EXPECT_DOUBLE_EQ(sched.now(), 1.5);
}

TEST(Scheduler, CancelDuringCallback) {
  Scheduler sched;
  bool second_ran = false;
  EventId second{};
  second = sched.schedule_at(2.0, [&]() { second_ran = true; });
  sched.schedule_at(1.0, [&]() { sched.cancel(second); });
  sched.run();
  EXPECT_FALSE(second_ran);
}

TEST(Scheduler, RunUntilAdvancesClockToHorizon) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(1.0, [&]() { ++fired; });
  sched.schedule_at(5.0, [&]() { ++fired; });
  sched.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sched.now(), 3.0);
  EXPECT_EQ(sched.pending_count(), 1u);
  sched.run_until(10.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sched.now(), 10.0);
}

TEST(Scheduler, RunUntilIncludesBoundary) {
  Scheduler sched;
  bool ran = false;
  sched.schedule_at(3.0, [&]() { ran = true; });
  sched.run_until(3.0);
  EXPECT_TRUE(ran);
}

TEST(Scheduler, StepExecutesExactlyOne) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(1.0, [&]() { ++fired; });
  sched.schedule_at(2.0, [&]() { ++fired; });
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sched.step());
  EXPECT_FALSE(sched.step());
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, PendingCountTracksLiveEvents) {
  Scheduler sched;
  const EventId a = sched.schedule_at(1.0, []() {});
  sched.schedule_at(2.0, []() {});
  EXPECT_EQ(sched.pending_count(), 2u);
  sched.cancel(a);
  EXPECT_EQ(sched.pending_count(), 1u);
  sched.run();
  EXPECT_EQ(sched.pending_count(), 0u);
}

TEST(Scheduler, ManyInterleavedScheduleCancels) {
  Scheduler sched;
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(
        sched.schedule_at(1.0 + 0.001 * i, [&]() { ++fired; }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) sched.cancel(ids[i]);
  sched.run();
  EXPECT_EQ(fired, 500);
}

TEST(Scheduler, AdvanceIfNextRefusesAtEqualPendingTime) {
  // A re-push at an occupied time would sort after the queued event (by
  // sequence), so taking that time in place would jump the FIFO.
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(1.0, [&]() {
    order.push_back(1);
    EXPECT_FALSE(sched.advance_if_next(2.0));
    EXPECT_DOUBLE_EQ(sched.now(), 1.0);
    EXPECT_TRUE(sched.advance_if_next(1.5));
    EXPECT_DOUBLE_EQ(sched.now(), 1.5);
    order.push_back(15);
  });
  sched.schedule_at(2.0, [&]() { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 15, 2}));
  EXPECT_EQ(sched.executed_count(), 2u);
  EXPECT_EQ(sched.inline_advance_count(), 1u);
}

TEST(Scheduler, AdvanceIfNextStaysWithinRunUntil) {
  Scheduler sched;
  sched.schedule_at(1.0, [&]() {
    EXPECT_FALSE(sched.advance_if_next(3.5));
    EXPECT_TRUE(sched.advance_if_next(3.0));  // the bound is inclusive
  });
  sched.run_until(3.0);
  EXPECT_DOUBLE_EQ(sched.now(), 3.0);
  // Both overloads bound it; run() does not.
  sched.schedule_at(4.0, [&]() { EXPECT_FALSE(sched.advance_if_next(6.0)); });
  EXPECT_TRUE(sched.run_until(5.0, 10));
  sched.schedule_at(6.0, [&]() { EXPECT_TRUE(sched.advance_if_next(1e9)); });
  sched.run();
  EXPECT_DOUBLE_EQ(sched.now(), 1e9);
  EXPECT_EQ(sched.inline_advance_count(), 2u);
}

TEST(Scheduler, AdvanceIfNextFromBareStepNeedsStopTime) {
  Scheduler sched;
  bool advanced = true;
  sched.schedule_at(1.0, [&]() { advanced = sched.advance_if_next(2.0); });
  EXPECT_TRUE(sched.step());
  EXPECT_FALSE(advanced);  // no stop time: a bare step has no bound
  // A run_until in between restores the no-bound state for bare steps.
  sched.run_until(1.5);
  sched.schedule_at(2.0, [&]() { advanced = sched.advance_if_next(3.0); });
  EXPECT_TRUE(sched.step());
  EXPECT_FALSE(advanced);

  sched.set_stop_time(4.0);
  sched.schedule_at(3.0, [&]() { advanced = sched.advance_if_next(4.0); });
  EXPECT_TRUE(sched.step());
  EXPECT_TRUE(advanced);
  sched.schedule_at(5.0, [&]() { advanced = sched.advance_if_next(6.0); });
  EXPECT_TRUE(sched.step());
  EXPECT_FALSE(advanced);  // past the stop time
  EXPECT_EQ(sched.inline_advance_count(), 1u);
}

TEST(Scheduler, AdvanceIfNextSettlesCancelledEntries) {
  Scheduler sched;
  const EventId earlier = sched.schedule_at(1.5, []() { ADD_FAILURE(); });
  const EventId tied = sched.schedule_at(2.0, []() { ADD_FAILURE(); });
  sched.schedule_at(1.0, [&]() {
    EXPECT_FALSE(sched.advance_if_next(2.0));  // both still pending
    sched.cancel(earlier);
    sched.cancel(tied);
    EXPECT_TRUE(sched.advance_if_next(2.0));  // only cancelled entries left
  });
  sched.run();
  EXPECT_EQ(sched.executed_count(), 1u);
  EXPECT_EQ(sched.pending_count(), 0u);
  EXPECT_DOUBLE_EQ(sched.now(), 2.0);
}

TEST(Timer, FiresAfterDelay) {
  Scheduler sched;
  Timer timer(sched);
  bool fired = false;
  timer.start(2.0, [&]() { fired = true; });
  EXPECT_TRUE(timer.active());
  EXPECT_DOUBLE_EQ(timer.expiry(), 2.0);
  sched.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(timer.active());
}

TEST(Timer, CancelStopsFiring) {
  Scheduler sched;
  Timer timer(sched);
  bool fired = false;
  timer.start(1.0, [&]() { fired = true; });
  EXPECT_TRUE(timer.cancel());
  EXPECT_FALSE(timer.cancel());
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(Timer, RestartReplacesPending) {
  Scheduler sched;
  Timer timer(sched);
  int which = 0;
  timer.start(1.0, [&]() { which = 1; });
  timer.start(2.0, [&]() { which = 2; });
  sched.run();
  EXPECT_EQ(which, 2);
  EXPECT_DOUBLE_EQ(sched.now(), 2.0);
  EXPECT_EQ(sched.executed_count(), 1u);
}

TEST(Timer, DestructionCancels) {
  Scheduler sched;
  bool fired = false;
  {
    Timer timer(sched);
    timer.start(1.0, [&]() { fired = true; });
  }
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(Timer, MoveTransfersOwnership) {
  Scheduler sched;
  bool fired = false;
  Timer a(sched);
  a.start(1.0, [&]() { fired = true; });
  Timer b = std::move(a);
  EXPECT_TRUE(b.active());
  sched.run();
  EXPECT_TRUE(fired);
}

TEST(Timer, RearmFromInsideCallback) {
  Scheduler sched;
  Timer timer(sched);
  int count = 0;
  std::function<void()> tick = [&]() {
    if (++count < 5) timer.start(1.0, tick);
  };
  timer.start(1.0, tick);
  sched.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sched.now(), 5.0);
}

// Property: an arbitrary interleaving of schedules executes in
// nondecreasing time order.
class SchedulerOrderTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerOrderTest, TimesNondecreasing) {
  Scheduler sched;
  std::uint64_t state = GetParam();
  std::vector<Time> executed;
  for (int i = 0; i < 200; ++i) {
    const Time t = static_cast<double>(splitmix64(state) % 1000) / 100.0;
    sched.schedule_at(t, [&, t]() {
      executed.push_back(t);
      // Occasionally chain another event.
      if (executed.size() % 7 == 0) {
        sched.schedule_in(0.01, [&]() { executed.push_back(sched.now()); });
      }
    });
  }
  sched.run();
  for (std::size_t i = 1; i < executed.size(); ++i) {
    EXPECT_LE(executed[i - 1], executed[i] + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerOrderTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 999u));

// Property: among events sharing a timestamp, execution order equals
// insertion order (FIFO) — even under heavy cancel/reschedule churn, which
// recycles slots and generations aggressively. The captures here are sized
// like the channel hot path to exercise InlineCallback's inline storage.
class SchedulerFifoChurnTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SchedulerFifoChurnTest, SameTimestampFifoSurvivesChurn) {
  Scheduler sched;
  std::uint64_t state = GetParam();
  struct Record {
    Time t;
    int serial;
  };
  std::vector<Record> executed;
  struct Pending {
    EventId id;
    bool cancelled = false;
  };
  std::vector<Pending> pending;
  int serial = 0;
  // Events land on a coarse grid of 8 timestamps so ties are common.
  auto schedule_one = [&]() {
    const Time t = 1.0 + static_cast<double>(splitmix64(state) % 8);
    const int s = serial++;
    double pad[4] = {t, 0.0, 0.0, 0.0};  // inflate capture toward the budget
    pending.push_back({sched.schedule_at(t, [&executed, t, s, pad]() {
                         executed.push_back({t + 0.0 * pad[0], s});
                       })});
  };
  for (int round = 0; round < 120; ++round) {
    schedule_one();
    schedule_one();
    schedule_one();
    // Cancel a pseudo-random pending event...
    const std::size_t victim = splitmix64(state) % pending.size();
    if (!pending[victim].cancelled && sched.cancel(pending[victim].id)) {
      pending[victim].cancelled = true;
      // ...and replace it with a later-inserted event (fresh serial).
      schedule_one();
    }
  }
  sched.run();
  std::size_t survivors = 0;
  for (const Pending& p : pending) {
    if (!p.cancelled) ++survivors;
  }
  ASSERT_EQ(executed.size(), survivors);
  for (std::size_t i = 1; i < executed.size(); ++i) {
    const Record& a = executed[i - 1];
    const Record& b = executed[i];
    ASSERT_LE(a.t, b.t);
    if (a.t == b.t) {
      EXPECT_LT(a.serial, b.serial)
          << "FIFO violated at t=" << a.t << " position " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFifoChurnTest,
                         ::testing::Values(7u, 1234u, 0xDEADBEEFu));

// Property: self-rescheduling walkers that take their next step in place
// whenever advance_if_next allows execute exactly the (time, label)
// sequence of the same walkers re-pushing every step — with dues on a
// grid (ties with other walkers and with side events spawned at the
// current time) and a run_until boundary mid-walk.
std::vector<std::pair<Time, int>> run_walkers(std::uint64_t seed,
                                              bool in_place,
                                              std::uint64_t& folded) {
  Scheduler sched;
  std::uint64_t state = seed;
  std::vector<std::pair<Time, int>> log;
  // Dues step by 0..15 sixteenths: equal dues within a walker, ties
  // across walkers and side events, and free gaps all occur.
  const auto tick = [&state](std::uint64_t n) {
    return static_cast<double>(splitmix64(state) % n) / 16.0;
  };
  std::vector<std::vector<Time>> dues(4);
  std::vector<std::size_t> next(dues.size(), 0);
  for (std::vector<Time>& d : dues) {
    Time t = tick(16);
    for (int k = 0; k < 40; ++k) {
      t += tick(16);
      d.push_back(t);
    }
  }
  std::function<void(int)> walk = [&](int w) {
    const std::vector<Time>& d = dues[static_cast<std::size_t>(w)];
    std::size_t& i = next[static_cast<std::size_t>(w)];
    for (; i < d.size(); ++i) {
      if (d[i] > sched.now() &&
          (!in_place || !sched.advance_if_next(d[i]))) {
        sched.schedule_at(d[i], [&walk, w]() { walk(w); });
        return;
      }
      log.emplace_back(sched.now(), w);
      if (splitmix64(state) % 3 == 0) {
        const int label = 100 + static_cast<int>(log.size());
        sched.schedule_in(tick(3), [&log, &sched, label]() {
          log.emplace_back(sched.now(), label);
        });
      }
    }
  };
  for (int w = 0; w < static_cast<int>(dues.size()); ++w) {
    sched.schedule_at(dues[static_cast<std::size_t>(w)].front(),
                      [&walk, w]() { walk(w); });
  }
  sched.run_until(5.0);
  sched.run();
  folded = sched.inline_advance_count();
  return log;
}

class InPlaceAdvanceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InPlaceAdvanceTest, MatchesReschedulingEveryStep) {
  std::uint64_t none = 0;
  std::uint64_t folded = 0;
  const auto rescheduled = run_walkers(GetParam(), false, none);
  const auto in_place = run_walkers(GetParam(), true, folded);
  EXPECT_EQ(none, 0u);
  EXPECT_GT(folded, 0u);
  EXPECT_EQ(in_place, rescheduled);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InPlaceAdvanceTest,
                         ::testing::Values(3u, 77u, 2024u, 0xC0FFEEu));

TEST(InlineCallback, MoveTransfersAndEmptiesSource) {
  int hits = 0;
  InlineCallback a([&hits]() { ++hits; });
  EXPECT_TRUE(static_cast<bool>(a));
  InlineCallback b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
  b = nullptr;
  EXPECT_TRUE(b == nullptr);
}

TEST(InlineCallback, DestroysCaptureOnResetAndCancel) {
  auto token = std::make_shared<int>(42);
  {
    InlineCallback cb([token]() {});
    EXPECT_EQ(token.use_count(), 2);
    cb.reset();
    EXPECT_EQ(token.use_count(), 1);
  }
  // Cancelling a scheduled event must release its capture immediately, not
  // at slot-reuse time: protocol code relies on timers dropping references.
  Scheduler sched;
  const EventId id = sched.schedule_at(1.0, [token]() {});
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineCallback, CapturesUpToCapacityInline) {
  // A capture exactly at the budget must be storable (compile-time check);
  // anything larger is a static_assert at the schedule site.
  struct Payload {
    std::byte bytes[InlineCallback::kCapacity - sizeof(void*)];
  };
  static_assert(sizeof(Payload) + sizeof(void*) <= InlineCallback::kCapacity);
  int hits = 0;
  Payload p{};
  int* hp = &hits;
  InlineCallback cb([p, hp]() {
    (void)p;
    ++*hp;
  });
  cb();
  EXPECT_EQ(hits, 1);
}

}  // namespace
}  // namespace rrnet::des
