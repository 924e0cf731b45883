// des::LadderQueue: ordering, FIFO discipline, allocation-free reuse, a
// randomized model test, a heap-vs-ladder cross-check on one workload, and
// the Scheduler built on it against a sorted reference under churn.
#include "des/ladder_queue.hpp"

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "des/quad_heap.hpp"
#include "des/rng.hpp"
#include "des/scheduler.hpp"

namespace rrnet::des {
namespace {

struct Keyed {
  double key;
  std::uint64_t sequence;  // insertion order, for FIFO among equal keys
};
struct KeyedTime {
  Time operator()(const Keyed& k) const noexcept { return k.key; }
};
struct KeyedBefore {
  bool operator()(const Keyed& a, const Keyed& b) const noexcept {
    if (a.key != b.key) return a.key < b.key;
    return a.sequence < b.sequence;
  }
};
using KeyedLadder = LadderQueue<Keyed, KeyedTime, KeyedBefore>;

TEST(LadderQueue, PopsInSortedOrder) {
  KeyedLadder queue;
  const std::vector<double> input = {7, 3, 9, 1, 4, 1, 8, 2, 6, 5, 0, 9};
  std::vector<Keyed> expected;
  for (std::size_t i = 0; i < input.size(); ++i) {
    queue.push({input[i], i});
    expected.push_back({input[i], i});
  }
  std::sort(expected.begin(), expected.end(), KeyedBefore{});
  for (const Keyed& e : expected) {
    ASSERT_FALSE(queue.empty());
    const Keyed got = queue.pop_top();
    EXPECT_EQ(got.key, e.key);
    EXPECT_EQ(got.sequence, e.sequence);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(LadderQueue, SingleElementAndClear) {
  KeyedLadder queue;
  EXPECT_TRUE(queue.empty());
  queue.push({42.0, 0});
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.top().key, 42.0);
  queue.pop();
  EXPECT_TRUE(queue.empty());
  queue.push({1.0, 1});
  queue.clear();
  EXPECT_TRUE(queue.empty());
  // Usable after clear, including times below anything seen before.
  queue.push({0.5, 2});
  queue.push({0.25, 3});
  EXPECT_EQ(queue.pop_top().key, 0.25);
  EXPECT_EQ(queue.pop_top().key, 0.5);
}

// Randomized property test mirroring the QuadHeap one: interleaved pushes
// and pops against a sorted reference model must agree exactly, including
// FIFO among equal keys. Key range deliberately small so bucket collisions
// and rung refinement are constantly exercised.
TEST(LadderQueue, MatchesReferenceModelUnderRandomWorkload) {
  std::mt19937_64 gen(0xC0FFEE);
  std::uniform_int_distribution<int> key_dist(0, 19);  // frequent ties
  std::uniform_int_distribution<int> op_dist(0, 99);

  KeyedLadder queue;
  std::vector<Keyed> model;  // kept sorted by (key, sequence)
  const KeyedBefore before{};
  std::uint64_t next_sequence = 0;

  for (int step = 0; step < 20000; ++step) {
    const bool do_push = model.empty() || op_dist(gen) < 55;
    if (do_push) {
      const Keyed item{static_cast<double>(key_dist(gen)), next_sequence++};
      queue.push(item);
      model.insert(std::upper_bound(model.begin(), model.end(), item, before),
                   item);
    } else {
      ASSERT_FALSE(queue.empty());
      const Keyed& expected = model.front();
      ASSERT_EQ(queue.top().key, expected.key) << "step " << step;
      ASSERT_EQ(queue.top().sequence, expected.sequence) << "step " << step;
      queue.pop();
      model.erase(model.begin());
    }
    ASSERT_EQ(queue.size(), model.size());
  }
  while (!queue.empty()) {
    const Keyed got = queue.pop_top();
    ASSERT_EQ(got.sequence, model.front().sequence);
    model.erase(model.begin());
  }
  EXPECT_TRUE(model.empty());
}

// Equal keys must drain strictly in insertion order — including across the
// overflow threshold (entries with the same timestamp split between a
// rebuilt rung and the overflow region pushed afterwards).
TEST(LadderQueue, FifoAmongEqualKeys) {
  KeyedLadder queue;
  for (std::uint64_t i = 0; i < 100; ++i) queue.push({5.0, i});
  // Force a rebuild so the first batch lands in rungs/bottom, then push
  // more entries at the same key (they land in overflow).
  EXPECT_EQ(queue.top().sequence, 0u);
  for (std::uint64_t i = 100; i < 200; ++i) queue.push({5.0, i});
  for (std::uint64_t i = 0; i < 200; ++i) {
    ASSERT_EQ(queue.pop_top().sequence, i);
  }
}

// Heap and ladder driven through one random schedule/pop workload must pop
// in identical order — the property the scheduler's backend switch (and the
// bit-identical replication guarantee) rests on.
TEST(LadderQueue, CrossCheckAgainstQuadHeapOnRandomWorkload) {
  std::mt19937_64 gen(0xBADC0DE);
  std::uniform_real_distribution<double> time_dist(0.0, 64.0);
  std::uniform_int_distribution<int> op_dist(0, 99);
  std::uniform_int_distribution<int> burst_dist(1, 24);

  QuadHeap<Keyed, KeyedBefore> heap;
  KeyedLadder ladder;
  std::uint64_t next_sequence = 0;
  double now = 0.0;  // scheduler-like: pushes never go below the pop frontier

  for (int step = 0; step < 30000; ++step) {
    if (heap.empty() || op_dist(gen) < 55) {
      const int burst = burst_dist(gen);
      for (int i = 0; i < burst; ++i) {
        const Keyed item{now + time_dist(gen), next_sequence++};
        heap.push(item);
        ladder.push(item);
      }
    } else {
      ASSERT_FALSE(ladder.empty());
      const Keyed a = heap.pop_top();
      const Keyed b = ladder.pop_top();
      ASSERT_EQ(a.key, b.key) << "step " << step;
      ASSERT_EQ(a.sequence, b.sequence) << "step " << step;
      now = a.key;
    }
  }
  while (!heap.empty()) {
    ASSERT_FALSE(ladder.empty());
    ASSERT_EQ(heap.pop_top().sequence, ladder.pop_top().sequence);
  }
  EXPECT_TRUE(ladder.empty());
}

// Same-timestamp FIFO across the full Scheduler under cancel/reschedule
// churn (mirrors the QuadHeapScheduler test).
TEST(LadderScheduler, SameTimestampFifoUnderChurn) {
  Scheduler sched;
  std::vector<int> order;
  std::vector<EventId> cancelled;
  constexpr Time kT = 1.0;
  int expected_rank = 0;
  for (int round = 0; round < 50; ++round) {
    cancelled.push_back(sched.schedule_at(kT, [&]() { ADD_FAILURE(); }));
    const int rank = expected_rank++;
    sched.schedule_at(kT, [&order, rank]() { order.push_back(rank); });
    cancelled.push_back(sched.schedule_at(kT, [&]() { ADD_FAILURE(); }));
  }
  for (EventId id : cancelled) EXPECT_TRUE(sched.cancel(id));
  for (int round = 0; round < 50; ++round) {
    const int rank = expected_rank++;
    sched.schedule_at(kT, [&order, rank]() { order.push_back(rank); });
  }
  sched.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

// A randomized schedule/cancel workload runs exactly its uncancelled
// events, in (time, insertion) order: the insertion sequence stably sorted
// by time.
TEST(LadderScheduler, ChurnMatchesStableSortReference) {
  struct Scheduled {
    Time at;
    std::uint64_t tag;
    bool cancelled;
  };
  Scheduler sched;
  Rng rng(77);
  std::vector<std::uint64_t> order;
  std::vector<Scheduled> reference;
  std::vector<EventId> ids;
  for (int round = 0; round < 40; ++round) {
    const std::size_t first = reference.size();
    for (std::uint64_t i = 0; i < 200; ++i) {
      const std::uint64_t tag = round * 1000 + i;
      const Time delay = rng.uniform01() * 4.0;
      reference.push_back({sched.now() + delay, tag, false});
      ids.push_back(
          sched.schedule_in(delay, [&order, tag]() { order.push_back(tag); }));
    }
    for (std::size_t i = 0; i < ids.size(); i += 3) {
      EXPECT_TRUE(sched.cancel(ids[i]));
      reference[first + i].cancelled = true;
    }
    ids.clear();
    sched.run_until(sched.now() + 1.0);
  }
  sched.run();

  std::erase_if(reference, [](const Scheduled& e) { return e.cancelled; });
  std::stable_sort(reference.begin(), reference.end(),
                   [](const Scheduled& a, const Scheduled& b) {
                     return a.at < b.at;
                   });
  std::vector<std::uint64_t> expected;
  for (const Scheduled& e : reference) expected.push_back(e.tag);
  EXPECT_EQ(order, expected);
}

}  // namespace
}  // namespace rrnet::des
