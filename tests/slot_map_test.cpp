// phy::SignalMap: slot reuse, dense-sum semantics, exhaustion/growth, and
// the exact-zero total-power reset the carrier-sense drift fix rests on.
#include "phy/signal_map.hpp"

#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace rrnet::phy {
namespace {

TEST(SignalMap, InsertFindErase) {
  SignalMap map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.total_power_mw(), 0.0);
  const std::uint32_t a = map.insert(101, 1.5);
  const std::uint32_t b = map.insert(202, 2.5);
  EXPECT_EQ(map.active_count(), 2u);
  EXPECT_EQ(map.find(101), a);
  EXPECT_EQ(map.find(202), b);
  EXPECT_EQ(map.find(303), SignalMap::kNoSlot);
  EXPECT_DOUBLE_EQ(map.total_power_mw(), 4.0);
  EXPECT_DOUBLE_EQ(map.erase_slot(map.find(101)), 1.5);
  EXPECT_EQ(map.find(101), SignalMap::kNoSlot);
  EXPECT_EQ(map.active_count(), 1u);
}

TEST(SignalMap, FreedSlotsAreReusedMostRecentFirst) {
  SignalMap map;
  const std::uint32_t s0 = map.insert(1, 1.0);
  const std::uint32_t s1 = map.insert(2, 1.0);
  map.insert(3, 1.0);
  map.erase_slot(s0);
  map.erase_slot(s1);
  // LIFO free list: the most recently freed slot comes back first, and the
  // dense range does not grow while parked slots exist.
  EXPECT_EQ(map.insert(4, 1.0), s1);
  EXPECT_EQ(map.insert(5, 1.0), s0);
  EXPECT_EQ(map.slot_count(), 3u);
}

TEST(SignalMap, SlotRangeGrowsOnExhaustionAndResetsWhenEmpty) {
  SignalMap map;
  std::vector<std::uint32_t> slots;
  // Push far past the reserved capacity: every slot distinct, range dense.
  for (std::uint64_t id = 0; id < 64; ++id) {
    slots.push_back(map.insert(id, 0.5));
    EXPECT_EQ(slots.back(), static_cast<std::uint32_t>(id));
  }
  EXPECT_EQ(map.slot_count(), 64u);
  EXPECT_EQ(map.active_count(), 64u);
  for (const std::uint32_t s : slots) map.erase_slot(s);
  // Emptying truncates the dense range, so later sums scan nothing.
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.slot_count(), 0u);
  EXPECT_EQ(map.total_power_mw(), 0.0);
}

TEST(SignalMap, PowerSumExcludingSkipsParkedAndExcludedSlots) {
  SignalMap map;
  map.insert(1, 1.0);
  const std::uint32_t s2 = map.insert(2, 2.0);
  map.insert(3, 4.0);
  EXPECT_DOUBLE_EQ(map.power_sum_excluding(2), 5.0);
  EXPECT_DOUBLE_EQ(map.power_sum_excluding(99), 7.0);  // absent id: full sum
  map.erase_slot(s2);  // parked slot must contribute exactly 0.0
  EXPECT_DOUBLE_EQ(map.power_sum_excluding(99), 5.0);
  EXPECT_DOUBLE_EQ(map.power_sum_excluding(1), 4.0);
}

// The drift regression at the map level: churn signals whose powers have no
// short binary representation, in arrival/expiry patterns that overlap, and
// require the cumulative total to read exactly 0.0 whenever the map
// empties. With pure +=/-= bookkeeping the residue survives (that was the
// carrier-sense drift bug); the empty-reset makes it exact.
TEST(SignalMap, TotalPowerIsExactlyZeroAfterChurn) {
  SignalMap map;
  std::mt19937_64 gen(1234);
  std::uniform_real_distribution<double> power(1e-9, 1e-3);
  std::uint64_t next_id = 0;
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint32_t> live;
    for (int i = 0; i < 8; ++i) {
      live.push_back(map.insert(next_id++, power(gen)));
    }
    // Interleave removals with more arrivals so the incremental total
    // crosses many magnitudes.
    for (int i = 0; i < 4; ++i) {
      map.erase_slot(live[i]);
      live.push_back(map.insert(next_id++, power(gen)));
    }
    for (std::size_t i = 4; i < live.size(); ++i) {
      map.erase_slot(map.find(next_id - (live.size() - i)));
    }
    ASSERT_TRUE(map.empty()) << "round " << round;
    ASSERT_EQ(map.total_power_mw(), 0.0) << "round " << round;
  }
}

}  // namespace
}  // namespace rrnet::phy
