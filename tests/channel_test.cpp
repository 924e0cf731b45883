#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "des/scheduler.hpp"
#include "geom/spatial_grid.hpp"
#include "phy/channel.hpp"
#include "phy/units.hpp"

namespace rrnet::phy {
namespace {

struct Capture final : RadioListener {
  std::vector<std::pair<Airframe, RxInfo>> received;
  std::vector<std::uint64_t> tx_done;
  int busy_edges = 0;
  void on_receive(const Airframe& frame, const RxInfo& info) override {
    received.emplace_back(frame, info);
  }
  void on_tx_done(std::uint64_t id) override { tx_done.push_back(id); }
  void on_medium_changed(bool busy) override {
    if (busy) ++busy_edges;
  }
};

class ChannelTest : public ::testing::Test {
 protected:
  /// Channel with nodes on a line, spacing given, range 250 m.
  void build(std::vector<double> xs) {
    std::vector<geom::Vec2> positions;
    for (double x : xs) positions.push_back({x, 500.0});
    FreeSpace for_power;
    params_.cs_threshold_dbm = params_.rx_threshold_dbm - 7.0;
    params_.noise_floor_dbm = params_.rx_threshold_dbm - 14.0;
    params_.interference_cutoff_dbm = params_.rx_threshold_dbm - 14.0;
    params_.tx_power_dbm =
        tx_power_for_range(for_power, 250.0, params_.rx_threshold_dbm);
    channel_ = std::make_unique<Channel>(
        scheduler_, geom::Terrain(5000.0, 1000.0),
        std::make_unique<FreeSpace>(), params_, positions, des::Rng(1));
    captures_.resize(xs.size());
    for (std::uint32_t i = 0; i < xs.size(); ++i) {
      channel_->transceiver(i).attach(captures_[i]);
    }
  }

  Airframe frame_from(std::uint32_t sender, std::uint32_t bytes = 100) {
    Airframe f;
    f.sender = sender;
    f.id = channel_->next_frame_id(sender);
    f.size_bytes = bytes;
    return f;
  }

  des::Scheduler scheduler_;
  RadioParams params_;
  std::unique_ptr<Channel> channel_;
  std::vector<Capture> captures_;
};

TEST_F(ChannelTest, DeliversWithinRange) {
  build({0.0, 200.0});
  EXPECT_TRUE(channel_->transmit(frame_from(0)));
  scheduler_.run();
  ASSERT_EQ(captures_[1].received.size(), 1u);
  EXPECT_EQ(captures_[1].received[0].first.sender, 0u);
  EXPECT_EQ(channel_->stats().deliveries, 1u);
  EXPECT_EQ(channel_->stats().transmissions, 1u);
}

TEST_F(ChannelTest, NoDeliveryBeyondRange) {
  build({0.0, 300.0});
  channel_->transmit(frame_from(0));
  scheduler_.run();
  EXPECT_TRUE(captures_[1].received.empty());
  EXPECT_EQ(channel_->stats().deliveries, 0u);
}

TEST_F(ChannelTest, NominalRangeIsCalibrated) {
  build({0.0, 200.0});
  EXPECT_NEAR(channel_->nominal_range_m(), 250.0, 0.5);
  EXPECT_GT(channel_->interference_range_m(), channel_->nominal_range_m());
}

TEST_F(ChannelTest, RssiDecreasesWithDistance) {
  build({0.0, 100.0, 240.0});
  channel_->transmit(frame_from(0));
  scheduler_.run();
  ASSERT_EQ(captures_[1].received.size(), 1u);
  ASSERT_EQ(captures_[2].received.size(), 1u);
  EXPECT_GT(captures_[1].received[0].second.rssi_dbm,
            captures_[2].received[0].second.rssi_dbm);
}

TEST_F(ChannelTest, SenderGetsTxDoneAndNoSelfReception) {
  build({0.0, 200.0});
  const Airframe f = frame_from(0);
  channel_->transmit(f);
  scheduler_.run();
  ASSERT_EQ(captures_[0].tx_done.size(), 1u);
  EXPECT_EQ(captures_[0].tx_done[0], f.id);
  EXPECT_TRUE(captures_[0].received.empty());
}

TEST_F(ChannelTest, SimultaneousTransmissionsCollideAtMiddle) {
  // Nodes 0 and 2 both in range of middle node 1, equal power -> SINR ~ 0 dB
  // at node 1 -> both frames lost there.
  build({0.0, 200.0, 400.0});
  channel_->transmit(frame_from(0));
  channel_->transmit(frame_from(2));
  scheduler_.run();
  EXPECT_TRUE(captures_[1].received.empty());
  EXPECT_GE(channel_->transceiver(1).stats().frames_collided, 1u);
}

TEST_F(ChannelTest, CaptureOfMuchStrongerFrame) {
  // Node 1 is 50 m from node 0 but 240 m from node 2: frame from 0 is
  // ~13.6 dB stronger and survives the overlap.
  build({0.0, 50.0, 290.0});
  channel_->transmit(frame_from(0));
  channel_->transmit(frame_from(2));
  scheduler_.run();
  ASSERT_EQ(captures_[1].received.size(), 1u);
  EXPECT_EQ(captures_[1].received[0].first.sender, 0u);
}

TEST_F(ChannelTest, LateInterferenceCorruptsLockedFrame) {
  build({0.0, 200.0, 400.0});
  channel_->transmit(frame_from(0, 1000));  // long frame
  bool second_sent = false;
  scheduler_.schedule_at(0.001, [&]() {
    second_sent = channel_->transmit(frame_from(2, 1000));
  });
  scheduler_.run();
  EXPECT_TRUE(second_sent);
  EXPECT_TRUE(captures_[1].received.empty());  // corrupted mid-reception
}

TEST_F(ChannelTest, HalfDuplexSenderCannotReceive) {
  build({0.0, 200.0});
  channel_->transmit(frame_from(0, 1000));
  scheduler_.schedule_at(0.0001, [&]() {
    channel_->transmit(frame_from(1, 50));  // while 0 still transmitting
  });
  scheduler_.run();
  EXPECT_TRUE(captures_[0].received.empty());
}

TEST_F(ChannelTest, RejectsDoubleTransmit) {
  build({0.0, 200.0});
  EXPECT_TRUE(channel_->transmit(frame_from(0, 1000)));
  EXPECT_FALSE(channel_->transmit(frame_from(0, 10)));
  scheduler_.run();
}

// Regression: a transmit attempt while already transmitting used to return
// false silently — no counter, no trace — making busy-sender losses
// indistinguishable from frames that were never offered.
TEST_F(ChannelTest, BusySenderDropIsCounted) {
  build({0.0, 200.0});
  EXPECT_EQ(channel_->transceiver(0).stats().tx_dropped_busy, 0u);
  EXPECT_TRUE(channel_->transmit(frame_from(0, 1000)));
  EXPECT_FALSE(channel_->transmit(frame_from(0, 10)));
  EXPECT_FALSE(channel_->transmit(frame_from(0, 10)));
  EXPECT_EQ(channel_->transceiver(0).stats().tx_dropped_busy, 2u);
  EXPECT_EQ(channel_->transceiver(0).stats().tx_dropped_off, 0u);
  scheduler_.run();
  // Once the airtime ends the radio is no longer busy.
  EXPECT_TRUE(channel_->transmit(frame_from(0, 10)));
  scheduler_.run();
  EXPECT_EQ(channel_->transceiver(0).stats().tx_dropped_busy, 2u);
}

// Regression: turning a radio off mid-decode cleared the signal set and the
// lock without crediting the aborted reception to any drop counter, leaving
// arrivals unaccounted (decoded + drops < signals_arrived).
TEST_F(ChannelTest, TurnOffMidDecodeCountsAbortedReception) {
  build({0.0, 200.0});
  channel_->transmit(frame_from(0, 1000));  // long frame
  bool turned_off = false;
  scheduler_.schedule_at(0.001, [&]() {  // mid-airtime: node 1 is locked
    EXPECT_EQ(channel_->transceiver(1).state(), RadioState::Rx);
    channel_->transceiver(1).turn_off();
    turned_off = true;
  });
  scheduler_.run();
  EXPECT_TRUE(turned_off);
  EXPECT_TRUE(captures_[1].received.empty());
  const TransceiverStats& stats = channel_->transceiver(1).stats();
  EXPECT_EQ(stats.frames_aborted_off, 1u);
  // Conservation: the single arrival resolves into exactly one outcome.
  EXPECT_EQ(stats.signals_arrived, 1u);
  EXPECT_EQ(stats.frames_decoded + stats.frames_collided +
                stats.frames_missed_busy + stats.frames_below_threshold +
                stats.frames_while_off + stats.frames_aborted_off,
            stats.signals_arrived);
}

// Radio-off without a lock in progress must NOT bump the aborted counter
// (the other cleared signals already got their outcome at arrival).
TEST_F(ChannelTest, TurnOffWithoutLockAbortsNothing) {
  build({0.0, 200.0});
  channel_->transceiver(1).turn_off();
  scheduler_.run();
  EXPECT_EQ(channel_->transceiver(1).stats().frames_aborted_off, 0u);
}

// Regression for carrier-sense drift: the cumulative in-air power at a
// receiver is maintained incrementally across arrivals/expiries; after
// heavy overlapping-signal churn the medium must read exactly idle again
// (total power exactly 0.0), not epsilon-busy from FP residue.
TEST_F(ChannelTest, MediumReadsExactlyIdleAfterSignalChurn) {
  build({0.0, 150.0, 200.0, 310.0, 405.0});
  des::Rng jitter(99);
  for (int round = 0; round < 200; ++round) {
    // Overlapping bursts from every node at staggered times: receiver
    // signal sets grow and drain repeatedly, in varying interleavings.
    for (std::uint32_t s = 0; s < 5; ++s) {
      scheduler_.schedule_at(scheduler_.now() + jitter.uniform01() * 1e-3,
                             [this, s]() {
                               channel_->transmit(frame_from(s, 400));
                             });
    }
    scheduler_.run();
    for (std::uint32_t n = 0; n < 5; ++n) {
      ASSERT_EQ(channel_->transceiver(n).total_rx_power_mw(), 0.0)
          << "node " << n << " round " << round;
      ASSERT_FALSE(channel_->transceiver(n).medium_busy());
    }
  }
}

TEST_F(ChannelTest, OffRadioNeitherSendsNorReceives) {
  build({0.0, 200.0});
  channel_->transceiver(1).turn_off();
  channel_->transmit(frame_from(0));
  scheduler_.run();
  EXPECT_TRUE(captures_[1].received.empty());
  EXPECT_EQ(channel_->transceiver(1).stats().frames_while_off, 1u);
  EXPECT_FALSE(channel_->transmit(frame_from(1)));
  EXPECT_EQ(channel_->transceiver(1).stats().tx_dropped_off, 1u);
}

TEST_F(ChannelTest, TurnOnRestoresOperation) {
  build({0.0, 200.0});
  channel_->transceiver(1).turn_off();
  channel_->transceiver(1).turn_on();
  channel_->transmit(frame_from(0));
  scheduler_.run();
  EXPECT_EQ(captures_[1].received.size(), 1u);
}

TEST_F(ChannelTest, CarrierSenseSeesNeighborTransmission) {
  build({0.0, 200.0});
  EXPECT_FALSE(channel_->transceiver(1).medium_busy());
  channel_->transmit(frame_from(0, 1000));
  scheduler_.run_until(0.001);
  EXPECT_TRUE(channel_->transceiver(1).medium_busy());
  scheduler_.run();
  EXPECT_FALSE(channel_->transceiver(1).medium_busy());
  EXPECT_GE(captures_[1].busy_edges, 1);
}

TEST_F(ChannelTest, BackToBackFramesBothDeliver) {
  build({0.0, 200.0});
  channel_->transmit(frame_from(0, 100));
  scheduler_.schedule_at(0.01, [&]() { channel_->transmit(frame_from(0, 100)); });
  scheduler_.run();
  EXPECT_EQ(captures_[1].received.size(), 2u);
}

TEST_F(ChannelTest, PropagationDelayOrdersDistantReceivers) {
  build({0.0, 100.0, 240.0});
  channel_->transmit(frame_from(0));
  scheduler_.run();
  ASSERT_EQ(captures_[1].received.size(), 1u);
  ASSERT_EQ(captures_[2].received.size(), 1u);
  EXPECT_LT(captures_[1].received[0].second.rx_end,
            captures_[2].received[0].second.rx_end);
}

/// Two half-channels over the SAME position set, split at x = 500: the
/// cross-shard handoff path (outbox on the source, inject_remote + replay
/// on the destination) is the sharded engine's only inter-thread data
/// flow, so it gets direct unit coverage (and a TSan sweep via verify.sh).
class ChannelHandoffTest : public ::testing::Test {
 protected:
  void build(std::vector<geom::Vec2> positions,
             std::vector<std::uint32_t> owner,
             double cutoff_delta_db = -14.0) {
    FreeSpace for_power;
    params_.cs_threshold_dbm = params_.rx_threshold_dbm - 7.0;
    params_.noise_floor_dbm = params_.rx_threshold_dbm - 14.0;
    params_.interference_cutoff_dbm =
        params_.rx_threshold_dbm + cutoff_delta_db;
    params_.tx_power_dbm =
        tx_power_for_range(for_power, 250.0, params_.rx_threshold_dbm);
    const geom::Terrain terrain(1000.0, 1000.0);
    owner_ = std::move(owner);  // both shards view this one map
    for (std::uint32_t s = 0; s < 2; ++s) {
      ShardSpec spec;
      spec.shard = s;
      spec.shards = 2;
      spec.owner = owner_;
      shard_[s] = std::make_unique<Channel>(
          scheduler_[s], terrain, std::make_unique<FreeSpace>(), params_,
          positions, des::Rng(1), spec);
    }
    captures_.resize(positions.size());
    for (std::uint32_t id = 0; id < positions.size(); ++id) {
      shard_[owner_[id]]->transceiver(id).attach(captures_[id]);
    }
  }

  des::Scheduler scheduler_[2];
  RadioParams params_;
  std::vector<std::uint32_t> owner_;  ///< outlives the channels viewing it
  std::unique_ptr<Channel> shard_[2];
  std::vector<Capture> captures_;
};

TEST_F(ChannelHandoffTest, BoundaryTransmissionProducesOneHandoffPerShard) {
  // Node 0 (shard 0) straddles the strip boundary's radio range; nodes 1
  // and 2 both live on shard 1, so the single transmission must enqueue
  // exactly ONE handoff for shard 1 (the destination replays the full
  // receiver walk itself), not one per remote receiver.
  build({{400.0, 500.0}, {600.0, 500.0}, {700.0, 500.0}}, {0, 1, 1});
  Airframe frame;
  frame.sender = 0;
  frame.id = shard_[0]->next_frame_id(0);
  frame.size_bytes = 100;
  ASSERT_TRUE(shard_[0]->transmit(frame));
  ASSERT_EQ(shard_[0]->outbox(1).size(), 1u);
  const ShardHandoff& handoff = shard_[0]->outbox(1)[0];
  EXPECT_EQ(handoff.tx_time, 0.0);
  EXPECT_EQ(handoff.duration, params_.airtime(100));
  EXPECT_EQ(handoff.frame.sender, 0u);
  scheduler_[0].run();

  shard_[1]->inject_remote(handoff);
  scheduler_[1].run();
  // Node 1 (200 m) decodes; node 2 (300 m) is past decode range but the
  // signal still arrives (interference replay). The remote shard must NOT
  // count the transmission again — the source shard already did.
  ASSERT_EQ(captures_[1].received.size(), 1u);
  EXPECT_EQ(captures_[1].received[0].first.sender, 0u);
  EXPECT_TRUE(captures_[2].received.empty());
  EXPECT_GE(shard_[1]->transceiver(2).stats().signals_arrived, 1u);
  EXPECT_EQ(shard_[1]->stats().transmissions, 0u);
  EXPECT_EQ(shard_[1]->stats().deliveries, 1u);
  EXPECT_EQ(shard_[0]->stats().transmissions, 1u);
}

TEST_F(ChannelHandoffTest, OutOfRangeTransmissionLeavesOutboxEmpty) {
  // Cutoff only 6 dB under decode threshold -> interference range ~500 m;
  // at 800 m the remote shard never perceives the frame, so no handoff.
  build({{100.0, 500.0}, {900.0, 500.0}}, {0, 1}, -6.0);
  Airframe frame;
  frame.sender = 0;
  frame.id = shard_[0]->next_frame_id(0);
  frame.size_bytes = 100;
  ASSERT_TRUE(shard_[0]->transmit(frame));
  EXPECT_TRUE(shard_[0]->outbox(1).empty());
  scheduler_[0].run();
}

TEST_F(ChannelHandoffTest, LookaheadHeapsDropPastEntriesAndKeepFuture) {
  build({{400.0, 500.0}, {600.0, 500.0}}, {0, 1});
  Channel& ch = *shard_[0];
  const auto inf = std::numeric_limits<des::Time>::infinity();
  EXPECT_EQ(ch.earliest_armed_tx(0.0), inf);
  ch.note_armed_tx(1e-3);
  ch.note_armed_tx(2e-3);
  EXPECT_EQ(ch.earliest_armed_tx(0.0), 1e-3);
  // Entries at or before `now` already executed inside the closed window;
  // the query lazily discards them.
  EXPECT_EQ(ch.earliest_armed_tx(1e-3), 2e-3);
  EXPECT_EQ(ch.earliest_armed_tx(2e-3), inf);
}

TEST_F(ChannelHandoffTest, ClearOutboxesDropsPendingHandoffs) {
  build({{400.0, 500.0}, {600.0, 500.0}}, {0, 1});
  Airframe frame;
  frame.sender = 0;
  frame.id = shard_[0]->next_frame_id(0);
  frame.size_bytes = 100;
  ASSERT_TRUE(shard_[0]->transmit(frame));
  ASSERT_EQ(shard_[0]->outbox(1).size(), 1u);
  shard_[0]->clear_outboxes();
  EXPECT_TRUE(shard_[0]->outbox(1).empty());
  scheduler_[0].run();
}

TEST(ChannelFirstContact, BroadcastReceiversGetAscendingContiguousChunks) {
  // Receivers at distances that fall with id: arrival order is the reverse
  // of id order.
  constexpr std::uint32_t kNodes = 16;
  std::vector<geom::Vec2> positions{{100.0, 500.0}};
  for (std::uint32_t i = 1; i < kNodes; ++i) {
    positions.push_back({100.0 + 10.0 * (kNodes - i), 500.0});
  }
  RadioParams params;
  params.tx_power_dbm = tx_power_for_range(FreeSpace{}, 250.0,
                                           params.rx_threshold_dbm);
  // A fresh thread has fresh pools: radios built one after another take
  // consecutive chunks of a new carve.
  std::thread([&] {
    des::Scheduler scheduler;
    const geom::Terrain terrain(1000.0, 1000.0);
    Channel channel(scheduler, terrain, std::make_unique<FreeSpace>(), params,
                    positions, des::Rng(1));
    for (std::uint32_t id = 0; id < kNodes; ++id) {
      EXPECT_FALSE(channel.radio_built(id)) << id;
    }
    Airframe frame;
    frame.sender = 0;
    frame.id = channel.next_frame_id(0);
    frame.size_bytes = 100;
    ASSERT_TRUE(channel.transmit(frame));  // the sender's first contact
    EXPECT_TRUE(channel.radio_built(0));
    EXPECT_FALSE(channel.radio_built(1));
    scheduler.run();
    // Built in first-contact order: the sender, then the receivers from
    // the nearest (id 15) to the farthest (id 1).
    std::vector<std::uintptr_t> addresses{
        reinterpret_cast<std::uintptr_t>(&channel.transceiver(0))};
    for (std::uint32_t id = kNodes - 1; id >= 1; --id) {
      EXPECT_EQ(channel.transceiver(id).stats().signals_arrived, 1u) << id;
      addresses.push_back(
          reinterpret_cast<std::uintptr_t>(&channel.transceiver(id)));
    }
    ASSERT_GT(addresses[1], addresses[0]);
    const std::uintptr_t stride = addresses[1] - addresses[0];
    for (std::size_t i = 1; i < addresses.size(); ++i) {
      EXPECT_EQ(addresses[i] - addresses[i - 1], stride) << i;
    }
  }).join();
}

TEST_F(ChannelTest, FrameIdsAreUnique) {
  build({0.0, 200.0});
  // Per-sender counters: ids differ across draws of one sender and across
  // senders (the sender id lives in the high 32 bits).
  const auto a = channel_->next_frame_id(0);
  const auto b = channel_->next_frame_id(0);
  const auto c = channel_->next_frame_id(1);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
  EXPECT_EQ(c >> 32, 1u);
}

}  // namespace
}  // namespace rrnet::phy
