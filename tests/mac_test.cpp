#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "util/contracts.hpp"

#include "mac/csma.hpp"
#include "mac/priority_queue.hpp"
#include "phy/propagation.hpp"

namespace rrnet::mac {
namespace {

TEST(TxQueue, FifoAmongEqualPriorities) {
  TxQueue q(8, /*prioritized=*/true);
  for (std::uint32_t i = 0; i < 4; ++i) {
    Frame f;
    f.sequence = i;
    q.push({f, 1.0});
  }
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(q.pop()->frame.sequence, i);
  }
  EXPECT_FALSE(q.pop().has_value());
}

TEST(TxQueue, PriorityOrdering) {
  TxQueue q(8, true);
  Frame a, b, c;
  a.sequence = 0;
  b.sequence = 1;
  c.sequence = 2;
  q.push({a, 5.0});
  q.push({b, 1.0});
  q.push({c, 3.0});
  EXPECT_EQ(q.pop()->frame.sequence, 1u);
  EXPECT_EQ(q.pop()->frame.sequence, 2u);
  EXPECT_EQ(q.pop()->frame.sequence, 0u);
}

TEST(TxQueue, FifoModeIgnoresPriority) {
  TxQueue q(8, /*prioritized=*/false);
  Frame a, b;
  a.sequence = 0;
  b.sequence = 1;
  q.push({a, 5.0});
  q.push({b, 1.0});
  EXPECT_EQ(q.pop()->frame.sequence, 0u);
  EXPECT_FALSE(q.prioritized());
}

TEST(TxQueue, CapacityDrops) {
  TxQueue q(2, true);
  Frame f;
  EXPECT_TRUE(q.push({f, 0.0}));
  EXPECT_TRUE(q.push({f, 0.0}));
  EXPECT_FALSE(q.push({f, 0.0}));
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.size(), 2u);
}

TEST(TxQueue, RejectsZeroCapacity) {
  EXPECT_THROW(TxQueue(0), rrnet::ContractViolation);
}

// --- CSMA MAC over a real channel ----------------------------------------

struct NetListener final : MacListener {
  std::vector<Frame> received;
  std::vector<bool> received_for_us;
  std::vector<std::pair<Frame, bool>> send_done;
  void mac_receive(const Frame& frame, const phy::RxInfo&,
                   bool for_us) override {
    received.push_back(frame);
    received_for_us.push_back(for_us);
  }
  void mac_send_done(const Frame& frame, bool success) override {
    send_done.emplace_back(frame, success);
  }
};

class CsmaTest : public ::testing::Test {
 protected:
  void build(std::vector<double> xs, MacParams params = {}) {
    std::vector<geom::Vec2> positions;
    for (double x : xs) positions.push_back({x, 500.0});
    phy::FreeSpace for_power;
    phy::RadioParams radio;
    radio.cs_threshold_dbm = radio.rx_threshold_dbm - 7.0;
    radio.noise_floor_dbm = radio.rx_threshold_dbm - 14.0;
    radio.interference_cutoff_dbm = radio.rx_threshold_dbm - 14.0;
    radio.tx_power_dbm =
        phy::tx_power_for_range(for_power, 250.0, radio.rx_threshold_dbm);
    channel_ = std::make_unique<phy::Channel>(
        scheduler_, geom::Terrain(5000.0, 1000.0),
        std::make_unique<phy::FreeSpace>(), radio, positions, des::Rng(1));
    listeners_ = std::vector<NetListener>(xs.size());
    for (std::uint32_t i = 0; i < xs.size(); ++i) {
      macs_.push_back(std::make_unique<CsmaMac>(
          *channel_, channel_->transceiver(i), params, des::Rng(100 + i),
          listeners_[i]));
    }
  }

  net::PacketRef payload() { return net::make_packet(net::PacketInit{}); }

  des::Scheduler scheduler_;
  std::unique_ptr<phy::Channel> channel_;
  std::vector<NetListener> listeners_;
  std::vector<std::unique_ptr<CsmaMac>> macs_;
};

TEST_F(CsmaTest, BroadcastReachesNeighbor) {
  build({0.0, 200.0});
  macs_[0]->send(kBroadcastAddress, payload(), 100);
  scheduler_.run();
  ASSERT_EQ(listeners_[1].received.size(), 1u);
  EXPECT_TRUE(listeners_[1].received_for_us[0]);
  ASSERT_EQ(listeners_[0].send_done.size(), 1u);
  EXPECT_TRUE(listeners_[0].send_done[0].second);
  EXPECT_EQ(macs_[0]->stats().data_tx, 1u);
  EXPECT_EQ(macs_[0]->stats().ack_tx, 0u);  // no ACK for broadcast
  EXPECT_EQ(macs_[1]->stats().ack_tx, 0u);
}

TEST_F(CsmaTest, UnicastGetsAckedAndSucceeds) {
  build({0.0, 200.0});
  macs_[0]->send(1, payload(), 100);
  scheduler_.run();
  ASSERT_EQ(listeners_[1].received.size(), 1u);
  ASSERT_EQ(listeners_[0].send_done.size(), 1u);
  EXPECT_TRUE(listeners_[0].send_done[0].second);
  EXPECT_EQ(macs_[1]->stats().ack_tx, 1u);
  EXPECT_EQ(macs_[0]->stats().retries, 0u);
}

TEST_F(CsmaTest, UnicastToDeadNeighborFailsAfterRetries) {
  MacParams params;
  params.max_retries = 3;
  build({0.0, 200.0}, params);
  channel_->transceiver(1).turn_off();
  macs_[0]->send(1, payload(), 100);
  scheduler_.run();
  ASSERT_EQ(listeners_[0].send_done.size(), 1u);
  EXPECT_FALSE(listeners_[0].send_done[0].second);
  EXPECT_EQ(macs_[0]->stats().retries, 3u);
  EXPECT_EQ(macs_[0]->stats().unicast_failures, 1u);
  EXPECT_EQ(macs_[0]->stats().data_tx, 4u);  // initial + 3 retries
}

TEST_F(CsmaTest, OverheardUnicastDeliveredPromiscuously) {
  build({0.0, 200.0, 100.0});  // node 2 between 0 and 1
  macs_[0]->send(1, payload(), 100);
  scheduler_.run();
  ASSERT_GE(listeners_[2].received.size(), 1u);
  EXPECT_FALSE(listeners_[2].received_for_us[0]);
}

TEST_F(CsmaTest, SendWhileRadioOffFails) {
  build({0.0, 200.0});
  channel_->transceiver(0).turn_off();
  macs_[0]->send(kBroadcastAddress, payload(), 100);
  scheduler_.run();
  ASSERT_EQ(listeners_[0].send_done.size(), 1u);
  EXPECT_FALSE(listeners_[0].send_done[0].second);
  EXPECT_GE(macs_[0]->stats().tx_dropped_radio_off, 1u);
}

TEST_F(CsmaTest, QueueOverflowReportsFailure) {
  MacParams params;
  params.queue_capacity = 2;
  build({0.0, 200.0}, params);
  // First send goes into service almost immediately; two more fill the
  // queue; the rest overflow.
  for (int i = 0; i < 6; ++i) {
    macs_[0]->send(kBroadcastAddress, payload(), 2000);
  }
  EXPECT_GE(macs_[0]->stats().queue_drops, 3u);
  scheduler_.run();
  EXPECT_EQ(listeners_[0].send_done.size(), 6u);
}

TEST_F(CsmaTest, AllQueuedFramesEventuallyAir) {
  build({0.0, 200.0});
  for (int i = 0; i < 10; ++i) {
    macs_[0]->send(kBroadcastAddress, payload(), 100);
  }
  scheduler_.run();
  EXPECT_EQ(listeners_[1].received.size(), 10u);
  EXPECT_EQ(macs_[0]->stats().data_tx, 10u);
}

TEST_F(CsmaTest, PriorityQueueReordersPendingFrames) {
  build({0.0, 200.0});
  // Enqueue with decreasing priority values; frame 0 is put in service
  // immediately, the rest are queued and should come out lowest-value first.
  for (int i = 0; i < 5; ++i) {
    macs_[0]->send(kBroadcastAddress, payload(), 400,
                   /*priority=*/static_cast<double>(10 - i));
  }
  scheduler_.run();
  ASSERT_EQ(listeners_[1].received.size(), 5u);
  // First received is the one that entered service first (sequence 0); the
  // remaining four arrive in reverse enqueue order (lowest priority value
  // first: sequences 4, 3, 2, 1).
  EXPECT_EQ(listeners_[1].received[0].sequence, 0u);
  EXPECT_EQ(listeners_[1].received[1].sequence, 4u);
  EXPECT_EQ(listeners_[1].received[2].sequence, 3u);
  EXPECT_EQ(listeners_[1].received[3].sequence, 2u);
  EXPECT_EQ(listeners_[1].received[4].sequence, 1u);
}

TEST_F(CsmaTest, FifoModePreservesEnqueueOrder) {
  MacParams params;
  params.priority_queue = false;
  build({0.0, 200.0}, params);
  for (int i = 0; i < 5; ++i) {
    macs_[0]->send(kBroadcastAddress, payload(), 400,
                   static_cast<double>(10 - i));
  }
  scheduler_.run();
  ASSERT_EQ(listeners_[1].received.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(listeners_[1].received[i].sequence, i);
  }
}

TEST_F(CsmaTest, TwoContendersBothEventuallyDeliver) {
  build({0.0, 200.0, 400.0});
  // 0 and 2 both broadcast; 1 hears both. CSMA backoff must separate them
  // (they cannot carrier-sense each other, but retransmissions/backoff
  // spread attempts; with only one attempt each this tests capture or
  // collision is possible -> instead stagger slightly).
  macs_[0]->send(kBroadcastAddress, payload(), 100);
  scheduler_.schedule_at(0.005, [&]() {
    macs_[2]->send(kBroadcastAddress, payload(), 100);
  });
  scheduler_.run();
  EXPECT_EQ(listeners_[1].received.size(), 2u);
}

TEST_F(CsmaTest, CarrierSenseDefersSecondSender) {
  // Node 0 starts a 12 ms frame; 1 ms in, node 1 (100 m away, well inside
  // carrier-sense range) queues its own. Node 1 must defer until the medium
  // clears, so node 2 decodes both frames without collision.
  build({0.0, 100.0, 150.0});
  macs_[0]->send(kBroadcastAddress, payload(), 1500);
  scheduler_.schedule_at(0.001, [&]() {
    EXPECT_TRUE(channel_->transceiver(1).medium_busy());
    macs_[1]->send(kBroadcastAddress, payload(), 1500);
  });
  scheduler_.run();
  EXPECT_EQ(listeners_[2].received.size(), 2u);
}

TEST_F(CsmaTest, RadioDyingMidTransmissionDoesNotWedgeTheMac) {
  // The transceiver reports tx-done when powered off mid-frame; the MAC
  // must finish the frame and keep serving the queue after power returns.
  build({0.0, 200.0});
  macs_[0]->send(kBroadcastAddress, payload(), 2000);  // ~16 ms airtime
  scheduler_.schedule_at(0.002, [&]() { channel_->transceiver(0).turn_off(); });
  scheduler_.schedule_at(0.050, [&]() { channel_->transceiver(0).turn_on(); });
  scheduler_.schedule_at(0.060, [&]() {
    macs_[0]->send(kBroadcastAddress, payload(), 100);
  });
  scheduler_.run();
  // The second frame must get through despite the mid-air outage.
  ASSERT_GE(listeners_[1].received.size(), 1u);
  EXPECT_EQ(listeners_[1].received.back().size_bytes, 100u + kMacHeaderBytes);
  EXPECT_EQ(listeners_[0].send_done.size(), 2u);
}

TEST_F(CsmaTest, QueueDrainsAsFailuresWhileRadioIsOff) {
  // Frames attempted during an outage are lost, not held — the paper's
  // failure model ("not able to transmit or receive any packets"). Every
  // queued frame still gets a send_done verdict, and service resumes
  // cleanly once power returns.
  build({0.0, 200.0});
  for (int i = 0; i < 5; ++i) {
    macs_[0]->send(kBroadcastAddress, payload(), 1000);
  }
  scheduler_.schedule_at(0.001, [&]() { channel_->transceiver(0).turn_off(); });
  scheduler_.schedule_at(0.020, [&]() { channel_->transceiver(0).turn_on(); });
  scheduler_.schedule_at(0.030, [&]() {
    macs_[0]->send(kBroadcastAddress, payload(), 100);
  });
  scheduler_.run();
  EXPECT_EQ(listeners_[0].send_done.size(), 6u);
  int failures = 0;
  for (const auto& [frame, ok] : listeners_[0].send_done) {
    if (!ok) ++failures;
  }
  EXPECT_EQ(failures, 4);  // frames 2-5 burned during the outage
  // The in-flight frame's airtime completes at the receivers, and the
  // post-outage frame goes through.
  EXPECT_EQ(listeners_[1].received.size(), 2u);
}

TEST_F(CsmaTest, MacPacketCountsIncludeAcks) {
  build({0.0, 200.0});
  macs_[0]->send(1, payload(), 100);
  scheduler_.run();
  EXPECT_EQ(macs_[0]->stats().total_tx(), 1u);
  EXPECT_EQ(macs_[1]->stats().total_tx(), 1u);  // the ACK
}

}  // namespace
}  // namespace rrnet::mac
