// RTS/CTS virtual carrier sense (hidden-terminal mitigation).
//
// The fixture narrows the carrier-sense range to the transmission range so
// that two nodes on opposite sides of a receiver are genuinely hidden from
// each other — the scenario RTS/CTS exists for.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "mac/csma.hpp"
#include "phy/propagation.hpp"

namespace rrnet::mac {
namespace {

struct NetListener final : MacListener {
  std::vector<Frame> received;
  int successes = 0;
  int failures = 0;
  void mac_receive(const Frame& frame, const phy::RxInfo&,
                   bool for_us) override {
    if (for_us) received.push_back(frame);
  }
  void mac_send_done(const Frame&, bool success) override {
    if (success) {
      ++successes;
    } else {
      ++failures;
    }
  }
};

class RtsCtsTest : public ::testing::Test {
 protected:
  void build(std::vector<double> xs, MacParams params) {
    macs_.clear();
    channel_.reset();
    scheduler_ = std::make_unique<des::Scheduler>();
    std::vector<geom::Vec2> positions;
    for (double x : xs) positions.push_back({x, 500.0});
    phy::FreeSpace for_power;
    phy::RadioParams radio;
    // Hidden terminals: carrier sense range == transmission range.
    radio.cs_threshold_dbm = radio.rx_threshold_dbm;
    radio.noise_floor_dbm = radio.rx_threshold_dbm - 14.0;
    radio.interference_cutoff_dbm = radio.rx_threshold_dbm - 14.0;
    radio.tx_power_dbm =
        phy::tx_power_for_range(for_power, 250.0, radio.rx_threshold_dbm);
    channel_ = std::make_unique<phy::Channel>(
        *scheduler_, geom::Terrain(5000.0, 1000.0),
        std::make_unique<phy::FreeSpace>(), radio, positions, des::Rng(1));
    listeners_ = std::vector<NetListener>(xs.size());
    for (std::uint32_t i = 0; i < xs.size(); ++i) {
      macs_.push_back(std::make_unique<CsmaMac>(
          *channel_, channel_->transceiver(i), params, des::Rng(500 + i),
          listeners_[i]));
    }
  }

  net::PacketRef payload() { return net::make_packet(net::PacketInit{}); }

  std::unique_ptr<des::Scheduler> scheduler_;
  std::unique_ptr<phy::Channel> channel_;
  std::vector<NetListener> listeners_;
  std::vector<std::unique_ptr<CsmaMac>> macs_;
};

MacParams rts_params(std::uint32_t threshold = 0) {
  MacParams params;
  params.rts_cts = true;
  params.rts_threshold_bytes = threshold;
  return params;
}

TEST_F(RtsCtsTest, HandshakeDeliversUnicast) {
  build({0.0, 200.0}, rts_params());
  macs_[0]->send(1, payload(), 500);
  scheduler_->run();
  ASSERT_EQ(listeners_[1].received.size(), 1u);
  EXPECT_EQ(listeners_[0].successes, 1);
  EXPECT_EQ(macs_[0]->stats().rts_tx, 1u);
  EXPECT_EQ(macs_[1]->stats().cts_tx, 1u);
  EXPECT_EQ(macs_[1]->stats().ack_tx, 1u);
  EXPECT_EQ(macs_[0]->stats().data_tx, 1u);
}

TEST_F(RtsCtsTest, BroadcastNeverUsesRts) {
  build({0.0, 200.0}, rts_params());
  macs_[0]->send(kBroadcastAddress, payload(), 500);
  scheduler_->run();
  EXPECT_EQ(macs_[0]->stats().rts_tx, 0u);
  EXPECT_EQ(listeners_[1].received.size(), 1u);
}

TEST_F(RtsCtsTest, SmallFramesSkipRts) {
  build({0.0, 200.0}, rts_params(/*threshold=*/400));
  macs_[0]->send(1, payload(), 100);  // 116 B with header, below threshold
  scheduler_->run();
  EXPECT_EQ(macs_[0]->stats().rts_tx, 0u);
  EXPECT_EQ(listeners_[0].successes, 1);
}

TEST_F(RtsCtsTest, CtsTimeoutRetriesThenFails) {
  MacParams params = rts_params();
  params.max_retries = 2;
  build({0.0, 200.0}, params);
  channel_->transceiver(1).turn_off();
  macs_[0]->send(1, payload(), 500);
  scheduler_->run();
  EXPECT_EQ(listeners_[0].failures, 1);
  EXPECT_GE(macs_[0]->stats().cts_timeouts, 3u);  // initial + 2 retries
  EXPECT_EQ(macs_[0]->stats().data_tx, 0u);       // data never risked
}

TEST_F(RtsCtsTest, ThirdPartyDefersOnOverheardCts) {
  // Node 2 sits next to the receiver; it overhears the CTS for the 0->1
  // exchange and must hold its own transmission until the NAV expires.
  build({0.0, 200.0, 350.0}, rts_params());
  macs_[0]->send(1, payload(), 1200);
  // Node 2 (hidden from 0: 350 m apart) queues a broadcast just after the
  // CTS lands.
  scheduler_->schedule_at(0.0012, [&]() {
    macs_[2]->send(kBroadcastAddress, payload(), 100);
  });
  scheduler_->run();
  ASSERT_EQ(listeners_[1].received.size(), 2u);  // data + node 2's broadcast
  EXPECT_GE(macs_[2]->stats().nav_deferrals, 1u);
  EXPECT_EQ(listeners_[0].successes, 1);
}

TEST_F(RtsCtsTest, HiddenTerminalsImproveWithRtsCts) {
  // A (0 m) and C (480 m) are hidden from each other; both stream long
  // unicast frames to B (240 m). Without RTS/CTS their data frames collide
  // at B; with it, the loser of the RTS race defers on B's CTS.
  struct Outcome {
    std::uint64_t retries;
    std::size_t delivered;
  };
  auto run = [&](bool rts) {
    MacParams params;
    params.rts_cts = rts;
    params.rts_threshold_bytes = 0;
    build({0.0, 240.0, 480.0}, params);
    for (int i = 0; i < 20; ++i) {
      const des::Time at = 0.01 * i;
      scheduler_->schedule_at(at, [&]() { macs_[0]->send(1, payload(), 900); });
      scheduler_->schedule_at(at + 1e-4,
                             [&]() { macs_[2]->send(1, payload(), 900); });
    }
    scheduler_->run();
    return Outcome{macs_[0]->stats().retries + macs_[2]->stats().retries,
                   listeners_[1].received.size()};
  };
  const Outcome without = run(false);
  const Outcome with = run(true);
  // The hidden senders' long frames always collide at B without the
  // handshake; with it, nearly everything gets through in few retries.
  EXPECT_LT(with.retries, without.retries / 2);
  EXPECT_GE(with.delivered, 35u);
  EXPECT_GT(with.delivered, without.delivered);
}

}  // namespace
}  // namespace rrnet::mac
