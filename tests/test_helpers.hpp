// Shared fixtures: hand-placed topologies wired through the real substrate.
#pragma once

#include <memory>
#include <vector>

#include "des/scheduler.hpp"
#include "geom/terrain.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "phy/propagation.hpp"

namespace rrnet::testing {

/// A complete network over explicit positions with free-space propagation
/// and tx power calibrated for the requested range.
struct TestNet {
  des::Scheduler scheduler;
  geom::Terrain terrain;
  std::unique_ptr<net::Network> network;

  TestNet(std::vector<geom::Vec2> positions, double range_m,
          geom::Terrain terrain_in, std::uint64_t seed = 7,
          mac::MacParams mac_params = {})
      : terrain(terrain_in) {
    phy::FreeSpace model_for_power;
    phy::RadioParams radio;
    radio.cs_threshold_dbm = radio.rx_threshold_dbm - 7.0;
    radio.noise_floor_dbm = radio.rx_threshold_dbm - 14.0;
    radio.interference_cutoff_dbm = radio.rx_threshold_dbm - 14.0;
    radio.tx_power_dbm = phy::tx_power_for_range(model_for_power, range_m,
                                                 radio.rx_threshold_dbm);
    network = std::make_unique<net::Network>(
        scheduler, terrain, std::make_unique<phy::FreeSpace>(), radio,
        mac_params, std::move(positions), des::Rng(seed));
  }

  net::Node& node(std::uint32_t id) { return network->node(id); }
};

/// N nodes on a horizontal line with the given spacing; with spacing just
/// under the range only adjacent nodes hear each other.
inline std::vector<geom::Vec2> line_positions(std::size_t n, double spacing,
                                              double y = 500.0,
                                              double x0 = 10.0) {
  std::vector<geom::Vec2> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({x0 + spacing * static_cast<double>(i), y});
  }
  return out;
}

/// A line network: spacing 200 m, range 250 m -> adjacent-only links.
inline TestNet make_line_net(std::size_t n, std::uint64_t seed = 7,
                             mac::MacParams mac_params = {}) {
  const double width = 200.0 * static_cast<double>(n) + 20.0;
  return TestNet(line_positions(n, 200.0), 250.0,
                 geom::Terrain(width, 1000.0), seed, mac_params);
}

/// Reference for net::Network::snapshot_metrics: the per-node registry walk
/// its struct sums replaced, one add/set_max per counter per node in id
/// order. Protocol counters come from each node's own accumulate_stats.
inline void reference_snapshot_metrics(const net::Network& network,
                                       obs::MetricRegistry& reg) {
  namespace m = obs::metric;
  const phy::ChannelStats& ch = network.channel().stats();
  reg.add(m::kPhyTransmissions, ch.transmissions);
  reg.add(m::kPhyDeliveries, ch.deliveries);
  obs::Histogram backoff_slots;
  for (std::uint32_t id = 0; id < network.size(); ++id) {
    if (!network.node_built(id)) continue;  // all counters zero
    const net::Node& node = network.node(id);
    const phy::TransceiverStats& phy = network.channel().transceiver(id).stats();
    reg.add(m::kPhyTxFrames, phy.frames_sent);
    reg.add(m::kPhySignalsArrived, phy.signals_arrived);
    reg.add(m::kPhyRxDecoded, phy.frames_decoded);
    reg.add(m::kPhyDropCollision, phy.frames_collided);
    reg.add(m::kPhyDropRxWhileBusy, phy.frames_missed_busy);
    reg.add(m::kPhyDropBelowSensitivity, phy.frames_below_threshold);
    reg.add(m::kPhyDropWhileOff, phy.frames_while_off);
    reg.add(m::kPhyDropAbortedOff, phy.frames_aborted_off);
    reg.add(m::kPhyTxDroppedOff, phy.tx_dropped_off);
    reg.add(m::kPhyTxDroppedBusy, phy.tx_dropped_busy);

    const mac::MacStats& mac = node.mac().stats();
    reg.add(m::kMacDataTx, mac.data_tx);
    reg.add(m::kMacAckTx, mac.ack_tx);
    reg.add(m::kMacRtsTx, mac.rts_tx);
    reg.add(m::kMacCtsTx, mac.cts_tx);
    reg.add(m::kMacBackoffs, mac.backoffs);
    reg.add(m::kMacRetries, mac.retries);
    reg.add(m::kMacCtsTimeouts, mac.cts_timeouts);
    reg.add(m::kMacNavDeferrals, mac.nav_deferrals);
    reg.add(m::kMacUnicastFailures, mac.unicast_failures);
    reg.add(m::kMacQueueDrops, mac.queue_drops);
    reg.add(m::kMacTxDroppedRadioOff, mac.tx_dropped_radio_off);
    reg.set_max(m::kMacQueueHighWater, node.mac().queue_high_water());
    backoff_slots.merge(mac.backoff_slots);

    const net::NodeStats& net = node.stats();
    reg.add(m::kNetTxData, net.data_tx);
    reg.add(m::kNetTxControl, net.control_tx);
    reg.add(m::kNetDelivered, net.delivered);

    if (!node.has_protocol()) continue;
    net::ProtocolStats proto;
    node.protocol().accumulate_stats(proto);
    if (proto.has_election) {
      reg.add(m::kElectionArmed, proto.election.armed);
      reg.add(m::kElectionWon, proto.election.won);
      reg.add(m::kElectionCancelledDuplicate,
              proto.election.cancelled_duplicate);
      reg.add(m::kElectionCancelledAck, proto.election.cancelled_ack);
      reg.add(m::kElectionCancelledSuperseded,
              proto.election.cancelled_superseded);
    }
    if (proto.has_arbiter) {
      reg.add(m::kArbiterWatches, proto.arbiter.watches);
      reg.add(m::kArbiterRelaysHeard, proto.arbiter.relays_heard);
      reg.add(m::kArbiterRetransmits, proto.arbiter.retransmits);
      reg.add(m::kArbiterGaveUp, proto.arbiter.gave_up);
    }
    if (proto.has_dup_cache) {
      reg.add(m::kNetDupCacheHits, proto.dup_cache.hits);
      reg.add(m::kNetDupCacheEvictions, proto.dup_cache.evictions);
    }
  }
  if (!backoff_slots.empty()) {
    backoff_slots.snapshot_into(reg, m::kMacBackoffSlots);
  }
}

}  // namespace rrnet::testing
