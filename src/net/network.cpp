#include "net/network.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace rrnet::net {

Network::Network(des::Scheduler& scheduler, const geom::Terrain& terrain,
                 std::unique_ptr<phy::PropagationModel> model,
                 phy::RadioParams radio_params, mac::MacParams mac_params,
                 std::vector<geom::Vec2> positions, des::Rng root_rng,
                 phy::ShardSpec shard,
                 std::shared_ptr<const geom::SpatialGrid> shared_index)
    : scheduler_(&scheduler), root_rng_(root_rng), mac_params_(mac_params) {
  const std::size_t n =
      shared_index ? shared_index->size() : positions.size();
  RRNET_EXPECTS(n > 0);
  channel_ = std::make_unique<phy::Channel>(
      scheduler, terrain, std::move(model), radio_params, std::move(positions),
      root_rng.fork("channel"), shard, std::move(shared_index));
  nodes_.resize(n);
  channel_->on_first_contact([this](std::uint32_t id) { build_node(id); });
}

Node& Network::build_node(std::uint32_t id) {
  phy::Transceiver& radio = channel_->build_transceiver(id);
  Node& node = nodes_.insert(
      id, std::make_unique<Node>(*this, radio, mac_params_,
                                 root_rng_.fork("node", id)));
  ++nodes_built_;
  if (attach_) attach_(node);
  return node;
}

Node& Network::node(std::uint32_t id) {
  RRNET_EXPECTS(has_node(id));
  Node* node = nodes_.get(id);
  return node != nullptr ? *node : build_node(id);
}

const Node& Network::node(std::uint32_t id) const {
  RRNET_EXPECTS(id < nodes_.size() && node_built(id));
  return *nodes_.get(id);
}

void Network::start_protocols() {
  for (std::uint32_t id = 0; id < nodes_.size(); ++id) {
    Node* node = nodes_.get(id);
    if (node != nullptr && node->has_protocol()) node->protocol().start();
  }
}

std::uint64_t Network::total_mac_tx() const noexcept {
  std::uint64_t total = 0;
  for_each_node(
      [&](const Node& node) { total += node.mac().stats().total_tx(); });
  return total;
}

void Network::add_observer(PacketObserver* observer) {
  RRNET_EXPECTS(observer != nullptr);
  if (std::find(observers_.begin(), observers_.end(), observer) !=
      observers_.end()) {
    return;  // already registered; keep notification order stable
  }
  observers_.push_back(observer);
}

void Network::remove_observer(PacketObserver* observer) noexcept {
  observers_.erase(
      std::remove(observers_.begin(), observers_.end(), observer),
      observers_.end());
}

void Network::snapshot_metrics(obs::MetricRegistry& reg,
                               obs::Histogram& backoff_slots) const {
  namespace m = obs::metric;
  const phy::ChannelStats& ch = channel_->stats();
  reg.add(m::kPhyTransmissions, ch.transmissions);
  reg.add(m::kPhyDeliveries, ch.deliveries);

  // Sum the per-node structs in build order; the registry sees each total
  // once. Per-node names appear whenever this instance owns a node, built
  // or not: a node never built has all-zero counters.
  phy::TransceiverStats phy;
  mac::MacStats mac;
  NodeStats net;
  ProtocolStats proto;
  std::size_t queue_high_water = 0;
  for_each_node([&](const Node& node) {
    phy += node.mac().radio().stats();
    mac += node.mac().stats();
    queue_high_water =
        std::max(queue_high_water, node.mac().queue_high_water());
    net += node.stats();
    if (node.has_protocol()) node.protocol().accumulate_stats(proto);
  });
  bool owns_node = false;
  for (std::uint32_t id = 0; id < nodes_.size() && !owns_node; ++id) {
    owns_node = channel_->owns(id);
  }
  if (owns_node) {
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
    reg.set_max(m::kMacQueueHighWater, queue_high_water);

    reg.add(m::kNetTxData, net.data_tx);
    reg.add(m::kNetTxControl, net.control_tx);
    reg.add(m::kNetDelivered, net.delivered);
  }
  if (proto.has_election) {
    reg.add(m::kElectionArmed, proto.election.armed);
    reg.add(m::kElectionWon, proto.election.won);
    reg.add(m::kElectionCancelledDuplicate, proto.election.cancelled_duplicate);
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
  backoff_slots.merge(mac.backoff_slots);
}

}  // namespace rrnet::net
