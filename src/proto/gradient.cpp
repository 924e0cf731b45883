#include "proto/gradient.hpp"

#include <algorithm>
#include <utility>

#include "net/network.hpp"
#include "util/contracts.hpp"

namespace rrnet::proto {

GradientProtocol::GradientProtocol(net::Node& node, GradientConfig config)
    : net::Protocol(node),
      config_(config),
      rng_(node.rng().fork("gradient")) {}

void GradientProtocol::update_table(std::uint32_t origin,
                                    std::uint32_t sequence,
                                    std::uint16_t hops_to_me) {
  if (origin == node().id()) return;
  auto [it, inserted] =
      table_.try_emplace(origin, std::make_pair(hops_to_me, sequence));
  if (inserted) return;
  auto& [hops, seq] = it->second;
  if (sequence > seq) {
    seq = sequence;
    hops = hops_to_me;
  } else if (sequence == seq) {
    hops = std::min(hops, hops_to_me);
  }
}

std::uint64_t GradientProtocol::send_data(std::uint32_t target,
                                 std::uint32_t payload_bytes) {
  RRNET_EXPECTS(target != node().id());
  net::PacketInit init;
  init.type = net::PacketType::Data;
  init.origin = node().id();
  init.target = target;
  init.sequence = next_sequence_++;
  init.uid = node().next_packet_uid();
  init.ttl = config_.ttl;
  init.payload_bytes = payload_bytes;
  init.created_at = node().scheduler().now();

  const auto it = table_.find(target);
  if (it == table_.end()) {
    auto [pit, inserted] = pending_.try_emplace(target, node().scheduler());
    PendingDiscovery& pd = pit->second;
    if (pd.queued.size() >= config_.pending_capacity) {
      ++stats_.pending_dropped;
      return init.uid;
    }
    const std::uint64_t uid = init.uid;
    pd.queued.push_back(net::make_packet(std::move(init)));
    if (inserted) start_discovery(target);
    return uid;
  }
  init.expected_hops = it->second.first;  // my height on the gradient
  ++stats_.data_originated;
  const std::uint64_t uid = init.uid;
  originate(net::make_packet(std::move(init)));
  return uid;
}

void GradientProtocol::originate(net::PacketRef packet) {
  packet.hop().actual_hops = 0;
  packet.hop().prev_hop = node().id();
  seen_.observe(packet.flood_key());
  relayed_.observe(packet.flood_key());
  node().send_packet(packet, mac::kBroadcastAddress, 0.0);
}

void GradientProtocol::start_discovery(std::uint32_t target) {
  ++stats_.discoveries_started;
  net::PacketInit init;
  init.type = net::PacketType::PathDiscovery;
  init.origin = node().id();
  init.target = target;
  init.sequence = next_sequence_++;
  init.uid = node().next_packet_uid();
  init.ttl = config_.ttl;
  init.prev_hop = node().id();
  init.created_at = node().scheduler().now();
  net::PacketRef packet = net::make_packet(std::move(init));
  seen_.observe(packet.flood_key());
  node().send_packet(packet, mac::kBroadcastAddress, 0.0);

  const auto it = pending_.find(target);
  RRNET_ASSERT(it != pending_.end());
  it->second.timer.start(config_.discovery_timeout,
                         [this, target]() { discovery_timeout(target); });
}

void GradientProtocol::discovery_timeout(std::uint32_t target) {
  const auto it = pending_.find(target);
  if (it == pending_.end()) return;
  if (table_.count(target) > 0) {
    flush_pending(target);
    return;
  }
  PendingDiscovery& pd = it->second;
  if (pd.retries >= config_.max_discovery_retries) {
    stats_.pending_dropped += pd.queued.size();
    pending_.erase(it);
    return;
  }
  ++pd.retries;
  --stats_.discoveries_started;
  start_discovery(target);
}

void GradientProtocol::flush_pending(std::uint32_t target) {
  const auto it = pending_.find(target);
  if (it == pending_.end()) return;
  std::vector<net::PacketRef> queued = std::move(it->second.queued);
  pending_.erase(it);
  const auto entry = table_.find(target);
  RRNET_ASSERT(entry != table_.end());
  for (net::PacketRef& packet : queued) {
    packet.hop().expected_hops = entry->second.first;
    ++stats_.data_originated;
    originate(std::move(packet));
  }
}

void GradientProtocol::handle_discovery(const net::PacketRef& packet) {
  update_table(packet.origin(), packet.sequence(),
               static_cast<std::uint16_t>(packet.actual_hops() + 1));
  const bool is_new = seen_.observe(packet.flood_key());
  if (packet.target() == node().id()) {
    if (is_new && pending_.count(packet.origin()) == 0) {
      // Answer with a gradient-forwarded reply so the requester learns its
      // distance to us (symmetric to RR's path reply).
      const auto it = table_.find(packet.origin());
      RRNET_ASSERT(it != table_.end());
      net::PacketInit reply;
      reply.type = net::PacketType::PathReply;
      reply.origin = node().id();
      reply.target = packet.origin();
      reply.sequence = next_sequence_++;
      reply.uid = node().next_packet_uid();
      reply.ttl = config_.ttl;
      reply.created_at = node().scheduler().now();
      ++stats_.replies_sent;
      // Height toward the requester is what gates forwarding.
      reply.expected_hops = it->second.first;
      originate(net::make_packet(std::move(reply)));
    }
    return;
  }
  if (!is_new || packet.ttl() == 0) return;
  net::PacketRef copy = packet;
  copy.hop().ttl -= 1;
  copy.hop().actual_hops += 1;
  copy.hop().prev_hop = node().id();
  const des::Time delay = rng_.uniform(0.0, config_.discovery_lambda);
  node().scheduler().schedule_in(delay, [this, copy, delay]() {
    ++stats_.discovery_relays;
    node().send_packet(copy, mac::kBroadcastAddress, delay);
  });
}

void GradientProtocol::handle_forwarded(const net::PacketRef& packet) {
  update_table(packet.origin(), packet.sequence(),
               static_cast<std::uint16_t>(packet.actual_hops() + 1));
  const std::uint64_t key = packet.flood_key();
  seen_.observe(key);

  if (packet.target() == node().id()) {
    if (delivered_.observe(key)) {
      net::PacketRef delivered = packet;
      delivered.hop().actual_hops =
          static_cast<std::uint16_t>(packet.actual_hops() + 1);
      if (packet.type() == net::PacketType::Data) {
        ++stats_.data_delivered;
        node().deliver_to_app(delivered);
      } else if (pending_.count(packet.origin()) > 0) {
        flush_pending(packet.origin());
      }
    }
    return;
  }

  // Gradient rule: forward iff strictly closer to the target than the node
  // we heard it from — and only once per packet.
  const auto it = table_.find(packet.target());
  if (it == table_.end() || it->second.first >= packet.expected_hops()) {
    ++stats_.not_on_gradient;
    return;
  }
  if (packet.ttl() == 0) return;
  if (!relayed_.observe(key)) return;  // already relayed this packet
  net::PacketRef copy = packet;
  copy.hop().ttl -= 1;
  copy.hop().actual_hops += 1;
  copy.hop().prev_hop = node().id();
  copy.hop().expected_hops = it->second.first;  // my height gates the next ring
  const des::Time delay = rng_.uniform(0.0, config_.jitter);
  node().scheduler().schedule_in(delay, [this, copy, delay]() {
    ++stats_.relays;
    node().send_packet(copy, mac::kBroadcastAddress, delay);
  });
}

void GradientProtocol::on_packet(const net::PacketRef& packet,
                                 const phy::RxInfo& /*info*/, bool /*for_us*/,
                                 std::uint32_t /*mac_src*/) {
  switch (packet.type()) {
    case net::PacketType::PathDiscovery:
      handle_discovery(packet);
      return;
    case net::PacketType::PathReply:
    case net::PacketType::Data:
      handle_forwarded(packet);
      return;
    default:
      return;
  }
}


void GradientProtocol::accumulate_stats(net::ProtocolStats& into) const {
  into.add(seen_);
  into.add(relayed_);
  into.add(delivered_);
}

}  // namespace rrnet::proto
