#include "net/node.hpp"

#include <memory>

#include "net/network.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"
#include "util/pool.hpp"

namespace rrnet::net {

Node::Node(Network& network, phy::Transceiver& radio,
           const mac::MacParams& mac_params, des::Rng rng)
    : network_(&network), id_(radio.node_id()), rng_(rng) {
  mac_ = std::make_unique<mac::CsmaMac>(network.channel(), radio, mac_params,
                                        rng_.fork("mac"), *this);
}

geom::Vec2 Node::position() const { return network_->channel().position(id_); }

des::Scheduler& Node::scheduler() const { return network_->scheduler(); }

void Node::set_protocol(std::unique_ptr<Protocol> protocol) {
  RRNET_EXPECTS(protocol_ == nullptr);
  RRNET_EXPECTS(protocol != nullptr);
  protocol_ = std::move(protocol);
}

Protocol& Node::protocol() const {
  RRNET_EXPECTS(protocol_ != nullptr);
  return *protocol_;
}

void Node::send_packet(const PacketRef& packet, std::uint32_t mac_dst,
                       double priority) {
  if (packet.type() == PacketType::Data) {
    ++stats_.data_tx;
  } else {
    ++stats_.control_tx;
  }
  RRNET_TRACE_EVENT(obs::EventKind::NetSend, scheduler().now(), id_,
                    packet.uid(), static_cast<std::uint16_t>(packet.type()));
  for (PacketObserver* obs : network_->observers()) {
    obs->on_network_tx(id_, packet);
  }
  mac_->send(mac_dst, packet, packet.size_bytes(), priority);
}

void Node::deliver_to_app(const PacketRef& packet) {
  ++stats_.delivered;
  RRNET_TRACE_EVENT(obs::EventKind::NetDeliver, scheduler().now(), id_,
                    packet.uid(), static_cast<std::uint16_t>(packet.type()));
  for (PacketObserver* obs : network_->observers()) {
    obs->on_delivered(id_, packet);
  }
  if (delivery_handler_) delivery_handler_(packet);
}

void Node::mac_receive(const mac::Frame& frame, const phy::RxInfo& info,
                       bool for_us) {
  if (protocol_ == nullptr || !frame.payload) return;
  protocol_->on_packet(frame.payload, info, for_us, frame.src);
}

void Node::mac_send_done(const mac::Frame& frame, bool success) {
  if (protocol_ == nullptr || !frame.payload) return;
  protocol_->on_send_done(frame.payload, success, frame.dst);
}

}  // namespace rrnet::net
