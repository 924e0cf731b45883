// Network-protocol interface. One protocol instance runs per node; the Node
// routes MAC deliveries into it and the application (CBR) drives it through
// send_data(). Destination-side deliveries flow out through the node's
// delivery handler.
#pragma once

#include <cstdint>

#include "core/stats.hpp"
#include "net/duplicate_cache.hpp"
#include "net/packet_buffer.hpp"
#include "util/pool.hpp"
#include "phy/radio.hpp"

namespace rrnet::net {

class Node;

/// Protocol-layer counters summed over every node at end of run. Each
/// family reaches the metric registry only if some protocol reported it, so
/// a protocol without elections adds no election.* entries.
struct ProtocolStats {
  core::ElectionStats election;
  core::ArbiterStats arbiter;
  DuplicateCacheStats dup_cache;
  bool has_election = false;
  bool has_arbiter = false;
  bool has_dup_cache = false;

  void add(const core::ElectionStats& s) noexcept {
    election += s;
    has_election = true;
  }
  void add(const core::ArbiterStats& s) noexcept {
    arbiter += s;
    has_arbiter = true;
  }
  void add(const DuplicateCache& cache) noexcept {
    dup_cache += cache.stats();
    has_dup_cache = true;
  }
};

class Protocol : public util::PoolAllocated {
 public:
  explicit Protocol(Node& node) noexcept : node_(&node) {}
  virtual ~Protocol() = default;
  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  /// Called once before traffic starts, on the nodes built by then. Only a
  /// proactive protocol overrides it, and its nodes are all built at start;
  /// every other protocol does its setup in its constructor, which must
  /// schedule nothing (nodes are built at first contact, mid-run).
  virtual void start() {}

  /// A network packet arrived from the MAC. `for_us` is true when the MAC
  /// destination was this node or broadcast; false for promiscuously
  /// overheard unicast frames. `mac_src` is the transmitting neighbor.
  virtual void on_packet(const PacketRef& packet, const phy::RxInfo& info,
                         bool for_us, std::uint32_t mac_src) = 0;

  /// The MAC finished (or gave up on) one of our frames. Unicast protocols
  /// use `success == false` as a link-break signal; `mac_dst` identifies the
  /// neighbor the frame was addressed to (kBroadcastAddress for broadcasts).
  virtual void on_send_done(const PacketRef& packet, bool success,
                            std::uint32_t mac_dst) {
    (void)packet;
    (void)success;
    (void)mac_dst;
  }

  /// Application entry point: originate `payload_bytes` of data to `target`.
  /// Returns the uid of the created packet (for end-to-end accounting).
  virtual std::uint64_t send_data(std::uint32_t target,
                                  std::uint32_t payload_bytes) = 0;

  /// Human-readable protocol name for reports.
  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Add this instance's election, arbiter and duplicate-cache counters to
  /// `into`. Called once at end of run by Network::snapshot_metrics.
  virtual void accumulate_stats(ProtocolStats& into) const { (void)into; }

  [[nodiscard]] Node& node() const noexcept { return *node_; }

 private:
  Node* node_;
};

}  // namespace rrnet::net
