// Owns the channel and the nodes; the top of the substrate stack.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "des/rng.hpp"
#include "des/scheduler.hpp"
#include "geom/spatial_grid.hpp"
#include "geom/terrain.hpp"
#include "mac/csma.hpp"
#include "net/node.hpp"
#include "obs/metrics.hpp"
#include "phy/channel.hpp"
#include "util/pool.hpp"

namespace rrnet::net {

class Network {
 public:
  /// Builds the channel and one node (transceiver + MAC) per position.
  /// Protocols are attached afterwards via node(i).set_protocol(...).
  /// When `shard` marks this network as one shard of a sharded run, nodes
  /// (and their transceivers) exist only for owned ids; node(id) on a
  /// remote id is a contract violation. Rng forks are keyed by node id, so
  /// every shard hands its nodes the exact streams the serial run would.
  /// A non-null `shared_index` replaces the per-channel grid build with a
  /// read-only view of one immutable index (static-position sharded runs);
  /// `positions` may then be empty.
  Network(des::Scheduler& scheduler, const geom::Terrain& terrain,
          std::unique_ptr<phy::PropagationModel> model,
          phy::RadioParams radio_params, mac::MacParams mac_params,
          std::vector<geom::Vec2> positions, des::Rng root_rng,
          phy::ShardSpec shard = {},
          std::shared_ptr<const geom::SpatialGrid> shared_index = nullptr);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  /// Destroys the nodes in reverse storage order (see for_each_node).
  ~Network();

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] Node& node(std::uint32_t id);
  [[nodiscard]] const Node& node(std::uint32_t id) const;
  /// True iff this network instance owns node `id` (always true serially).
  [[nodiscard]] bool has_node(std::uint32_t id) const noexcept {
    return id < nodes_.size() && nodes_[id] != nullptr;
  }
  [[nodiscard]] phy::Channel& channel() noexcept { return *channel_; }
  [[nodiscard]] const phy::Channel& channel() const noexcept { return *channel_; }
  [[nodiscard]] des::Scheduler& scheduler() noexcept { return *scheduler_; }

  /// Call `fn(node)` for every node this instance holds, in storage order:
  /// the channel's grid cell order, the order the nodes were built in, so
  /// consecutive calls touch neighbouring memory. For per-node work whose
  /// order has no effect on results; anything that schedules events or
  /// sums floating point walks ids in ascending order instead.
  template <typename Fn>
  void for_each_node(Fn&& fn) {
    for (const std::uint32_t id : channel_->storage_order()) {
      if (nodes_[id] != nullptr) fn(*nodes_[id]);
    }
  }
  template <typename Fn>
  void for_each_node(Fn&& fn) const {
    for (const std::uint32_t id : channel_->storage_order()) {
      if (nodes_[id] != nullptr) fn(std::as_const(*nodes_[id]));
    }
  }
  /// The held nodes in storage order, gathered in a pass of their own. For
  /// a pass that builds an object per node (protocol and sink attach):
  /// looking each node up between constructions, as for_each_node does,
  /// measured slower at n = 10^6 than this extra pass (DESIGN.md, "Storage
  /// order").
  [[nodiscard]] std::vector<Node*> nodes_in_storage_order() {
    return util::gather_in_order(nodes_, channel_->storage_order());
  }

  /// Call every protocol's start() hook (after all protocols are attached),
  /// in node id order.
  void start_protocols();

  // --- Node migration (sharded dynamic ownership) ---

  /// Build the node (radio + MAC) for an id this shard just adopted. The
  /// channel's owner map must already name this shard. The node gets the
  /// same id-keyed rng fork as the serial run — identical child streams —
  /// and its engine state is then restored from the migration record.
  /// The protocol and delivery handler are attached by the caller (they
  /// need scenario context the network does not have).
  Node& adopt_node(std::uint32_t id);
  /// Destroy an evicted node and its radio (must run on the owning thread:
  /// both are pool-allocated).
  void evict_node(std::uint32_t id);

  /// Observers for tracing (not owned). Multiple observers may watch the
  /// same network — e.g. a PathTrace plus an ad-hoc counter in a test; all
  /// are notified in registration order on every tx/delivery.
  void add_observer(PacketObserver* observer);
  void remove_observer(PacketObserver* observer) noexcept;
  [[nodiscard]] const std::vector<PacketObserver*>& observers() const noexcept {
    return observers_;
  }

  /// Total MAC transmissions (data + ACK) across all nodes — the paper's
  /// "Number of MAC Packets" metric.
  [[nodiscard]] std::uint64_t total_mac_tx() const noexcept;

  /// Sum every layer's per-node counters (PHY, MAC, net, per-protocol) and
  /// add the totals to `reg`. Pure observation: never mutates simulation
  /// state. The raw backoff histogram is merged into `backoff_slots`, not
  /// flattened into `reg`: percentile entries do not compose across
  /// registries, so the raw buckets of every shard are flattened once.
  void snapshot_metrics(obs::MetricRegistry& reg,
                        obs::Histogram& backoff_slots) const;

 private:
  des::Scheduler* scheduler_;
  std::unique_ptr<phy::Channel> channel_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<PacketObserver*> observers_;
  /// Retained for adopt_node: forks are keyed off the seed (not stream
  /// position), so late id-keyed forks reproduce construction-time ones.
  des::Rng root_rng_;
  mac::MacParams mac_params_;
};

}  // namespace rrnet::net
