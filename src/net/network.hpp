// Owns the channel and the nodes; the top of the substrate stack.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "des/inline_callback.hpp"
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
  /// Builds the channel. A node (transceiver + MAC, then whatever the
  /// on_build hook attaches) is built at its first contact: node(id), or
  /// the channel reaching it (a signal starting at its radio,
  /// Channel::transceiver, Channel::transmit). Constructors schedule
  /// nothing and rng forks are keyed by node id, so a node built mid-run
  /// gets the state and streams a run that built it up front would give
  /// it, and every shard hands its nodes the streams the serial run does.
  /// When `shard` marks this network as one shard of a sharded run, only
  /// owned ids are ever built; node(id) on a remote id is a contract
  /// violation. A non-null `shared_index` replaces the per-channel grid
  /// build with a read-only view of one immutable index (static-position
  /// sharded runs); `positions` may then be empty.
  Network(des::Scheduler& scheduler, const geom::Terrain& terrain,
          std::unique_ptr<phy::PropagationModel> model,
          phy::RadioParams radio_params, mac::MacParams mac_params,
          std::vector<geom::Vec2> positions, des::Rng root_rng,
          phy::ShardSpec shard = {},
          std::shared_ptr<const geom::SpatialGrid> shared_index = nullptr);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  /// Owned node `id`, built first if this is its first contact.
  [[nodiscard]] Node& node(std::uint32_t id);
  /// Node `id`, which must already be built.
  [[nodiscard]] const Node& node(std::uint32_t id) const;
  /// True iff this network instance owns node `id` (always true serially),
  /// built or not.
  [[nodiscard]] bool has_node(std::uint32_t id) const noexcept {
    return id < nodes_.size() && channel_->owns(id);
  }
  /// True once node `id` is built.
  [[nodiscard]] bool node_built(std::uint32_t id) const noexcept {
    return nodes_.get(id) != nullptr;
  }
  /// Node stacks this instance has built.
  [[nodiscard]] std::uint64_t nodes_built() const noexcept {
    return nodes_built_;
  }
  [[nodiscard]] phy::Channel& channel() noexcept { return *channel_; }
  [[nodiscard]] const phy::Channel& channel() const noexcept { return *channel_; }
  [[nodiscard]] des::Scheduler& scheduler() noexcept { return *scheduler_; }

  /// Completes every node this network builds from then on (the scenario
  /// builder attaches the protocol and the flow sink). Without one a node
  /// is built bare, and its protocol is set via node(id).set_protocol().
  using NodeAttach = des::InlineFunction<void(Node&), 16>;
  void on_build(NodeAttach attach) { attach_ = std::move(attach); }

  /// Call `fn(node)` for every built node, in build order, so consecutive
  /// calls touch neighbouring memory. For per-node work whose order has no
  /// effect on results; anything that schedules events or sums floating
  /// point walks ids in ascending order instead.
  template <typename Fn>
  void for_each_node(Fn&& fn) {
    for (Node* node : nodes_.in_build_order()) fn(*node);
  }
  template <typename Fn>
  void for_each_node(Fn&& fn) const {
    for (const Node* node : nodes_.in_build_order()) fn(*node);
  }

  /// Call the start() hook of every built node's protocol, in node id
  /// order. A node built later is not started: a protocol whose start()
  /// does anything (DSDV's periodic timer) needs every node built first.
  void start_protocols();

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
  /// Build the stack of owned, unbuilt node `id`: radio, node and MAC,
  /// then the on_build hook. The one construction path of a node.
  Node& build_node(std::uint32_t id);

  des::Scheduler* scheduler_;
  std::unique_ptr<phy::Channel> channel_;
  /// Destroyed before channel_, whose radios the MACs reference.
  util::BuildOrderTable<Node> nodes_;
  std::uint64_t nodes_built_ = 0;
  NodeAttach attach_;
  std::vector<PacketObserver*> observers_;
  /// Forks are keyed off the seed (not stream position), so an id-keyed
  /// fork taken mid-run reproduces one taken at construction.
  des::Rng root_rng_;
  mac::MacParams mac_params_;
};

}  // namespace rrnet::net
