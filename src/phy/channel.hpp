// Shared broadcast medium: delivers each transmission to every transceiver
// within the interference range, after per-receiver propagation delay, with
// per-receiver received power drawn from the propagation model.
//
// Receiver scheduling is fused: instead of two scheduler events per
// receiver (signal start + signal end), each transmission owns a pooled
// Transmission record holding its receiver list sorted by arrival, and a
// single self-rescheduling walker event advances a two-pointer merge of
// the start stream (arrival_i) and the end stream (arrival_i + duration).
// The heap holds at most one entry per transmission in flight instead of
// O(receivers), which keeps it shallow exactly when §3 floods make
// neighborhoods dense. Start/end interleaving, power draws (grid-query
// order at transmit time), and same-timestamp ordering (starts before
// ends; equal arrivals in query order) are preserved bit-for-bit. While the
// walker's next receiver is also the scheduler's next event, the walker
// moves the clock there in place (des::Scheduler::advance_if_next) and
// keeps walking; it goes back through the queue only when another event
// falls in between.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "des/inline_callback.hpp"
#include "des/rng.hpp"
#include "des/scheduler.hpp"
#include "geom/spatial_grid.hpp"
#include "phy/propagation.hpp"
#include "phy/radio.hpp"
#include "phy/transceiver.hpp"
#include "util/contracts.hpp"
#include "util/pool.hpp"

namespace rrnet::phy {

/// Channel-wide counters (all nodes aggregated).
struct ChannelStats {
  std::uint64_t transmissions = 0;  ///< frames put on the air
  std::uint64_t deliveries = 0;     ///< successful (frame, receiver) decodes
};

/// Sharded-mode identity: which spatial shard this channel instance is and
/// the owning shard of every node id. Default-constructed = serial mode
/// (one shard owning everything). In shard mode the channel still indexes
/// ALL positions (the full grid is what lets it re-run a remote
/// transmission's receiver walk bit-identically), but it creates
/// transceivers only for owned nodes and records transmissions that reach
/// other shards into per-destination outboxes.
struct ShardSpec {
  std::uint32_t shard = 0;   ///< this channel's shard index
  std::uint32_t shards = 1;  ///< total shard count
  /// owner[id] = owning shard of node id; empty means serial (all local).
  /// Fixed for the whole run, even when mobile nodes leave their initial
  /// strip: one read-only map, shared by every shard of the run, which
  /// must outlive the channel.
  std::span<const std::uint32_t> owner;
  [[nodiscard]] bool sharded() const noexcept { return shards > 1; }
};

/// One cross-shard transmission: everything the destination shard needs to
/// replay the receiver walk locally. Deliberately minimal — the destination
/// re-derives arrivals, powers, and global receiver order from its own full
/// position grid and the (deterministic) propagation model, so the replay
/// is bitwise identical to the serial walk. The embedded frame still
/// references the SOURCE shard's pooled packet buffer; the destination
/// deep-clones it at injection time (inject_remote) and never retains it.
struct ShardHandoff {
  des::Time tx_time = 0.0;   ///< when the frame was put on the air
  des::Time duration = 0.0;  ///< its airtime
  Airframe frame;
};

class Channel {
 public:
  /// `positions[i]` is the location of node i. A node's transceiver is
  /// built at first contact: the first time a signal starts at it or
  /// anything asks for it (transceiver(), transmit()); in shard mode only
  /// OWNED nodes are ever built. The scheduler, model, and params must
  /// outlive the channel.
  ///
  /// When `shared_index` is non-null the channel queries that immutable
  /// grid instead of building its own (the sharded engine passes one index
  /// to every static-position shard, cutting index memory from O(n*K) to
  /// O(n)); `positions` may then be empty, and set_position is forbidden.
  Channel(des::Scheduler& scheduler, const geom::Terrain& terrain,
          std::unique_ptr<PropagationModel> model, RadioParams params,
          std::vector<geom::Vec2> positions, des::Rng rng,
          ShardSpec shard = {},
          std::shared_ptr<const geom::SpatialGrid> shared_index = nullptr);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;
  ~Channel();

  [[nodiscard]] std::size_t node_count() const noexcept {
    return transceivers_.size();
  }
  /// The radio of owned node `id`, built first if this is its first
  /// contact.
  [[nodiscard]] Transceiver& transceiver(std::uint32_t id) {
    RRNET_EXPECTS(id < transceivers_.size());
    Transceiver* radio = transceivers_.get(id);
    return radio != nullptr ? *radio : first_contact(id);
  }
  /// The radio of `id`, which must already be built.
  [[nodiscard]] const Transceiver& transceiver(std::uint32_t id) const;
  /// True once the radio of `id` is built.
  [[nodiscard]] bool radio_built(std::uint32_t id) const noexcept {
    return transceivers_.get(id) != nullptr;
  }

  /// Builds the stack of a node at its first contact; it must build the
  /// node's radio through build_transceiver(id). The network installs one
  /// so a radio never exists without its MAC and protocol; a channel
  /// without one builds bare radios.
  using FirstContact = des::InlineFunction<void(std::uint32_t), 16>;
  void on_first_contact(FirstContact build) {
    first_contact_ = std::move(build);
  }
  /// Build the radio of owned, unbuilt node `id` (the first-contact hook's
  /// one way to make a radio).
  Transceiver& build_transceiver(std::uint32_t id);
  [[nodiscard]] geom::Vec2 position(std::uint32_t id) const;
  [[nodiscard]] const RadioParams& params() const noexcept { return params_; }
  [[nodiscard]] const PropagationModel& model() const noexcept { return *model_; }
  [[nodiscard]] des::Scheduler& scheduler() const noexcept { return *scheduler_; }

  /// Start transmitting `frame` from `frame.sender`. Returns false (and
  /// drops the frame) if that radio is off or already transmitting.
  bool transmit(const Airframe& frame);

  /// Distance at which the mean rx power equals the rx threshold — the
  /// nominal transmission range of every node.
  [[nodiscard]] double nominal_range_m() const noexcept { return nominal_range_; }
  /// The nominal_range_m() of a channel built from these arguments, for a
  /// caller that needs it before any channel exists.
  [[nodiscard]] static double nominal_range(const PropagationModel& model,
                                            const RadioParams& params,
                                            const geom::Terrain& terrain);
  /// The interference_range_m() of a channel built from these arguments.
  [[nodiscard]] static double interference_range(const PropagationModel& model,
                                                 const RadioParams& params,
                                                 const geom::Terrain& terrain);
  /// Cell size of the spatial index of a channel with this interference
  /// range: the range, at least 1 m.
  [[nodiscard]] static double index_cell_size(double interference_range_m) {
    return std::max(1.0, interference_range_m);
  }
  /// Distance beyond which signals are ignored entirely (below the noise
  /// floor at mean power; they could not move any SINR perceptibly).
  [[nodiscard]] double interference_range_m() const noexcept {
    return interference_range_;
  }

  /// Heap bytes of the spatial index this channel queries; `owns_index()`
  /// is false when the index is shared across shards (static scenarios).
  [[nodiscard]] std::size_t index_bytes() const noexcept {
    return grid_->index_bytes();
  }
  [[nodiscard]] bool owns_index() const noexcept {
    return owned_grid_ != nullptr;
  }

  [[nodiscard]] const ChannelStats& stats() const noexcept { return stats_; }

  /// Fresh unique frame id for a frame sent by `sender` (MACs stamp
  /// outgoing frames with this). Ids are (sender << 32) | per-sender
  /// counter, so the sequence a node draws is independent of every other
  /// node's transmissions — a spatially sharded run hands out the same ids
  /// as a serial one.
  [[nodiscard]] std::uint64_t next_frame_id(std::uint32_t sender) noexcept {
    RRNET_EXPECTS(sender < frame_counters_.size());
    return (static_cast<std::uint64_t>(sender) << 32) |
           ++frame_counters_[sender];
  }

  /// Move a node (mobility models). Takes effect for transmissions that
  /// start after the call; signals already in flight keep the powers
  /// computed at their transmit time.
  void set_position(std::uint32_t id, geom::Vec2 position);

  // --- Sharded-mode surface (all no-ops / trivially true in serial mode) ---

  [[nodiscard]] bool sharded() const noexcept { return shard_.sharded(); }
  /// True iff node `id` lives on this shard (always true serially).
  [[nodiscard]] bool owns(std::uint32_t id) const noexcept {
    return shard_.owner.empty() || shard_.owner[id] == shard_.shard;
  }

  /// MAC layers call this whenever they arm a timer whose expiry can put a
  /// frame on the air without an intervening DIFS (sifs-deferred responses,
  /// the final backoff slot, DIFS expiry itself). The sharded engine's
  /// conservative window bound is min(earliest armed tx, earliest phy
  /// event + sifs, earliest scheduler event + difs) — without these notes
  /// the first term would be unknown and the bound unsound.
  void note_armed_tx(des::Time when) {
    if (!sharded()) return;
    armed_tx_heap_.push_back(when);
    std::push_heap(armed_tx_heap_.begin(), armed_tx_heap_.end(),
                   std::greater<>{});
  }

  /// Earliest pending armed-tx note at or after `now` (stale notes — timers
  /// that fired or were cancelled — are discarded lazily), or +infinity.
  [[nodiscard]] des::Time earliest_armed_tx(des::Time now) noexcept {
    return heap_front(armed_tx_heap_, now);
  }
  /// Earliest pending channel-internal event (transmission walker due /
  /// end-of-transmit) at or after `now`, or +infinity.
  [[nodiscard]] des::Time earliest_phy_event(des::Time now) noexcept {
    return heap_front(phy_event_heap_, now);
  }

  /// Frames transmitted locally this window that reach shard `dst`'s strip.
  [[nodiscard]] std::vector<ShardHandoff>& outbox(std::uint32_t dst) noexcept {
    return outboxes_[dst];
  }
  /// Drop all outbox entries (src shard, start of each window — the
  /// destination shards have deep-cloned what they needed at the barrier).
  void clear_outboxes() noexcept {
    for (auto& box : outboxes_) box.clear();
  }

  /// Replay a remote shard's transmission on this shard: re-run the full
  /// receiver walk over the complete position grid (same arrivals, powers,
  /// and global order indices as the serial run) but deliver only to
  /// receivers this shard owns. The handoff's packet payload is
  /// deep-cloned here so the source shard's pool is never touched again.
  /// Does NOT count toward stats().transmissions (the source shard did).
  /// Asserts that no replayed signal reaches an owned receiver at or
  /// before this shard's clock: the window bound guarantees it.
  void inject_remote(const ShardHandoff& handoff);

  /// True when any per-destination outbox holds a handoff (the sharded
  /// engine's quiet-window test: nothing outbound means the exchange half
  /// of the barrier round can be skipped).
  [[nodiscard]] bool has_outbound() const noexcept {
    for (const auto& box : outboxes_) {
      if (!box.empty()) return true;
    }
    return false;
  }
  /// Total handoffs parked across all destination outboxes (profiler
  /// fan-out accounting; outboxes are sealed between barriers, so reading
  /// sizes during the exchange is race-free).
  [[nodiscard]] std::uint64_t outbound_handoffs() const noexcept {
    std::uint64_t n = 0;
    for (const auto& box : outboxes_) n += box.size();
    return n;
  }

 private:
  struct PendingRx {
    des::Time arrival;     ///< absolute signal-start time at this receiver
    double power_mw;       ///< drawn from the model at transmit time (linear)
    std::uint32_t rx_id;
    std::uint32_t order;   ///< grid-query index; tie-break for equal arrivals
    std::uint32_t slot;    ///< receiver's SignalMap slot, set at signal start
    bool could_decode;     ///< evaluated at signal start (radio state then)
  };

  /// One in-flight broadcast: the frame plus its receiver list, sorted by
  /// arrival, with two cursors merging the start and end streams. Slots are
  /// unique_ptr so references stay stable when a re-entrant transmit()
  /// grows the slot vector.
  struct Transmission {
    Airframe frame;
    des::Time duration = 0.0;
    std::vector<PendingRx> receivers;
    std::size_t next_start = 0;
    std::size_t next_end = 0;
  };

  /// Build the stack of `id` (through the hook, or a bare radio).
  Transceiver& first_contact(std::uint32_t id);

  /// Process every start/end due now for the transmission in `slot`, then
  /// re-schedule for the next due time (or retire the slot when done).
  void advance_transmission(std::uint32_t slot);
  std::uint32_t acquire_transmission();
  void release_transmission(std::uint32_t slot);

  /// Thread-local pool of retired Transmission records (receiver-list
  /// capacity retained). Channels are built and torn down once per run —
  /// serially or one per shard worker — so without this every run re-grows
  /// every receiver vector from scratch; with it, warm runs on the same
  /// thread are allocation-free here.
  static std::vector<std::unique_ptr<Transmission>>& spare_transmissions();
  /// Thread-local grid-query scratch, same rationale.
  static std::vector<std::uint32_t>& query_scratch();

  /// Shared body of transmit() and inject_remote(): build the receiver
  /// walk for `frame` put on the air at `tx_time` for `duration`. In shard
  /// mode, skips non-owned receivers (keeping their global order indices)
  /// and, unless `replay` (a remote shard's transmission), appends one
  /// ShardHandoff per remote shard whose strip the signal reaches.
  void start_transmission(const Airframe& frame, des::Time tx_time,
                          des::Time duration, bool replay);

  /// Pop heap entries at or before `now` (the closed window run_until(now)
  /// already executed them), then return the front or +infinity.
  static des::Time heap_front(std::vector<des::Time>& heap, des::Time now);

  des::Scheduler* scheduler_;
  std::unique_ptr<PropagationModel> model_;
  RadioParams params_;
  // Linear-domain mirrors of the dBm params, converted once: the transmit
  // loop draws and thresholds per receiver in mW, so no per-draw pow/log.
  double tx_power_mw_;
  double rx_threshold_mw_;
  double interference_cutoff_mw_;
  double nominal_range_;
  double interference_range_;
  /// Exactly one of owned_grid_/shared_grid_ is set; grid_ views it.
  /// shared_grid_ is immutable (concurrent const queries from all shard
  /// workers); owned_grid_ additionally serves set_position.
  std::unique_ptr<geom::SpatialGrid> owned_grid_;
  std::shared_ptr<const geom::SpatialGrid> shared_grid_;
  const geom::SpatialGrid* grid_ = nullptr;
  util::BuildOrderTable<Transceiver> transceivers_;
  FirstContact first_contact_;
  des::Rng rng_;
  /// Base key of the counter-based per-link streams (des::LinkRng). Taken
  /// from rng_'s seed, which is fork-derived and therefore identical on
  /// every shard of a run — the property that makes a replayed receiver
  /// walk reproduce the serial draws exactly.
  std::uint64_t link_seed_base_ = 0;
  /// Cached model_->stochastic(): per-receiver branch on the hot path.
  bool stochastic_ = false;
  ChannelStats stats_;
  std::vector<std::uint32_t> frame_counters_;  ///< per-sender frame-id counters
  std::vector<std::unique_ptr<Transmission>> transmissions_;
  std::vector<std::uint32_t> free_transmissions_;
  ShardSpec shard_;
  /// outboxes_[dst]: handoffs for shard dst accumulated this window.
  std::vector<std::vector<ShardHandoff>> outboxes_;
  /// Min-heaps of lookahead-relevant future times (see note_armed_tx).
  std::vector<des::Time> armed_tx_heap_;
  std::vector<des::Time> phy_event_heap_;
  /// Scratch: shards already handed the current transmission (reset by id).
  std::vector<std::uint32_t> handoff_mark_;
  std::uint32_t handoff_epoch_ = 0;
};

}  // namespace rrnet::phy
