#include "phy/channel.hpp"

#include <algorithm>
#include <limits>

#include "net/packet_buffer.hpp"
#include "obs/trace.hpp"
#include "phy/units.hpp"
#include "util/contracts.hpp"
#include "util/pool.hpp"

namespace rrnet::phy {

Channel::Channel(des::Scheduler& scheduler, const geom::Terrain& terrain,
                 std::unique_ptr<PropagationModel> model, RadioParams params,
                 std::vector<geom::Vec2> positions, des::Rng rng,
                 ShardSpec shard,
                 std::shared_ptr<const geom::SpatialGrid> shared_index)
    : scheduler_(&scheduler),
      model_(std::move(model)),
      params_(params),
      tx_power_mw_(dbm_to_mw(params.tx_power_dbm)),
      rx_threshold_mw_(dbm_to_mw(params.rx_threshold_dbm)),
      interference_cutoff_mw_(dbm_to_mw(params.interference_cutoff_dbm)),
      nominal_range_(nominal_range(*model_, params, terrain)),
      interference_range_(interference_range(*model_, params, terrain)),
      rng_(rng),
      shard_(shard) {
  RRNET_EXPECTS(model_ != nullptr);
  if (shared_index) {
    RRNET_EXPECTS(positions.empty() ||
                  positions.size() == shared_index->size());
    shared_grid_ = std::move(shared_index);
    grid_ = shared_grid_.get();
  } else {
    owned_grid_ = std::make_unique<geom::SpatialGrid>(
        terrain, index_cell_size(interference_range_), positions);
    grid_ = owned_grid_.get();
  }
  const std::size_t n = grid_->size();
  RRNET_EXPECTS(n > 0);
  RRNET_EXPECTS(shard_.owner.empty() || shard_.owner.size() == n);
  frame_counters_.assign(n, 0);
  // Radios are built at first contact; remote nodes never get one here
  // (their radio lives on the owning shard), but their positions stay
  // indexed for bit-identical receiver walks.
  transceivers_.resize(n);
  if (shard_.sharded()) {
    outboxes_.resize(shard_.shards);
    handoff_mark_.assign(shard_.shards, 0);
  }
  // Per-link stream base: rng_ is fork-derived from the run's root seed,
  // so every shard computes the same base and stochastic draws replay
  // identically wherever the receiver walk runs.
  link_seed_base_ = rng_.seed();
  stochastic_ = model_->stochastic();
}

double Channel::nominal_range(const PropagationModel& model,
                              const RadioParams& params,
                              const geom::Terrain& terrain) {
  return range_for_threshold(model, params.tx_power_dbm,
                             params.rx_threshold_dbm, terrain.diameter());
}

double Channel::interference_range(const PropagationModel& model,
                                   const RadioParams& params,
                                   const geom::Terrain& terrain) {
  return range_for_threshold(model, params.tx_power_dbm,
                             params.interference_cutoff_dbm,
                             terrain.diameter());
}

Channel::~Channel() {
  // Retire transmission records to the thread's spare pool so the next run
  // built on this thread starts with warmed receiver-list capacity. Clear
  // payload handles here, on the owning thread — refcounts are non-atomic.
  auto& spare = spare_transmissions();
  constexpr std::size_t kMaxSpare = 256;
  for (auto& tx : transmissions_) {
    if (!tx || spare.size() >= kMaxSpare) break;
    tx->frame = Airframe{};
    tx->receivers.clear();
    tx->next_start = 0;
    tx->next_end = 0;
    spare.push_back(std::move(tx));
  }
}

std::vector<std::unique_ptr<Channel::Transmission>>&
Channel::spare_transmissions() {
  static thread_local std::vector<std::unique_ptr<Transmission>> pool;
  return pool;
}

std::vector<std::uint32_t>& Channel::query_scratch() {
  static thread_local std::vector<std::uint32_t> scratch;
  return scratch;
}

Transceiver& Channel::build_transceiver(std::uint32_t id) {
  RRNET_EXPECTS(id < transceivers_.size() && owns(id) && !radio_built(id));
  Transceiver& radio =
      transceivers_.insert(id, std::make_unique<Transceiver>(id, params_));
  // Channel-owned transceivers can always timestamp their own events
  // (turn_off drop records); enable_energy() re-sets the same clock.
  radio.clock_ = scheduler_;
  return radio;
}

Transceiver& Channel::first_contact(std::uint32_t id) {
  // Constructors schedule nothing and every rng is forked by node id, so
  // building here, mid-run, gives the stack a run that built it up front
  // would have.
  if (first_contact_) {
    RRNET_EXPECTS(owns(id));
    first_contact_(id);
    RRNET_ASSERT(radio_built(id));
    return *transceivers_.get(id);
  }
  return build_transceiver(id);
}

const Transceiver& Channel::transceiver(std::uint32_t id) const {
  RRNET_EXPECTS(id < transceivers_.size() && radio_built(id));
  return *transceivers_.get(id);
}

geom::Vec2 Channel::position(std::uint32_t id) const {
  return grid_->position(id);
}

void Channel::set_position(std::uint32_t id, geom::Vec2 position) {
  RRNET_EXPECTS(id < transceivers_.size());
  // A shared index is immutable by contract (mobility scenarios keep
  // per-shard replicas), so mutation requires exclusive ownership.
  RRNET_EXPECTS(owned_grid_ != nullptr);
  owned_grid_->update_position(id, position);
}

des::Time Channel::heap_front(std::vector<des::Time>& heap, des::Time now) {
  // Entries at or before `now` already executed inside the closed window
  // run_until(now) just finished; drop them lazily here.
  while (!heap.empty() && heap.front() <= now) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    heap.pop_back();
  }
  return heap.empty() ? std::numeric_limits<des::Time>::infinity()
                      : heap.front();
}

bool Channel::transmit(const Airframe& frame) {
  RRNET_EXPECTS(frame.sender < transceivers_.size());
  RRNET_EXPECTS(owns(frame.sender));
  Transceiver& sender = transceiver(frame.sender);
  if (sender.is_off()) {
    ++sender.stats_.tx_dropped_off;
    return false;
  }
  if (sender.state() == RadioState::Tx) {
    ++sender.stats_.tx_dropped_busy;
    RRNET_TRACE_EVENT(obs::EventKind::PhyDrop, scheduler_->now(),
                      frame.sender, frame.id, obs::DropReason::TxWhileBusy);
    return false;
  }

  const des::Time now = scheduler_->now();
  const des::Time duration = params_.airtime(frame.size_bytes);
  sender.begin_transmit(frame.id);
  ++stats_.transmissions;
  RRNET_TRACE_EVENT(obs::EventKind::PhyTxStart, now, frame.sender, frame.id,
                    0);
  scheduler_->schedule_in(duration, [this, id = frame.id, s = frame.sender]() {
    RRNET_TRACE_EVENT(obs::EventKind::PhyTxEnd, scheduler_->now(), s, id, 0);
    transceivers_.get(s)->end_transmit(id, scheduler_->now());
  });
  if (shard_.sharded()) {
    phy_event_heap_.push_back(now + duration);
    std::push_heap(phy_event_heap_.begin(), phy_event_heap_.end(),
                   std::greater<>{});
  }
  start_transmission(frame, now, duration, /*replay=*/false);
  return true;
}

void Channel::inject_remote(const ShardHandoff& handoff) {
  RRNET_EXPECTS(shard_.sharded());
  RRNET_EXPECTS(!owns(handoff.frame.sender));
  // Re-home the payload: the handoff's PacketRef points into the SOURCE
  // shard's (thread's) non-atomic pool. The buffer header is immutable in
  // flight, so reading through the const ref is safe — but copying the ref
  // would bump that non-atomic refcount from this thread (two destination
  // shards injecting the same broadcast would race on it). Build the local
  // frame field by field, deep-cloning the payload straight from the
  // source ref; the source's refcount is only ever moved by its own thread
  // (it clears its outboxes at the next window start).
  const Airframe& src = handoff.frame;
  Airframe frame;
  frame.id = src.id;
  frame.sender = src.sender;
  frame.size_bytes = src.size_bytes;
  frame.frame.kind = src.frame.kind;
  frame.frame.src = src.frame.src;
  frame.frame.dst = src.frame.dst;
  frame.frame.sequence = src.frame.sequence;
  frame.frame.size_bytes = src.frame.size_bytes;
  frame.frame.nav_duration = src.frame.nav_duration;
  if (src.frame.payload) {
    frame.frame.payload = net::clone_packet_deep(src.frame.payload);
  }
  start_transmission(frame, handoff.tx_time, handoff.duration,
                     /*replay=*/true);
}

void Channel::start_transmission(const Airframe& frame, des::Time tx_time,
                                 des::Time duration, bool replay) {
  const bool record_handoffs = shard_.sharded() && !replay;
  const geom::Vec2 origin = grid_->position(frame.sender);
  std::vector<std::uint32_t>& query_buffer = query_scratch();
  grid_->query(origin, interference_range_, query_buffer);
  const std::uint32_t slot = acquire_transmission();
  Transmission& tx = *transmissions_[slot];
  tx.frame = frame;
  tx.duration = duration;
  if (record_handoffs) ++handoff_epoch_;
  // Stochastic models draw from counter-based per-link streams keyed on
  // (base, sender, receiver, per-sender frame counter) — a pure function of
  // the transmission, not of draw history — so a destination shard
  // replaying this walk reproduces every fade bit-for-bit no matter what
  // its own channel drew in between. The per-sender counter is the low
  // half of frame.id, which travels inside the handoff.
  const auto draw_index = frame.id & 0xFFFFFFFFULL;
  // `order` counts every cutoff-passing receiver in grid-query order —
  // including ones this shard does not own — so the equal-arrival
  // tie-break below is the GLOBAL receiver index and a sharded replay
  // interleaves identically to the serial walk.
  std::uint32_t order = 0;
  for (const std::uint32_t rx_id : query_buffer) {
    if (rx_id == frame.sender) continue;
    const double dist = geom::distance(origin, grid_->position(rx_id));
    // Power draws stay in grid-query order at transmit time; positions and
    // powers are pinned here, so signals in flight ignore later mobility.
    // Drawn in mW: the linear entry point spares a log10 per draw and the
    // pow per arrival that converting back would cost.
    double power_mw;
    if (stochastic_) {
      des::LinkRng link(link_seed_base_, frame.sender, rx_id, draw_index);
      power_mw = model_->rx_power_mw(tx_power_mw_, dist, link.rng());
    } else {
      power_mw = model_->rx_power_mw(tx_power_mw_, dist, rng_);
    }
    if (power_mw < interference_cutoff_mw_) continue;  // imperceptible
    const std::uint32_t rx_order = order++;
    if (!owns(rx_id)) {
      if (record_handoffs) {
        const std::uint32_t dst = shard_.owner[rx_id];
        if (handoff_mark_[dst] != handoff_epoch_) {
          handoff_mark_[dst] = handoff_epoch_;
          outboxes_[dst].push_back({tx_time, duration, frame});
        }
      }
      continue;
    }
    tx.receivers.push_back({tx_time + dist / des::kSpeedOfLight, power_mw,
                            rx_id, rx_order, SignalMap::kNoSlot, false});
  }
  if (tx.receivers.empty()) {
    release_transmission(slot);
    return;
  }
  // Equal arrivals keep grid-query order (the `order` field), matching the
  // sequence order the unfused per-receiver events would have had. Plain
  // sort with an explicit tie-break: stable_sort allocates a temporary
  // buffer per call, which would be the hot path's only allocation.
  std::sort(tx.receivers.begin(), tx.receivers.end(),
            [](const PendingRx& a, const PendingRx& b) {
              return a.arrival != b.arrival ? a.arrival < b.arrival
                                            : a.order < b.order;
            });
  const des::Time first = tx.receivers.front().arrival;
  // Handoff soundness: every shard's window bound held, so a replayed
  // signal reaches this shard only after the window it just closed.
  RRNET_ASSERT(!replay || first > scheduler_->now());
  scheduler_->schedule_at(first,
                          [this, slot]() { advance_transmission(slot); });
  if (shard_.sharded()) {
    phy_event_heap_.push_back(first);
    std::push_heap(phy_event_heap_.begin(), phy_event_heap_.end(),
                   std::greater<>{});
  }
}

void Channel::advance_transmission(std::uint32_t slot) {
  Transmission& tx = *transmissions_[slot];
  des::Time now = scheduler_->now();
  for (;;) {
    const bool has_start = tx.next_start < tx.receivers.size();
    const bool has_end = tx.next_end < tx.receivers.size();
    if (!has_start && !has_end) break;
    // End times are spelled `arrival + duration` everywhere in the merge
    // so it compares bitwise-equal doubles.
    const bool do_start =
        has_start &&
        (!has_end || tx.receivers[tx.next_start].arrival <=
                         tx.receivers[tx.next_end].arrival + tx.duration);
    const des::Time due = do_start
                              ? tx.receivers[tx.next_start].arrival
                              : tx.receivers[tx.next_end].arrival + tx.duration;
    if (due > now) {
      if (!scheduler_->advance_if_next(due)) {
        scheduler_->schedule_at(
            due, [this, slot]() { advance_transmission(slot); });
        if (shard_.sharded()) {
          phy_event_heap_.push_back(due);
          std::push_heap(phy_event_heap_.begin(), phy_event_heap_.end(),
                         std::greater<>{});
        }
        return;
      }
      // Nothing runs before `due`: the step is taken in place. It lies
      // inside the running window, so the sharded bound needs no note.
      now = due;
    }
    if (do_start) {
      PendingRx& rx = tx.receivers[tx.next_start++];
      Transceiver* radio = transceivers_.get(rx.rx_id);
      Transceiver& trx = radio != nullptr ? *radio : first_contact(rx.rx_id);
      rx.could_decode = !trx.is_off() && rx.power_mw >= rx_threshold_mw_;
      // Remember the receiver's slot: the matching end below erases in
      // O(1) instead of re-finding the frame id.
      rx.slot = trx.signal_arrives(tx.frame, rx.power_mw, now);
    } else {
      const PendingRx& rx = tx.receivers[tx.next_end++];
      Transceiver& trx = *transceivers_.get(rx.rx_id);
      const std::uint64_t decoded_before = trx.stats().frames_decoded;
      trx.signal_ends(tx.frame, rx.slot, now);
      if (rx.could_decode && trx.stats().frames_decoded > decoded_before) {
        ++stats_.deliveries;
      }
    }
  }
  release_transmission(slot);
}

std::uint32_t Channel::acquire_transmission() {
  if (!free_transmissions_.empty()) {
    const std::uint32_t slot = free_transmissions_.back();
    free_transmissions_.pop_back();
    return slot;
  }
  auto& spare = spare_transmissions();
  if (!spare.empty()) {
    transmissions_.push_back(std::move(spare.back()));
    spare.pop_back();
  } else {
    transmissions_.push_back(std::make_unique<Transmission>());
  }
  return static_cast<std::uint32_t>(transmissions_.size() - 1);
}

void Channel::release_transmission(std::uint32_t slot) {
  Transmission& tx = *transmissions_[slot];
  tx.frame = Airframe{};  // drop the payload handle now, not at slot reuse
  tx.receivers.clear();   // keeps capacity for the next broadcast
  tx.next_start = 0;
  tx.next_end = 0;
  free_transmissions_.push_back(slot);
}

}  // namespace rrnet::phy
