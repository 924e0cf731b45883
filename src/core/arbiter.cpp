#include "core/arbiter.hpp"

#include <utility>

#include "obs/trace.hpp"
#include "util/contracts.hpp"

namespace rrnet::core {

void Arbiter::watch(std::uint64_t key, Callbacks callbacks) {
  RRNET_EXPECTS(callbacks.retransmit != nullptr);
  RRNET_EXPECTS(callbacks.send_ack != nullptr);
  auto [it, inserted] = watches_.try_emplace(key, *scheduler_);
  it->second.callbacks = std::move(callbacks);
  if (inserted) ++stats_.watches;
  it->second.retransmits_used = 0;
  arm_timer(key, it->second);
}

void Arbiter::arm_timer(std::uint64_t key, Watch& watch) {
  watch.timer.start(config_.relay_timeout, [this, key]() {
    const auto it = watches_.find(key);
    RRNET_ASSERT(it != watches_.end());
    Watch& w = it->second;
    if (w.retransmits_used >= config_.max_retransmits) {
      ++stats_.gave_up;
      watches_.erase(it);
      return;
    }
    ++w.retransmits_used;
    ++stats_.retransmits;
    RRNET_TRACE_EVENT(obs::EventKind::ArbiterRetransmit, scheduler_->now(),
                      obs::kNoTraceNode, key, w.retransmits_used);
    // Move the callback out: retransmit() may synchronously re-enter
    // watch() and invalidate `w`. If the watch survives with its slot
    // still empty (no re-entrant watch() replaced it), move it back so
    // the next timer firing can retransmit again.
    auto retransmit = std::move(w.callbacks.retransmit);
    arm_timer(key, w);
    retransmit();
    const auto again = watches_.find(key);
    if (again != watches_.end() &&
        again->second.callbacks.retransmit == nullptr) {
      again->second.callbacks.retransmit = std::move(retransmit);
    }
  });
}

bool Arbiter::relay_heard(std::uint64_t key) {
  const auto it = watches_.find(key);
  if (it == watches_.end()) return false;
  ++stats_.relays_heard;
  RRNET_TRACE_EVENT(obs::EventKind::ArbiterAck, scheduler_->now(),
                    obs::kNoTraceNode, key, 0);
  auto send_ack = std::move(it->second.callbacks.send_ack);
  watches_.erase(it);
  send_ack();
  return true;
}

bool Arbiter::stop(std::uint64_t key) { return watches_.erase(key) > 0; }

}  // namespace rrnet::core
