#include "core/election.hpp"

#include <utility>

#include "obs/trace.hpp"
#include "util/contracts.hpp"

namespace rrnet::core {

void ElectionSession::arm_impl(const BackoffPolicy& policy,
                               const ElectionContext& context, des::Rng& rng,
                               WinHandler on_win, ElectionTable* owner,
                               std::uint64_t key) {
  RRNET_EXPECTS(on_win != nullptr);
  delay_ = policy.delay(context, rng);
  RRNET_ENSURES(delay_ >= 0.0);
  handler_ = std::move(on_win);
  owner_ = owner;
  key_ = key;
  timer_.start(delay_, [this]() {
    // Move everything to the stack first: session_won erases this session
    // from its owning table, destroying *this.
    const des::Time delay = delay_;
    WinHandler handler = std::move(handler_);
    ElectionTable* table = owner_;
    const std::uint64_t session_key = key_;
    if (table != nullptr) table->session_won(session_key);
    handler(delay);
  });
}

bool ElectionSession::cancel() noexcept { return timer_.cancel(); }

void ElectionTable::arm(std::uint64_t key, const BackoffPolicy& policy,
                        const ElectionContext& context, des::Rng& rng,
                        ElectionSession::WinHandler on_win) {
  auto [it, inserted] = sessions_.try_emplace(key, *scheduler_);
  ++stats_.armed;
  RRNET_TRACE_EVENT(obs::EventKind::ElectionArm, scheduler_->now(),
                    obs::kNoTraceNode, key, 0);
  it->second.arm_impl(policy, context, rng, std::move(on_win), this, key);
}

void ElectionTable::session_won(std::uint64_t key) {
  ++stats_.won;
  RRNET_TRACE_EVENT(obs::EventKind::ElectionWin, scheduler_->now(),
                    obs::kNoTraceNode, key, 0);
  // Erase before the handler runs: the handler may re-arm the key.
  sessions_.erase(key);
}

bool ElectionTable::cancel(std::uint64_t key, CancelReason reason) {
  const auto it = sessions_.find(key);
  if (it == sessions_.end()) return false;
  const bool was_pending = it->second.cancel();
  sessions_.erase(it);
  if (was_pending) {
    RRNET_TRACE_EVENT(obs::EventKind::ElectionCancel, scheduler_->now(),
                      obs::kNoTraceNode, key,
                      static_cast<std::uint16_t>(reason));
    switch (reason) {
      case CancelReason::DuplicateHeard: ++stats_.cancelled_duplicate; break;
      case CancelReason::ArbiterAck: ++stats_.cancelled_ack; break;
      case CancelReason::Superseded: ++stats_.cancelled_superseded; break;
    }
  }
  return was_pending;
}

bool ElectionTable::armed(std::uint64_t key) const {
  const auto it = sessions_.find(key);
  return it != sessions_.end() && it->second.armed();
}

}  // namespace rrnet::core
