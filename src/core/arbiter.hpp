// Arbiter role from §2 / §4.1.
//
// The node that triggered the implicit synchronization point (in RR: the
// node that just transmitted a path-reply/data packet) keeps listening:
//  * if it overhears the packet being relayed, it immediately broadcasts an
//    acknowledgement so nodes that missed the relay cancel their timers;
//  * if it hears nothing within a timeout, it retransmits the original
//    packet, re-triggering the election — guaranteeing at least one leader
//    eventually (up to a retry budget).
#pragma once

#include <cstdint>
#include <unordered_map>
#include "util/pooled_containers.hpp"

#include "core/stats.hpp"
#include "des/inline_callback.hpp"
#include "des/timer.hpp"

namespace rrnet::core {

struct ArbiterConfig {
  des::Time relay_timeout = 50e-3;  ///< silence before retransmitting
  std::uint32_t max_retransmits = 3;
};

class Arbiter {
 public:
  /// `retransmit` re-sends the original packet; `send_ack` broadcasts the
  /// acknowledgement. Both are invoked at most once per timer firing /
  /// relay observation respectively. Inline and move-only: captures above
  /// the des::InlineCallback budget are a compile error — box the packet
  /// behind a pooled handle and capture the handle.
  struct Callbacks {
    des::InlineCallback retransmit;
    des::InlineCallback send_ack;
  };

  Arbiter(des::Scheduler& scheduler, ArbiterConfig config) noexcept
      : scheduler_(&scheduler), config_(config) {}

  /// Begin (or restart) watching for a relay of packet `key`.
  void watch(std::uint64_t key, Callbacks callbacks);

  /// Report that a relay of `key` was overheard. Sends the ack and stops
  /// watching. Returns true iff we were watching this key.
  bool relay_heard(std::uint64_t key);

  /// Stop watching without acknowledging (e.g. the packet reached its
  /// target and an end-to-end ack supersedes arbitration).
  bool stop(std::uint64_t key);

  [[nodiscard]] bool watching(std::uint64_t key) const {
    return watches_.count(key) > 0;
  }
  [[nodiscard]] std::size_t active_count() const noexcept {
    return watches_.size();
  }
  [[nodiscard]] const ArbiterStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ArbiterConfig& config() const noexcept { return config_; }

 private:
  struct Watch {
    explicit Watch(des::Scheduler& scheduler) : timer(scheduler) {}
    des::Timer timer;
    Callbacks callbacks;
    std::uint32_t retransmits_used = 0;
  };

  void arm_timer(std::uint64_t key, Watch& watch);

  des::Scheduler* scheduler_;
  ArbiterConfig config_;
  util::PooledUnorderedMap<std::uint64_t, Watch> watches_;
  ArbiterStats stats_;
};

}  // namespace rrnet::core
