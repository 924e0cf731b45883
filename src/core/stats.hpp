// Per-node counters of the local leader election and arbiter roles. Plain
// structs so the network layer can sum them at end of run without
// depending on the election machinery itself.
#pragma once

#include <cstdint>

namespace rrnet::core {

/// Per-node counters over all elections.
struct ElectionStats {
  std::uint64_t armed = 0;
  std::uint64_t won = 0;
  std::uint64_t cancelled_duplicate = 0;
  std::uint64_t cancelled_ack = 0;
  std::uint64_t cancelled_superseded = 0;

  ElectionStats& operator+=(const ElectionStats& o) noexcept {
    armed += o.armed;
    won += o.won;
    cancelled_duplicate += o.cancelled_duplicate;
    cancelled_ack += o.cancelled_ack;
    cancelled_superseded += o.cancelled_superseded;
    return *this;
  }
};

struct ArbiterStats {
  std::uint64_t watches = 0;
  std::uint64_t relays_heard = 0;  ///< -> acknowledgement sent
  std::uint64_t retransmits = 0;
  std::uint64_t gave_up = 0;

  ArbiterStats& operator+=(const ArbiterStats& o) noexcept {
    watches += o.watches;
    relays_heard += o.relays_heard;
    retransmits += o.retransmits;
    gave_up += o.gave_up;
    return *this;
  }
};

}  // namespace rrnet::core
