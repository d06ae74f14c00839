// Worm state (§1.1): a message of L flits that moves one link per time
// step and can never be buffered.
//
// Kinematics invariant: a worm injected at start_time enters its path link
// i at time start_time + i — worms never stall, they move forward or get
// eliminated. Consequently a worm's occupancy of link i is the interval
// [start_time + i, start_time + i + ℓ − 1] where ℓ is its flit length when
// crossing that link (priority truncation can shrink ℓ mid-flight).
#pragma once

#include <cstdint>

#include "opto/paths/path.hpp"

namespace opto {

using WormId = std::uint32_t;
inline constexpr WormId kInvalidWorm = ~WormId{0};
/// Occupant a held channel reads as — an established connection of the
/// streaming engine holding the channel between passes (Simulator::set_held).
/// Distinct from kInvalidWorm (the stuck-wavelength fault sentinel) so a
/// loss against a held channel is accounted as pinned, not as a fault.
inline constexpr WormId kPinnedWorm = kInvalidWorm - 1;

using Wavelength = std::uint16_t;
using SimTime = std::int64_t;

enum class WormStatus : std::uint8_t {
  Waiting,    ///< not yet injected this round
  Running,    ///< head advancing (possibly as a truncated remnant)
  Delivered,  ///< all original flits reached the destination
  Killed,     ///< eliminated (serve-first) or fully cut (priority)
};

struct Worm {
  PathId path = kInvalidPath;
  Wavelength wavelength = 0;
  std::uint32_t priority = 0;       ///< higher wins under the priority rule
  SimTime start_time = 0;           ///< head enters link 0 at this time
  std::uint32_t original_length = 0;
  std::uint32_t length = 0;         ///< current flit length (≤ original)
  std::uint32_t head_index = 0;     ///< links already entered
  WormStatus status = WormStatus::Waiting;
  bool truncated = false;           ///< lost flits to a priority collision
  bool corrupted = false;           ///< payload corrupted by an injected fault
  bool fault_killed = false;        ///< eliminated by a fault, not contention
  bool pinned_killed = false;       ///< eliminated by a held (pinned) channel
  std::uint32_t blocked_at_link = 0;  ///< path position of the fatal block
  SimTime finish_time = -1;         ///< delivery/kill completion time

  bool active() const {
    return status == WormStatus::Waiting || status == WormStatus::Running;
  }

  /// Entry time of the head into path link `i` (valid for i ≤ head_index).
  SimTime entry_time(std::uint32_t i) const {
    return start_time + static_cast<SimTime>(i);
  }

  /// Whether the delivery counts as a success: a truncated worm reaching
  /// its destination is an incomplete message and must retry (§1.3: worms
  /// may be "only partly discarded" and still fail); a corrupted payload
  /// is rejected by the destination the same way.
  bool delivered_intact() const {
    return status == WormStatus::Delivered && !truncated && !corrupted;
  }
};

const char* to_string(WormStatus status);

}  // namespace opto
