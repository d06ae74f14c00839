// Philox4x32-10 — a counter-based random-number generator (Salmon et al.,
// "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11).
//
// Unlike the sequential xoshiro streams (rng.hpp), a counter-based
// generator is a pure function block(key, counter) -> 128 random bits:
// any sample in any stream is computable directly, with no state to
// advance and no dependence on the order in which other samples are
// drawn. The protocol layer keys its per-round draws by
// (trial seed, round) and counters by (worm, draw slot), which makes a
// round's launch randomness a pure function of worm identity — invariant
// under member reordering, trial batching, and thread count
// (DESIGN.md §9).
//
// The implementation is the reference algorithm: 10 rounds of the 4x32
// Feistel-like multiply/xor network with the published multipliers
// (0xD2511F53, 0xCD9E8D57) and Weyl key schedule (0x9E3779B9,
// 0xBB67AE85). Verified against the Random123 known-answer vector for
// the zero key/counter in tests/test_rng_counter.cpp.
#pragma once

#include <array>
#include <cstdint>

namespace opto {

/// Name of the protocol layer's draw backend, logged into BenchRecord
/// env blocks so perf/fuzz artifacts are attributable across PRs.
inline constexpr const char* kProtocolRngBackend = "philox4x32-10";

class Philox4x32 {
 public:
  using Counter = std::array<std::uint32_t, 4>;

  /// One 128-bit block: ten rounds over `ctr` under the 64-bit key.
  static Counter block(std::uint64_t key, Counter ctr) {
    auto k0 = static_cast<std::uint32_t>(key);
    auto k1 = static_cast<std::uint32_t>(key >> 32);
    for (int round = 0; round < 10; ++round) {
      const std::uint64_t p0 = std::uint64_t{0xD2511F53u} * ctr[0];
      const std::uint64_t p1 = std::uint64_t{0xCD9E8D57u} * ctr[2];
      ctr = Counter{static_cast<std::uint32_t>(p1 >> 32) ^ ctr[1] ^ k0,
                    static_cast<std::uint32_t>(p1),
                    static_cast<std::uint32_t>(p0 >> 32) ^ ctr[3] ^ k1,
                    static_cast<std::uint32_t>(p0)};
      k0 += 0x9E3779B9u;  // Weyl sequence key schedule
      k1 += 0xBB67AE85u;
    }
    return ctr;
  }
};

/// Keyed facade over Philox for one protocol round: constructed from
/// (seed, round), every draw is addressed by (worm, slot) where `slot`
/// names the quantity being drawn (start delay, wavelength, ...). Draws
/// are stateless — calling in any order, from any thread, any number of
/// times, yields the same values.
class CounterRng {
 public:
  // Draw-slot names used by the protocol layer. Keeping them centralized
  // documents the full keying surface of a round.
  enum Slot : std::uint32_t {
    kSlotPriority = 0,       ///< rank key for RandomPermutation
    kSlotStartDelay = 1,     ///< launch delay in [Δ_t]
    kSlotWavelength = 2,     ///< forward wavelength in [B]
    kSlotAckWavelength = 3,  ///< simulated-ack wavelength in [B]
  };

  CounterRng(std::uint64_t seed, std::uint32_t round)
      : key_(seed), round_(round) {}

  /// 64 random bits for (worm, slot).
  std::uint64_t at(std::uint32_t worm, std::uint32_t slot) const {
    const Philox4x32::Counter out =
        Philox4x32::block(key_, {slot, worm, round_, kDomain});
    return (static_cast<std::uint64_t>(out[1]) << 32) | out[0];
  }

  /// Uniform in [0, bound), bound > 0. Fixed consumption (one block, no
  /// rejection loop — a counter-based draw must not depend on other
  /// draws), via the multiply-shift map; the bias is < bound / 2^64,
  /// unobservable for the protocol's bounds (Δ_t, B ≪ 2^32).
  std::uint64_t below(std::uint64_t bound, std::uint32_t worm,
                      std::uint32_t slot) const {
    const unsigned __int128 m =
        static_cast<unsigned __int128>(at(worm, slot)) * bound;
    return static_cast<std::uint64_t>(m >> 64);
  }

 private:
  /// Domain-separation constant: keeps protocol draws disjoint from any
  /// future Philox user that picks different counter conventions.
  static constexpr std::uint32_t kDomain = 0x6F70746Fu;  // "opto"

  std::uint64_t key_;
  std::uint32_t round_;
};

}  // namespace opto
