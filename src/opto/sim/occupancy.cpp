#include "opto/sim/occupancy.hpp"

namespace opto {

OccupancyRegistry::OccupancyRegistry(std::size_t link_count,
                                     std::uint32_t bandwidth)
    : bandwidth_(bandwidth),
      epoch_of_(link_count * bandwidth, 0),  // epoch_ >= 1: 0 reads empty
      claim_(link_count * bandwidth) {
  OPTO_ASSERT(bandwidth >= 1);
}

const Claim* OccupancyRegistry::find(EdgeId link, Wavelength wavelength,
                                     SimTime now) const {
  ++stats_.probes;
  const std::size_t idx = index(link, wavelength);
  if (epoch_of_[idx] != epoch_ || claim_[idx].release <= now) return nullptr;
  OPTO_DASSERT(claim_[idx].entry <= now);
  ++stats_.hits;
  return &claim_[idx];
}

std::optional<Claim> OccupancyRegistry::occupant(EdgeId link,
                                                 Wavelength wavelength,
                                                 SimTime now) const {
  const Claim* claim = find(link, wavelength, now);
  if (claim == nullptr) return std::nullopt;
  return *claim;
}

void OccupancyRegistry::claim(EdgeId link, Wavelength wavelength,
                              const Claim& claim) {
  OPTO_DASSERT(claim.release > claim.entry);
  const std::size_t idx = index(link, wavelength);
  epoch_of_[idx] = epoch_;
  claim_[idx] = claim;
}

SimTime OccupancyRegistry::shorten(EdgeId link, Wavelength wavelength,
                                   WormId worm, SimTime new_release) {
  const std::size_t idx = index(link, wavelength);
  if (epoch_of_[idx] != epoch_ || claim_[idx].worm != worm) return 0;
  Claim& c = claim_[idx];
  if (new_release < c.entry) new_release = c.entry;
  if (new_release >= c.release) return 0;
  const SimTime trimmed = c.release - new_release;
  c.release = new_release;
  return trimmed;
}

void OccupancyRegistry::clear() {
  if (++epoch_ == 0) {  // epoch wrap: lazily-emptied slots become ambiguous
    for (std::uint32_t& e : epoch_of_) e = 0;
    epoch_ = 1;
  }
}

}  // namespace opto
