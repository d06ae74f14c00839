// Directed link → users inversion for the paths layer's per-path sharing
// computations (the conflict graph and the assignment check in
// wavelength_assignment.cpp). Internal to paths/.
//
// Members are numbered 0..members-1 by the caller and described by
// `links_of(m)`, any callable returning an iterable of EdgeId.
#pragma once

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "opto/graph/graph.hpp"

namespace opto::detail {

/// Directed links inverted to the members using them, in CSR form: link
/// e's users are users[offsets[e], offsets[e + 1]), in increasing member
/// order. Two flat arrays, however many links there are.
struct LinkUsers {
  std::vector<std::uint32_t> offsets;  ///< link_count + 1 entries
  std::vector<std::uint32_t> users;

  std::size_t link_count() const { return offsets.size() - 1; }

  std::span<const std::uint32_t> of(EdgeId link) const {
    return {users.data() + offsets[link], users.data() + offsets[link + 1]};
  }
};

/// Counting-sort inversion of members 0..members-1. Counts land two slots
/// up, so after the prefix sum offsets[e + 1] is link e's first slot; the
/// fill advances it to e's end, which leaves offsets[e] and offsets[e + 1]
/// bracketing e's users.
template <class LinksOf>
LinkUsers invert_links(std::size_t link_count, std::uint32_t members,
                       const LinksOf& links_of) {
  LinkUsers inv;
  inv.offsets.assign(link_count + 2, 0);
  for (std::uint32_t m = 0; m < members; ++m)
    for (EdgeId link : links_of(m)) ++inv.offsets[link + 2];
  std::partial_sum(inv.offsets.begin(), inv.offsets.end(),
                   inv.offsets.begin());
  inv.users.resize(inv.offsets.back());
  for (std::uint32_t m = 0; m < members; ++m)
    for (EdgeId link : links_of(m)) inv.users[inv.offsets[link + 1]++] = m;
  inv.offsets.pop_back();
  return inv;
}

/// Calls `visit(other)` once for each member other than `member` sharing a
/// directed link with it, in order of first sight along `member`'s links.
/// A sharer is stamped with `stamp` in `marks` when first seen, so callers
/// with distinct stamps never clear `marks`.
template <class LinksOf, class Visit>
void for_each_sharer(const LinkUsers& users, const LinksOf& links_of,
                     std::uint32_t member, std::uint32_t stamp,
                     std::vector<std::uint32_t>& marks, Visit&& visit) {
  for (EdgeId link : links_of(member)) {
    for (std::uint32_t other : users.of(link)) {
      if (other == member || marks[other] == stamp) continue;
      marks[other] = stamp;
      visit(other);
    }
  }
}

}  // namespace opto::detail
