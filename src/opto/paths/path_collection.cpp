#include "opto/paths/path_collection.hpp"

#include <algorithm>
#include <bit>

#include "opto/util/assert.hpp"

namespace opto {

namespace {

// --- exact C̃ by bit-parallel counting ---------------------------------------
//
// Members are taken kBlock at a time. Each link the members use gets a
// kBlock-bit mask of the block members on it; a member's sharers inside
// the block are the popcount of the OR of its links' masks, less its own
// bit, and the set bits name them. Summed over blocks that is exactly the
// number of other members sharing a directed link with it. Masks are indexed by compact link
// slots, so their memory follows the links the members use, not the
// graph's link count. The arrays live for one call: kept per thread
// between calls, they raised the E7 benchmark's peak RSS by ~20%.

constexpr std::uint32_t kBlock = 256;
constexpr std::uint32_t kWords = kBlock / 64;
constexpr std::uint32_t kNoSlot = ~0u;

struct alignas(32) BlockMask {
  std::uint64_t word[kWords];
};

/// Congestion of each of the members 0..count-1, member m's links being
/// links_of(m).
template <class LinksOf>
std::vector<std::uint32_t> member_congestions(std::size_t link_count,
                                              std::uint32_t count,
                                              const LinksOf& links_of) {
  std::vector<std::uint32_t> slot_of(link_count, kNoSlot);
  std::uint32_t used = 0;
  for (std::uint32_t m = 0; m < count; ++m)
    for (EdgeId link : links_of(m))
      if (slot_of[link] == kNoSlot) slot_of[link] = used++;

  std::vector<BlockMask> masks(used, BlockMask{});
  std::vector<std::uint32_t> counts(count, 0);
  for (std::uint32_t first = 0; first < count; first += kBlock) {
    const std::uint32_t last = std::min(count, first + kBlock);
    for (std::uint32_t q = first; q < last; ++q) {
      const std::uint32_t bit = q - first;
      for (EdgeId link : links_of(q))
        masks[slot_of[link]].word[bit / 64] |= std::uint64_t{1} << (bit % 64);
    }
    // Members of earlier blocks met this one when their block was done.
    for (std::uint32_t p = first; p < count; ++p) {
      BlockMask seen{};
      for (EdgeId link : links_of(p))
        for (std::uint32_t w = 0; w < kWords; ++w)
          seen.word[w] |= masks[slot_of[link]].word[w];
      std::uint32_t sharers = 0;
      for (std::uint32_t w = 0; w < kWords; ++w)
        sharers += static_cast<std::uint32_t>(std::popcount(seen.word[w]));
      if (p < last) {
        // p's own bit is set iff p has a link.
        counts[p] += sharers - (links_of(p).empty() ? 0 : 1);
        continue;
      }
      // A later member: count the pair for both sides.
      counts[p] += sharers;
      for (std::uint32_t w = 0; w < kWords; ++w)
        for (std::uint64_t bits = seen.word[w]; bits != 0; bits &= bits - 1)
          ++counts[first + w * 64 +
                   static_cast<std::uint32_t>(std::countr_zero(bits))];
    }
    for (std::uint32_t q = first; q < last; ++q)
      for (EdgeId link : links_of(q)) masks[slot_of[link]] = BlockMask{};
  }
  return counts;
}

std::uint32_t max_of(const std::vector<std::uint32_t>& values) {
  std::uint32_t best = 0;
  for (std::uint32_t value : values) best = std::max(best, value);
  return best;
}

}  // namespace

const Graph& PathCollection::checked_graph() const {
  OPTO_ASSERT_MSG(graph_ != nullptr, "collection has no graph");
  return *graph_;
}

void PathCollection::commit(NodeId source, NodeId destination,
                            std::uint32_t offset) {
  const auto length = static_cast<std::uint32_t>(links_.size() - offset);
  members_.push_back({source, destination, offset, length});
  congestion_.value = kUnknown;
}

void PathCollection::add_nodes(std::span<const NodeId> nodes) {
  OPTO_ASSERT_MSG(!nodes.empty(), "path needs at least one node");
  add_walk(nodes.front(), [nodes](auto to) {
    for (NodeId next : nodes.subspan(1)) to(next);
  });
}

void PathCollection::add(PathView path) {
  const EdgeId link_count = checked_graph().link_count();
  for (EdgeId link : path.links())
    OPTO_ASSERT_MSG(link < link_count, "link outside graph");
  const auto offset = static_cast<std::uint32_t>(links_.size());
  const std::size_t end = std::size_t{offset} + path.length();
  if (end > links_.capacity()) {
    const Path copy(path);  // `path` may view this arena, which growing moves
    links_.reserve(std::max(end, 2 * links_.capacity()));
    return add(copy);
  }
  links_.resize(end);
  std::copy_n(path.links().data(), path.length(), links_.data() + offset);
  commit(path.source(), path.destination(), offset);
}

PathCollection PathCollection::reversed() const {
  PathCollection rev(graph_);
  rev.members_.reserve(members_.size());
  rev.links_.reserve(links_.size());
  for (const Member& m : members_) {
    const auto offset = static_cast<std::uint32_t>(rev.links_.size());
    for (std::uint32_t i = m.length; i-- > 0;)
      rev.links_.push_back(Graph::reverse(links_[m.offset + i]));
    rev.commit(m.destination, m.source, offset);
  }
  return rev;
}

std::uint32_t PathCollection::dilation() const {
  std::uint32_t best = 0;
  for (const Member& m : members_) best = std::max(best, m.length);
  return best;
}

std::vector<std::uint32_t> PathCollection::link_loads() const {
  std::vector<std::uint32_t> loads(graph_ ? graph_->link_count() : 0, 0);
  for (EdgeId link : links_) ++loads[link];
  return loads;
}

std::uint32_t PathCollection::edge_congestion() const {
  return max_of(link_loads());
}

std::vector<std::uint32_t> PathCollection::path_congestions() const {
  return member_congestions(
      graph_ ? graph_->link_count() : 0, size(),
      [this](std::uint32_t id) { return path(id).links(); });
}

std::uint32_t PathCollection::path_congestion() const {
  std::uint32_t value = congestion_.value;
  if (value == kUnknown)
    congestion_.value = value = max_of(path_congestions());
  return value;
}

std::uint32_t PathCollection::path_congestion_of(
    std::span<const PathId> ids) const {
  for (PathId id : ids) OPTO_ASSERT_MSG(id < size(), "path id out of range");
  return max_of(member_congestions(
      graph_ ? graph_->link_count() : 0,
      static_cast<std::uint32_t>(ids.size()),
      [this, ids](std::uint32_t m) { return path(ids[m]).links(); }));
}

CollectionStats PathCollection::stats() const {
  CollectionStats s;
  s.size = size();
  s.dilation = dilation();
  s.edge_congestion = edge_congestion();
  s.path_congestion = path_congestion();
  s.avg_length = members_.empty() ? 0.0
                                  : static_cast<double>(links_.size()) /
                                        static_cast<double>(size());
  return s;
}

PathCollection collection_from_node_lists(
    std::shared_ptr<const Graph> graph,
    std::span<const std::vector<NodeId>> node_lists) {
  PathCollection collection(std::move(graph));
  collection.reserve(node_lists.size());
  for (const auto& nodes : node_lists) collection.add_nodes(nodes);
  return collection;
}

}  // namespace opto
