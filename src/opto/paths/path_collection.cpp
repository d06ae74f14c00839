#include "opto/paths/path_collection.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "opto/util/assert.hpp"

namespace opto {

namespace {

// --- exact C̃: bound every member, verify only the leaders -------------------
//
// With load(e) the number of members on link e and t(e, e') the number
// whose link after e is e', member p = e_0 … e_{L−1} gets
// U(p) = Σ_i load(e_i) − Σ_{i≥1} t(e_{i−1}, e_i) − 1 (0 if L = 0) ≥ C̃(p).
// Proof: split both sums by member q. Members are simple (SimpleWalk and
// Path assert it), so q uses e_{i−1} at most once, has one link after it,
// and adds 1 to t(e_{i−1}, e_i) exactly when it runs along p from e_{i−1}
// into e_i. So q adds its links on p less its steps along p: its number
// of maximal runs shared with p, ≥ 1 if it shares a link, and exactly 1
// for p itself, which the −1 removes. Leaving a turn out of t only raises
// U, so turns into out-row position kTurnSlots or later go uncounted: on
// dense graphs the turn table keeps kTurnSlots counters per link.
//
// The maximum verifies members in descending U (stamp the member's
// links, scan the others once) and stops at the first U ≤ the best exact
// count: every member left has C̃ ≤ U ≤ best. The arrays live for one
// call: per-thread scratch raised the E7 benchmark's peak RSS ~20% (E25).

constexpr std::uint32_t kTurnSlots = 8;

/// U(m) for the members m = 0..count-1, member m's links being
/// links_of(m). `table` is scratch, left with ≥ link_count entries.
template <class LinksOf>
std::vector<std::uint32_t> bounds(const Graph& graph, std::uint32_t count,
                                  const LinksOf& links_of,
                                  std::vector<std::uint32_t>& table) {
  const EdgeId link_count = graph.link_count();
  const std::uint32_t width = std::min(graph.max_degree(), kTurnSlots);
  // Each link's position in its source's out row (width: uncounted).
  std::vector<std::uint8_t> slot(link_count, width);
  for (NodeId u = 0; u < graph.node_count(); ++u)
    for (std::uint32_t i = 0; i < graph.degree(u) && i < width; ++i)
      slot[graph.out_links(u)[i]] = static_cast<std::uint8_t>(i);
  // load(e) at [e]; t(e, e') at [link_count + e·width + slot(e')].
  table.assign(std::size_t{link_count} * (1 + width), 0);
  const auto turns = [&](EdgeId from, EdgeId to) -> std::uint32_t* {
    return slot[to] == width ? nullptr
                             : &table[link_count + std::size_t{from} * width +
                                      slot[to]];
  };
  for (std::uint32_t m = 0; m < count; ++m) {
    const auto links = links_of(m);
    for (std::size_t i = 0; i < links.size(); ++i) {
      ++table[links[i]];
      if (std::uint32_t* t = i > 0 ? turns(links[i - 1], links[i]) : nullptr)
        ++*t;
    }
  }
  std::vector<std::uint32_t> u(count, 0);
  for (std::uint32_t m = 0; m < count; ++m) {
    const auto links = links_of(m);
    std::uint32_t sum = 0;  // t(e_{i−1}, e_i) ≤ load(e_i): no term wraps
    for (std::size_t i = 0; i < links.size(); ++i) {
      sum += table[links[i]];
      if (std::uint32_t* t = i > 0 ? turns(links[i - 1], links[i]) : nullptr)
        sum -= *t;
    }
    u[m] = links.empty() ? 0 : sum - 1;
  }
  return u;
}

/// Number of members other than m sharing a directed link with m. Stamps
/// m's links with m + 1, which no entry of `stamps` holds before.
template <class LinksOf>
std::uint32_t sharers(std::uint32_t m, std::uint32_t count,
                      const LinksOf& links_of,
                      std::vector<std::uint32_t>& stamps) {
  for (EdgeId link : links_of(m)) stamps[link] = m + 1;
  std::uint32_t shared = 0;
  for (std::uint32_t q = 0; q < count; ++q)
    shared += q != m && std::ranges::any_of(links_of(q), [&](EdgeId link) {
                return stamps[link] == m + 1;
              });
  return shared;
}

/// C̃ of the members 0..count-1: the largest sharers(m).
template <class LinksOf>
std::uint32_t max_sharers(const Graph& graph, std::uint32_t count,
                          const LinksOf& links_of) {
  std::vector<std::uint32_t> table;
  std::vector<std::uint32_t> u = bounds(graph, count, links_of, table);
  table.assign(graph.link_count(), 0);  // now the stamps
  // Each pick scans U once, less than its verification scans the members.
  std::uint32_t best = 0;
  for (auto top = std::ranges::max_element(u); top != u.end() && *top > best;
       top = std::ranges::max_element(u)) {
    const auto m = static_cast<std::uint32_t>(top - u.begin());
    best = std::max(best, sharers(m, count, links_of, table));
    *top = 0;
  }
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
  const Graph& graph = checked_graph();
  OPTO_ASSERT_MSG(path.empty() || path.link(0) >= graph.link_count() ||
                      graph.source(path.link(0)) == path.source(),
                  "path does not start at its source");
  detail::SimpleWalk walk(graph, path.source());
  for (EdgeId link : path.links()) {
    OPTO_ASSERT_MSG(link < graph.link_count(), "link outside graph");
    walk.along(link);
  }
  OPTO_ASSERT_MSG(walk.at() == path.destination(),
                  "path does not end at its destination");
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
  const std::vector<std::uint32_t> loads = link_loads();
  return loads.empty() ? 0 : *std::max_element(loads.begin(), loads.end());
}

std::vector<std::uint32_t> PathCollection::path_congestions() const {
  // Member p meets the members on each of its links through per-link
  // lists users[first[e], first[e + 1]) and counts each once (seen[q] ==
  // p + 1): Σ_e load(e)² steps, where scanning the other members per
  // member, as the verification does, takes n × arena.
  std::vector<std::uint32_t> counts(size(), 0), seen(size(), 0);
  std::vector<std::uint32_t> first(graph_ ? graph_->link_count() + 1 : 1, 0);
  for (EdgeId link : links_) ++first[link];
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<PathId> users(links_.size());
  for (PathId id = size(); id-- > 0;)
    for (EdgeId link : path(id).links()) users[--first[link]] = id;
  for (PathId p = 0; p < size(); ++p) {
    seen[p] = p + 1;
    for (EdgeId link : path(p).links())
      for (std::uint32_t k = first[link]; k < first[link + 1]; ++k)
        if (std::exchange(seen[users[k]], p + 1) != p + 1) ++counts[p];
  }
  return counts;
}

std::vector<std::uint32_t> PathCollection::path_congestion_bounds() const {
  const auto links_of = [this](std::uint32_t id) { return path(id).links(); };
  std::vector<std::uint32_t> table;
  return empty() ? std::vector<std::uint32_t>{}
                 : bounds(*graph_, size(), links_of, table);
}

std::uint32_t PathCollection::path_congestion() const {
  std::uint32_t value = congestion_.value;
  if (value == kUnknown)
    congestion_.value = value =
        empty() ? 0 : max_sharers(*graph_, size(), [this](std::uint32_t id) {
          return path(id).links();
        });
  return value;
}

std::uint32_t PathCollection::path_congestion_of(
    std::span<const PathId> ids) const {
  for (PathId id : ids) OPTO_ASSERT_MSG(id < size(), "path id out of range");
  if (ids.empty()) return 0;
  return max_sharers(
      *graph_, static_cast<std::uint32_t>(ids.size()),
      [this, ids](std::uint32_t m) { return path(ids[m]).links(); });
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
