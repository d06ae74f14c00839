#include "opto/paths/path_collection.hpp"

#include <algorithm>
#include <numeric>

#include "opto/rng/rng.hpp"
#include "opto/util/assert.hpp"

namespace opto {

namespace {

/// Directed links inverted to the members (paths) using them, in CSR form:
/// link e's users are users[offsets[e], offsets[e + 1]), in increasing
/// member order. Two flat arrays, however many links there are.
struct LinkUsers {
  std::vector<std::uint32_t> offsets;  ///< link_count + 1 entries
  std::vector<std::uint32_t> users;

  std::span<const std::uint32_t> of(EdgeId link) const {
    return {users.data() + offsets[link], users.data() + offsets[link + 1]};
  }
};

/// Counting-sort inversion of members 0..members-1, whose links are
/// `links_of(m)`. Counts land two slots up, so after the prefix sum
/// offsets[e + 1] is link e's first slot; the fill advances it to e's end,
/// which leaves offsets[e] and offsets[e + 1] bracketing e's users.
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

/// Members other than `member` sharing a directed link with it, each
/// counted once: a sharer is stamped with `stamp` in `marks` when first
/// seen, so callers with distinct stamps never clear `marks`.
template <class LinksOf>
std::uint32_t count_sharers(const LinkUsers& users, const LinksOf& links_of,
                            std::uint32_t member, std::uint32_t stamp,
                            std::vector<std::uint32_t>& marks) {
  std::uint32_t sharers = 0;
  for (EdgeId link : links_of(member)) {
    for (std::uint32_t other : users.of(link)) {
      if (other == member || marks[other] == stamp) continue;
      marks[other] = stamp;
      ++sharers;
    }
  }
  return sharers;
}

/// Every member's congestion (sharers among the members), stamping each
/// member's count with its own index.
template <class LinksOf>
std::vector<std::uint32_t> member_congestions(std::size_t link_count,
                                              std::uint32_t members,
                                              const LinksOf& links_of) {
  const LinkUsers users = invert_links(link_count, members, links_of);
  std::vector<std::uint32_t> result(members, 0);
  std::vector<std::uint32_t> marks(members, ~0u);
  for (std::uint32_t m = 0; m < members; ++m)
    result[m] = count_sharers(users, links_of, m, m, marks);
  return result;
}

std::uint32_t max_of(const std::vector<std::uint32_t>& values) {
  std::uint32_t best = 0;
  for (std::uint32_t value : values) best = std::max(best, value);
  return best;
}

}  // namespace

PathCollection& PathCollection::operator=(const PathCollection& other) {
  if (this == &other) return *this;
  graph_ = other.graph_;
  paths_ = other.paths_;
  invalidate_caches();
  return *this;
}

PathCollection& PathCollection::operator=(PathCollection&& other) noexcept {
  if (this == &other) return *this;
  graph_ = std::move(other.graph_);
  paths_ = std::move(other.paths_);
  invalidate_caches();
  other.invalidate_caches();
  return *this;
}

void PathCollection::invalidate_caches() {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  flat_cache_.reset();
  component_cache_.reset();
  congestion_cache_.reset();
}

void PathCollection::add(Path path) {
  OPTO_ASSERT_MSG(graph_ != nullptr, "collection has no graph");
  for (EdgeId link : path.links())
    OPTO_ASSERT_MSG(link < graph_->link_count(), "link outside graph");
  paths_.push_back(std::move(path));
  invalidate_caches();
}

const FlatPaths& PathCollection::flat_paths() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (!flat_cache_) {
    auto flat = std::make_unique<FlatPaths>();
    std::size_t total = 0;
    for (const Path& p : paths_) total += p.length();
    flat->offsets.reserve(paths_.size() + 1);
    flat->links.reserve(total);
    flat->offsets.push_back(0);
    for (const Path& p : paths_) {
      for (EdgeId link : p.links()) flat->links.push_back(link);
      flat->offsets.push_back(static_cast<std::uint32_t>(flat->links.size()));
    }
    flat_cache_ = std::move(flat);
  }
  return *flat_cache_;
}

const ComponentDecomposition& PathCollection::components() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (!component_cache_) {
    auto dec = std::make_unique<ComponentDecomposition>();
    const std::uint32_t n = size();
    // Union-find with path halving + union by size. Two paths meet iff
    // they use a common directed link, so unioning every path into the
    // *first* user of each of its links wires up exactly the "shares a
    // link" relation in O(Σ lengths · α) without materializing per-link
    // user lists.
    std::vector<PathId> parent(n);
    std::iota(parent.begin(), parent.end(), PathId{0});
    std::vector<std::uint32_t> tree_size(n, 1);
    const auto find = [&parent](PathId x) {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    const auto unite = [&](PathId a, PathId b) {
      a = find(a);
      b = find(b);
      if (a == b) return;
      if (tree_size[a] < tree_size[b]) std::swap(a, b);
      parent[b] = a;
      tree_size[a] += tree_size[b];
    };
    std::vector<PathId> first_user(graph_ ? graph_->link_count() : 0,
                                   kInvalidPath);
    for (PathId id = 0; id < n; ++id) {
      for (EdgeId link : paths_[id].links()) {
        if (first_user[link] == kInvalidPath)
          first_user[link] = id;
        else
          unite(first_user[link], id);
      }
    }
    // Canonical numbering: component c is the c-th distinct root in
    // path-id order (so a zero-length path is its own singleton).
    dec->component_of.assign(n, 0);
    std::vector<std::uint32_t> label(n, ~0u);
    for (PathId id = 0; id < n; ++id) {
      const PathId root = find(id);
      if (label[root] == ~0u) {
        label[root] = dec->count++;
        dec->sizes.push_back(0);
      }
      dec->component_of[id] = label[root];
      ++dec->sizes[label[root]];
    }
    component_cache_ = std::move(dec);
  }
  return *component_cache_;
}

std::uint32_t PathCollection::dilation() const {
  std::uint32_t best = 0;
  for (const Path& p : paths_) best = std::max(best, p.length());
  return best;
}

std::vector<std::uint32_t> PathCollection::link_loads() const {
  std::vector<std::uint32_t> loads(graph_ ? graph_->link_count() : 0, 0);
  for (const Path& p : paths_)
    for (EdgeId link : p.links()) ++loads[link];
  return loads;
}

std::uint32_t PathCollection::edge_congestion() const {
  return max_of(link_loads());
}

std::vector<std::uint32_t> PathCollection::path_congestions() const {
  return member_congestions(
      graph_ ? graph_->link_count() : 0, size(),
      [this](std::uint32_t id) { return paths_[id].links(); });
}

std::uint32_t PathCollection::path_congestion() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (!congestion_cache_) congestion_cache_ = max_of(path_congestions());
  return *congestion_cache_;
}

std::uint32_t PathCollection::path_congestion_of(
    std::span<const PathId> ids) const {
  for (PathId id : ids) OPTO_ASSERT_MSG(id < size(), "path id out of range");
  return max_of(member_congestions(
      graph_ ? graph_->link_count() : 0,
      static_cast<std::uint32_t>(ids.size()),
      [this, ids](std::uint32_t m) { return paths_[ids[m]].links(); }));
}

std::uint32_t PathCollection::path_congestion_sampled(
    std::uint32_t samples, std::uint64_t seed) const {
  if (empty()) return 0;
  if (samples >= size()) return path_congestion();

  const auto links_of = [this](std::uint32_t id) { return paths_[id].links(); };
  const LinkUsers users =
      invert_links(graph_ ? graph_->link_count() : 0, size(), links_of);
  Rng rng(seed);
  // Marks are stamped with the probe index so repeated probes of one path
  // recount from scratch.
  std::vector<std::uint32_t> stamp(size(), ~0u);
  std::uint32_t best = 0;
  for (std::uint32_t sample = 0; sample < samples; ++sample) {
    const auto id = static_cast<PathId>(rng.next_below(size()));
    best = std::max(best, count_sharers(users, links_of, id, sample, stamp));
  }
  return best;
}

CollectionStats PathCollection::stats() const {
  CollectionStats s;
  s.size = size();
  s.dilation = dilation();
  s.edge_congestion = edge_congestion();
  s.path_congestion = path_congestion();
  double total = 0.0;
  for (const Path& p : paths_) total += p.length();
  s.avg_length = paths_.empty() ? 0.0 : total / static_cast<double>(size());
  return s;
}

PathCollection collection_from_node_lists(
    std::shared_ptr<const Graph> graph,
    std::span<const std::vector<NodeId>> node_lists) {
  PathCollection collection(graph);
  collection.reserve(node_lists.size());
  for (const auto& nodes : node_lists)
    collection.add(Path::from_nodes(*graph, nodes));
  return collection;
}

}  // namespace opto
