// Short-cut freeness (§1.1): equal-length common stretches.
#include <gtest/gtest.h>

#include <memory>

#include "opto/paths/lowerbound_structures.hpp"
#include "opto/paths/shortcut_free.hpp"

namespace opto {
namespace {

std::shared_ptr<Graph> chain(NodeId n) {
  GraphBuilder builder(n);
  for (NodeId u = 0; u + 1 < n; ++u) builder.add_edge(u, u + 1);
  return std::make_shared<Graph>(std::move(builder).build());
}

TEST(ShortcutFree, DisjointPathsAreFree) {
  GraphBuilder builder(6);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(3, 4);
  builder.add_edge(4, 5);
  auto graph = std::make_shared<Graph>(std::move(builder).build());
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{3, 4, 5}));
  EXPECT_TRUE(is_shortcut_free(collection));
}

TEST(ShortcutFree, SharedSegmentIsFree) {
  const auto graph = chain(5);
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2, 3}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{1, 2, 3, 4}));
  EXPECT_TRUE(is_shortcut_free(collection));
}

TEST(ShortcutFree, DetectsShortcut) {
  // p goes 0-1-2-3 the long way, q provides the direct edge 0-3: q's
  // subpath 0->3 (length 1) shortcuts p's (length 3).
  GraphBuilder builder(5);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 3);
  builder.add_edge(0, 3);
  builder.add_edge(3, 4);
  auto graph = std::make_shared<Graph>(std::move(builder).build());
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2, 3}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 3, 4}));

  const auto violation = find_shortcut(collection);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->shortcut_path, 0u);
  EXPECT_EQ(violation->via_path, 1u);
  EXPECT_EQ(violation->from, 0u);
  EXPECT_EQ(violation->to, 3u);
  EXPECT_EQ(violation->long_length, 3u);
  EXPECT_EQ(violation->short_length, 1u);
}

TEST(ShortcutFree, ReversedDirectionDoesNotShortcut) {
  // q visits the common nodes in the opposite order; directed subpaths
  // cannot shortcut each other.
  GraphBuilder builder(5);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 3);
  builder.add_edge(3, 0);
  auto graph = std::make_shared<Graph>(std::move(builder).build());
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2, 3}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{3, 0}));
  EXPECT_TRUE(is_shortcut_free(collection));
}

TEST(ShortcutFree, MeetSeparateMeetEqualLengthsStillFree) {
  // Two equal-length parallel detours: meet-separate-meet holds but no
  // shortcut exists (the paper's condition is only sufficient).
  GraphBuilder builder(6);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);  // branch a
  builder.add_edge(1, 3);  // branch b
  builder.add_edge(2, 4);
  builder.add_edge(3, 4);
  builder.add_edge(4, 5);
  auto graph = std::make_shared<Graph>(std::move(builder).build());
  PathCollection collection(graph);
  collection.add(
      Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2, 4, 5}));
  collection.add(
      Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 3, 4, 5}));
  EXPECT_TRUE(is_shortcut_free(collection));
  EXPECT_TRUE(meet_separate_meet(*graph, collection.path(0),
                                 collection.path(1)));
}

TEST(ShortcutFree, MeetOnceIsNotMeetSeparateMeet) {
  const auto graph = chain(5);
  const auto p = Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2, 3});
  const auto q = Path::from_nodes(*graph, std::vector<NodeId>{1, 2, 3, 4});
  EXPECT_FALSE(meet_separate_meet(*graph, p, q));
}

TEST(ShortcutFree, StaircaseIsShortcutFree) {
  EXPECT_TRUE(is_shortcut_free(make_staircase_collection(2, 5, 12, 6)));
}

TEST(ShortcutFree, BundleIsShortcutFree) {
  EXPECT_TRUE(is_shortcut_free(make_bundle_collection(2, 6, 8)));
}

TEST(ShortcutFree, TriangleIsShortcutFree) {
  EXPECT_TRUE(is_shortcut_free(make_triangle_collection(2, 9, 4)));
  EXPECT_TRUE(is_shortcut_free(make_triangle_collection(1, 6, 2)));
}

}  // namespace
}  // namespace opto
