// The paper's lower-bound constructions, built as concrete graphs + paths.
//
// Type-1 "staircase" (Fig. 5, §2.2): k paths of length D; with
// d = ⌊(L-1)/2⌋ + 1, path i starts at level (i-1)·d and paths i, i+1 share
// the single edge from level i·d to i·d+1 (path i's position d = path
// i+1's position 0). The collection is leveled; Lemma 2.8 shows worm i+1
// can block worm i with probability ≳ (L-1)/(2BΔ), chaining into the
// √(log_α n) round lower bound.
//
// Type-2 "bundle" (§2.2): C̃ identical paths of length D. Residual
// congestion decays doubly exponentially (Lemma 2.10), giving the
// loglog_β n term.
//
// Type-1 "triangle" (Fig. 6, §3.2): 3 paths of length D arranged in a
// blocking cycle: with m = ⌊L/2⌋, path j's edge at position m is path
// (j+1 mod 3)'s edge at position 0. Under the serve-first rule, three
// worms with delays within m of each other on one wavelength eliminate
// each other cyclically — the structure behind the log_α n lower bound.
// Short-cut free but not leveled (the blocking relation is cyclic).
//
// A StructureBuilder hosts any mix of structures in one shared graph so a
// single protocol run exercises all of them (the paper's collections mix
// type-1 and type-2).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "opto/paths/path_collection.hpp"

namespace opto {

class StructureBuilder {
 public:
  StructureBuilder();

  /// Fig. 5 staircase: `paths` ≥ 1 paths of length `path_length`, step
  /// derived from `worm_length` (L). Requires path_length ≥ step + 1.
  void add_staircase(std::uint32_t paths, std::uint32_t path_length,
                     std::uint32_t worm_length);

  /// Type-2 bundle: `width` identical paths of length `path_length` ≥ 1.
  void add_bundle(std::uint32_t width, std::uint32_t path_length);

  /// Fig. 6 triangle: 3 cyclically-blocking paths of length `path_length`;
  /// requires worm_length ≥ 2 and path_length ≥ ⌊worm_length/2⌋ + 2.
  void add_triangle(std::uint32_t path_length, std::uint32_t worm_length);

  std::uint32_t path_count() const;

  /// Finalizes the graph and returns the combined collection. The builder
  /// is consumed.
  PathCollection build() &&;

  /// The staircase step d = ⌊(L-1)/2⌋ + 1.
  static std::uint32_t staircase_step(std::uint32_t worm_length);
  /// The triangle offset m = ⌊L/2⌋.
  static std::uint32_t triangle_offset(std::uint32_t worm_length);

 private:
  std::unique_ptr<Graph> graph_;
  std::vector<std::vector<NodeId>> node_lists_;
};

/// Convenience single-kind collections used by tests and benches.
PathCollection make_staircase_collection(std::uint32_t structures,
                                         std::uint32_t paths_per_structure,
                                         std::uint32_t path_length,
                                         std::uint32_t worm_length);
PathCollection make_bundle_collection(std::uint32_t structures,
                                      std::uint32_t width,
                                      std::uint32_t path_length);
PathCollection make_triangle_collection(std::uint32_t structures,
                                        std::uint32_t path_length,
                                        std::uint32_t worm_length);

}  // namespace opto
