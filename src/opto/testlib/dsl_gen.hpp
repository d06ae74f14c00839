// Pure-(seed,index) scenario-DSL program generator and mutator.
//
// generate_program emits a *valid* .opto program: it draws every choice
// from Rng::stream(seed, index) and respects all of the validator's
// cross-section rules (path system vs topology family, sparse
// converters sized to the node count, mmpp/trace fields gated on the
// arrival process, pass-mode launch ranges). The fuzz harness asserts
// each one parses, validates, and canonical-dumps to a fixed point.
//
// mutate_program corrupts the same program at the token/char level
// (byte flips, span deletions/duplications, keyword injections,
// truncation) — most results are invalid; the harness asserts the
// parser rejects them with a diagnostic instead of crashing, hanging,
// or leaking.
//
// Text-only on purpose: this header depends on nothing from
// src/opto/dsl, so testlib (which dsl links for FuzzCase) never forms a
// library cycle.
#pragma once

#include <cstdint>
#include <string>

namespace opto::testlib {

/// Deterministically generates valid .opto program `index` of stream
/// `seed`.
std::string generate_program(std::uint64_t seed, std::uint64_t index);

/// generate_program(seed, index) with 1..4 deterministic corruptions
/// applied on top (drawn from an independent stream of the same seed).
std::string mutate_program(std::uint64_t seed, std::uint64_t index);

/// `text` with the corruptions mutate_program(seed, index) applies, so
/// the same mutator reaches any scenario form (the fuzzers also feed it
/// each program's canonical JSON).
std::string mutate_text(std::string text, std::uint64_t seed,
                        std::uint64_t index);

}  // namespace opto::testlib
