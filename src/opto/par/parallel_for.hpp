// Blocking data-parallel loops over an index range, built on ThreadPool.
//
//   parallel_for(0, trials, [&](std::size_t i) { results[i] = run(i); });
//
// Each index is independent; the caller owns any sharing discipline (the
// usual pattern writes to results[i] only). The loops self-schedule: one
// task per pool thread, each claiming the next unclaimed index from one
// atomic counter until the range is spent, so an expensive index delays
// only the worker that drew it and the slowest worker finishes at most
// one index after the others.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>

#include "opto/par/thread_pool.hpp"

namespace opto {

/// The indices of one self-scheduled loop, handed out one at a time to
/// whichever worker asks next; each index goes to exactly one worker.
class IndexClaims {
 public:
  IndexClaims(std::size_t begin, std::size_t end) : next_(begin), end_(end) {}

  /// Claims the next index into `index`; false once the range is spent.
  bool next(std::size_t& index) {
    index = next_.fetch_add(1, std::memory_order_relaxed);
    return index < end_;
  }

 private:
  std::atomic<std::size_t> next_;
  std::size_t end_;
};

/// Runs worker(claims) as one pool task per thread (no more tasks than
/// indices) and returns when every task has returned; each worker claims
/// indices of [begin, end) until none are left. For bodies that keep
/// state across indices (one strategy object per worker, say). Runs one
/// worker inline when the pool has a single thread, the range holds one
/// index, or the caller is itself a worker of the pool. If a worker
/// throws, the others still drain the range (the latch can never hang)
/// and the first exception is rethrown here.
void parallel_for_workers(std::size_t begin, std::size_t end,
                          const std::function<void(IndexClaims&)>& worker,
                          ThreadPool* pool = nullptr);

/// Runs body(i) for i in [begin, end) across the pool; returns when all
/// iterations finished. Inline fallback and exceptions as for
/// parallel_for_workers.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  ThreadPool* pool = nullptr);

/// parallel_for for bodies written against a [lo, hi) block: each claimed
/// index is handed over as the block [i, i + 1).
void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    ThreadPool* pool = nullptr);

}  // namespace opto
