#include "opto/par/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <utility>

#include "opto/util/assert.hpp"

namespace opto {
namespace {

/// Completion latch local to one parallel_for call, so nested or concurrent
/// calls on the shared pool do not interfere. Captures the first exception
/// a chunk throws; wait() rethrows it on the calling thread once every
/// chunk has arrived (arrival is RAII in the task, so a throwing body can
/// never strand the latch).
class Completion {
 public:
  explicit Completion(std::size_t expected) : remaining_(expected) {}

  void arrive() noexcept {
    std::lock_guard<std::mutex> lock(mutex_);
    OPTO_ASSERT(remaining_ > 0);
    if (--remaining_ == 0) done_.notify_all();
  }

  void fail(std::exception_ptr error) noexcept {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!error_) error_ = std::move(error);
  }

  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return remaining_ == 0; });
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::mutex mutex_;
  std::condition_variable done_;
  std::size_t remaining_;
  std::exception_ptr error_;
};

/// RAII arrival: runs even when the chunk body throws.
struct ArriveGuard {
  Completion& completion;
  ~ArriveGuard() { completion.arrive(); }
};

}  // namespace

void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    ThreadPool* pool) {
  if (begin >= end) return;
  if (pool == nullptr) pool = &ThreadPool::global();
  const std::size_t count = end - begin;
  const std::size_t workers = pool->thread_count();
  // Run inline from a worker of the same pool: blocking in wait() while
  // our chunks sit behind other blocked workers' chunks can deadlock the
  // pool (nested parallel_for, e.g. run_many or run_trials called from a
  // task already running on the pool).
  if (workers <= 1 || count == 1 || pool->on_worker_thread()) {
    body(begin, end);
    return;
  }
  // A couple of chunks per worker balances uneven iteration costs without
  // drowning the queue in tiny tasks.
  const std::size_t chunks = std::min(count, workers * 2);
  const std::size_t chunk_size = (count + chunks - 1) / chunks;
  std::size_t actual_chunks = 0;
  for (std::size_t lo = begin; lo < end; lo += chunk_size) ++actual_chunks;

  Completion completion(actual_chunks);
  for (std::size_t lo = begin; lo < end; lo += chunk_size) {
    const std::size_t hi = std::min(lo + chunk_size, end);
    pool->submit([&body, &completion, lo, hi] {
      ArriveGuard guard{completion};
      try {
        body(lo, hi);
      } catch (...) {
        // Routed to the caller of wait(), not to the pool's wait_idle():
        // the exception belongs to this parallel_for, and the task itself
        // completes normally from the pool's point of view.
        completion.fail(std::current_exception());
      }
    });
  }
  completion.wait();
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  ThreadPool* pool) {
  parallel_for_chunked(
      begin, end,
      [&body](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      },
      pool);
}

}  // namespace opto
