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
/// a worker throws; wait() rethrows it on the calling thread once every
/// worker has arrived (arrival is RAII in the task, so a throwing body can
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

/// RAII arrival: runs even when the worker throws.
struct ArriveGuard {
  Completion& completion;
  ~ArriveGuard() { completion.arrive(); }
};

}  // namespace

void parallel_for_workers(std::size_t begin, std::size_t end,
                          const std::function<void(IndexClaims&)>& worker,
                          ThreadPool* pool) {
  if (begin >= end) return;
  if (pool == nullptr) pool = &ThreadPool::global();
  const std::size_t count = end - begin;
  const std::size_t workers = pool->thread_count();
  IndexClaims claims(begin, end);
  // Run inline from a worker of the same pool: blocking in wait() while
  // our tasks sit behind other blocked workers' tasks can deadlock the
  // pool (nested parallel_for, e.g. run_many or run_trials called from a
  // task already running on the pool).
  if (workers <= 1 || count == 1 || pool->on_worker_thread()) {
    worker(claims);
    return;
  }
  const std::size_t tasks = std::min(count, workers);
  Completion completion(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    pool->submit([&worker, &completion, &claims] {
      ArriveGuard guard{completion};
      try {
        worker(claims);
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
  parallel_for_workers(
      begin, end,
      [&body](IndexClaims& claims) {
        for (std::size_t i; claims.next(i);) body(i);
      },
      pool);
}

void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    ThreadPool* pool) {
  parallel_for(
      begin, end, [&body](std::size_t i) { body(i, i + 1); }, pool);
}

}  // namespace opto
