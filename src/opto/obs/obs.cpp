#include "opto/obs/obs.hpp"

#include <time.h>

#include <chrono>
#include <cstdlib>
#include <mutex>
#include <new>

namespace opto::obs {

namespace {

// -1 = not yet read from the environment; 0/1 = cached decision.
std::atomic<int> g_enabled{-1};

// Allocation counter. Constant-initialized so the operator new
// replacement below is safe during static initialization.
constinit std::atomic<std::uint64_t> g_allocs{0};

struct Registry {
  std::mutex mutex;
  // node-based maps: slot addresses stay stable across registrations,
  // so Counter/ScopedTimer can cache raw pointers.
  std::map<std::string, detail::CounterSlot, std::less<>> counters;
  std::map<std::string, detail::PhaseSlot, std::less<>> phases;
  std::map<std::string, std::string> annotations;
  std::map<std::string, double> metrics;
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

bool enabled() {
#if OPTO_OBS_ENABLED
  int state = g_enabled.load(std::memory_order_relaxed);
  if (state < 0) {
    const char* env = std::getenv("OPTO_OBS");
    state = (env != nullptr && env[0] == '0' && env[1] == '\0') ? 0 : 1;
    g_enabled.store(state, std::memory_order_relaxed);
  }
  return state != 0;
#else
  return false;
#endif
}

void set_enabled(bool on) {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

namespace detail {

CounterSlot* counter_slot(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto it = r.counters.find(name);
  if (it == r.counters.end())
    it = r.counters.try_emplace(std::string(name)).first;
  return &it->second;
}

PhaseSlot* phase_slot(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto it = r.phases.find(name);
  if (it == r.phases.end()) it = r.phases.try_emplace(std::string(name)).first;
  return &it->second;
}

std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t thread_cpu_now_ns() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
#else
  return 0;
#endif
}

}  // namespace detail

void annotate(std::string_view key, std::string_view value) {
  if (!enabled()) return;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.annotations[std::string(key)] = std::string(value);
}

void set_metric(std::string_view name, double value) {
  if (!enabled()) return;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.metrics[std::string(name)] = value;
}

std::vector<MetricSnapshot> metrics() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<MetricSnapshot> out;
  out.reserve(r.metrics.size());
  for (const auto& [name, value] : r.metrics) out.push_back({name, value});
  return out;
}

std::vector<CounterSnapshot> counters() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<CounterSnapshot> out;
  out.reserve(r.counters.size());
  for (const auto& [name, slot] : r.counters)
    out.push_back({name, slot.value.load(std::memory_order_relaxed)});
  return out;
}

std::vector<PhaseSnapshot> phases() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<PhaseSnapshot> out;
  out.reserve(r.phases.size());
  for (const auto& [name, slot] : r.phases)
    out.push_back({name, slot.calls.load(std::memory_order_relaxed),
                   slot.wall_ns.load(std::memory_order_relaxed),
                   slot.cpu_ns.load(std::memory_order_relaxed)});
  return out;
}

std::map<std::string, std::string> annotations() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.annotations;
}

std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (auto& [name, slot] : r.counters)
    slot.value.store(0, std::memory_order_relaxed);
  for (auto& [name, slot] : r.phases) {
    slot.calls.store(0, std::memory_order_relaxed);
    slot.wall_ns.store(0, std::memory_order_relaxed);
    slot.cpu_ns.store(0, std::memory_order_relaxed);
  }
  r.annotations.clear();
  r.metrics.clear();
  g_allocs.store(0, std::memory_order_relaxed);
}

double process_wall_seconds() {
  Registry& r = registry();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       r.start)
      .count();
}

}  // namespace opto::obs

#if OPTO_OBS_ENABLED

// Global allocation-count hook. Lives in this translation unit (which
// every obs user pulls in) so linking any opto binary installs it. Both
// families are replaced, the plain overloads and the std::align_val_t ones
// that over-aligned types (`alignas` beyond the default new alignment)
// call, so neither escapes the count. The counter is one relaxed
// increment behind the runtime flag; allocation itself follows the
// standard malloc (aligned_alloc) + new_handler contract, which keeps
// ASan/TSan interception (they hook malloc/free) working.
namespace {

void* counted_alloc(std::size_t size) {
  if (opto::obs::enabled())
    opto::obs::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  while (true) {
    if (void* p = std::malloc(size)) return p;
    if (std::new_handler handler = std::get_new_handler())
      handler();
    else
      throw std::bad_alloc();
  }
}

/// counted_alloc for over-aligned types (`alignas` beyond the default new
/// alignment): aligned_alloc wants a size that is a multiple of the
/// alignment, and the block is returned through free like any other.
void* counted_aligned_alloc(std::size_t size, std::align_val_t alignment) {
  if (opto::obs::enabled())
    opto::obs::g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto align = static_cast<std::size_t>(alignment);
  size = size == 0 ? align : (size + align - 1) / align * align;
  while (true) {
    if (void* p = std::aligned_alloc(align, size)) return p;
    if (std::new_handler handler = std::get_new_handler())
      handler();
    else
      throw std::bad_alloc();
  }
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_aligned_alloc(size, alignment);
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return counted_aligned_alloc(size, alignment);
}

void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_aligned_alloc(size, alignment);
  } catch (...) {
    return nullptr;
  }
}

void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  try {
    return counted_aligned_alloc(size, alignment);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // OPTO_OBS_ENABLED
