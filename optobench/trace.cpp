#include "trace.hpp"

#include <time.h>

#include <atomic>
#include <chrono>

namespace optobench {

namespace {

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t number = next.fetch_add(1);
  return number;
}

template <class Snapshot>
const Snapshot* find(const std::vector<Snapshot>& snapshots,
                     std::string_view name) {
  for (const Snapshot& snapshot : snapshots)
    if (snapshot.name == name) return &snapshot;
  return nullptr;
}

template <class Snapshot, class Field>
std::uint64_t delta(const std::vector<Snapshot>& before,
                    const std::vector<Snapshot>& after, std::string_view name,
                    Field field) {
  const Snapshot* a = find(after, name);
  if (a == nullptr) return 0;
  const Snapshot* b = find(before, name);
  return a->*field - (b == nullptr ? 0 : b->*field);
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t process_cpu_ns() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

SpanLog::SpanLog() { spans_.reserve(std::size_t{1} << 16); }

void SpanLog::open_call(const char* name, std::uint64_t call,
                        std::uint64_t start_ns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  call_pos_ = spans_.size();
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back({name, start_ns, start_ns, id, 0, call, call,
                    thread_number()});
}

void SpanLog::close_call(std::uint64_t end_ns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[call_pos_].end_ns = end_ns;
}

void SpanLog::child(const char* name, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint64_t item) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Span& call = spans_[call_pos_];
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back({name, start_ns, end_ns, id, call.id, call.call, item,
                    thread_number()});
}

std::uint64_t SpanLog::child_ns(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (std::size_t i = call_pos_ + 1; i < spans_.size(); ++i)
    if (spans_[i].name == name) total += spans_[i].end_ns - spans_[i].start_ns;
  return total;
}

std::uint64_t SpanLog::child_count(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t count = 0;
  for (std::size_t i = call_pos_ + 1; i < spans_.size(); ++i)
    if (spans_[i].name == name) ++count;
  return count;
}

bool SpanLog::children_contained() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Span& call = spans_[call_pos_];
  for (std::size_t i = call_pos_ + 1; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.start_ns < call.start_ns || span.end_ns > call.end_ns ||
        span.start_ns > span.end_ns)
      return false;
  }
  return true;
}

void SpanLog::write_json(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  out << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"" << s.name
        << "\", \"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"call\": " << s.call << ", \"item\": " << s.item
        << ", \"thread\": " << s.thread << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}";
  }
  out << "\n]";
}

ObsSnapshot ObsSnapshot::take() {
  return {opto::obs::phases(), opto::obs::counters()};
}

std::uint64_t phase_wall_delta(const ObsSnapshot& before,
                               const ObsSnapshot& after,
                               std::string_view name) {
  return delta(before.phases, after.phases, name,
               &opto::obs::PhaseSnapshot::wall_ns);
}

std::uint64_t phase_cpu_delta(const ObsSnapshot& before,
                              const ObsSnapshot& after,
                              std::string_view name) {
  return delta(before.phases, after.phases, name,
               &opto::obs::PhaseSnapshot::cpu_ns);
}

std::uint64_t counter_delta(const ObsSnapshot& before,
                            const ObsSnapshot& after, std::string_view name) {
  return delta(before.counters, after.counters, name,
               &opto::obs::CounterSnapshot::value);
}

}  // namespace optobench
