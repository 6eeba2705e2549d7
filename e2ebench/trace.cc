#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace e2e::trace {

namespace {

using Clock = std::chrono::steady_clock;

struct Event {
  const char* name;
  std::uint64_t id;
  std::int64_t startNs;
  std::int64_t durNs;
};

// A load run records one span per query; past this many a thread keeps
// only the aggregates, so memory and the trace file stay bounded.
constexpr std::size_t kMaxEventsPerThread = 10000;

struct ThreadBuf {
  std::uint32_t tid = 0;
  std::vector<std::int64_t> childNs;  // open spans: time covered by children
  std::mutex mu;                      // guards events/agg/dropped
  std::vector<Event> events;
  std::unordered_map<const char*, Aggregate> agg;
  std::uint64_t dropped = 0;
};

std::atomic<bool> gEnabled{false};
std::atomic<std::uint64_t> gNextId{1};
const Clock::time_point gEpoch = Clock::now();

std::mutex gRegistryMu;
std::vector<std::shared_ptr<ThreadBuf>> gRegistry;  // guarded by gRegistryMu

ThreadBuf& localBuf() {
  thread_local const std::shared_ptr<ThreadBuf> buf = [] {
    auto b = std::make_shared<ThreadBuf>();
    const std::lock_guard<std::mutex> lock(gRegistryMu);
    b->tid = static_cast<std::uint32_t>(gRegistry.size() + 1);
    gRegistry.push_back(b);
    return b;
  }();
  return *buf;
}

std::int64_t nsSinceEpoch(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - gEpoch)
      .count();
}

std::vector<std::shared_ptr<ThreadBuf>> registrySnapshot() {
  const std::lock_guard<std::mutex> lock(gRegistryMu);
  return gRegistry;
}

}  // namespace

void setEnabled(bool on) { gEnabled.store(on, std::memory_order_relaxed); }
bool enabled() { return gEnabled.load(std::memory_order_relaxed); }

std::uint64_t newId() {
  return gNextId.fetch_add(1, std::memory_order_relaxed);
}

Span::Span(const char* name, std::uint64_t id)
    : name_(name), id_(id), recording_(enabled()) {
  if (recording_) localBuf().childNs.push_back(0);
  start_ = Clock::now();
}

Span::~Span() {
  if (!recording_) return;
  const auto end = Clock::now();
  const std::int64_t dur =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
          .count();
  ThreadBuf& buf = localBuf();
  const std::int64_t children = buf.childNs.back();
  buf.childNs.pop_back();
  if (!buf.childNs.empty()) buf.childNs.back() += dur;
  const std::lock_guard<std::mutex> lock(buf.mu);
  Aggregate& a = buf.agg[name_];
  ++a.count;
  a.totalNs += dur;
  a.selfNs += dur - children;
  if (buf.events.size() < kMaxEventsPerThread)
    buf.events.push_back({name_, id_, nsSinceEpoch(start_), dur});
  else
    ++buf.dropped;
}

double Span::elapsedS() const {
  return std::chrono::duration<double>(Clock::now() - start_).count();
}

std::map<std::string, Aggregate> aggregates() {
  std::map<std::string, Aggregate> out;
  for (const auto& buf : registrySnapshot()) {
    const std::lock_guard<std::mutex> lock(buf->mu);
    for (const auto& [name, a] : buf->agg) {
      Aggregate& o = out[name];
      o.count += a.count;
      o.totalNs += a.totalNs;
      o.selfNs += a.selfNs;
    }
  }
  return out;
}

void printTable(std::FILE* out) {
  const std::map<std::string, Aggregate> agg = aggregates();
  std::vector<std::pair<std::string, Aggregate>> rows(agg.begin(), agg.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.totalNs > b.second.totalNs;
  });
  std::fprintf(out, "%-28s %10s %12s %12s\n", "span", "count", "total_ms",
               "self_ms");
  for (const auto& [name, a] : rows)
    std::fprintf(out, "%-28s %10llu %12.3f %12.3f\n", name.c_str(),
                 static_cast<unsigned long long>(a.count),
                 static_cast<double>(a.totalNs) / 1e6,
                 static_cast<double>(a.selfNs) / 1e6);
}

bool writeChrome(const std::string& path, int pid) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  std::uint64_t dropped = 0;
  for (const auto& buf : registrySnapshot()) {
    const std::lock_guard<std::mutex> lock(buf->mu);
    dropped += buf->dropped;
    for (const Event& e : buf->events) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"e2e\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": %d, \"tid\": %u, "
                   "\"args\": {\"id\": %llu}}",
                   first ? "" : ",\n", e.name,
                   static_cast<double>(e.startNs) / 1e3,
                   static_cast<double>(e.durNs) / 1e3, pid, buf->tid,
                   static_cast<unsigned long long>(e.id));
      first = false;
    }
  }
  std::fprintf(f, "\n], \"otherData\": {\"dropped_spans\": %llu}}\n",
               static_cast<unsigned long long>(dropped));
  return std::fclose(f) == 0;
}

}  // namespace e2e::trace
