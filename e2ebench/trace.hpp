// In-memory span recorder for the end-to-end benchmark.
//
// Spans are recorded from the benchmark's own code, around calls into the
// library's public functions; nothing inside src/ is instrumented. Each
// thread appends to its own buffer under that buffer's own, uncontended
// lock; the spans of one build or one query share an id. At exit the buffers are merged into
// a Chrome trace-event JSON file (chrome://tracing, Perfetto) and a flat
// table of total and self time per span name, where self time is a span's
// duration minus the part its child spans cover.
//
// When tracing is disabled a Span only reads the clock, so the same code
// path serves the untraced end-to-end run.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

namespace e2e::trace {

void setEnabled(bool on);
bool enabled();

/// Fresh id for the spans of one build or one query.
std::uint64_t newId();

struct Aggregate {
  std::uint64_t count = 0;
  std::int64_t totalNs = 0;
  std::int64_t selfNs = 0;
};

class Span {
 public:
  /// `name` must outlive the process (a string literal).
  explicit Span(const char* name, std::uint64_t id = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Seconds since construction (valid whether or not tracing is on).
  double elapsedS() const;

 private:
  const char* name_;
  std::uint64_t id_;
  bool recording_;
  std::chrono::steady_clock::time_point start_;
};

/// Runs fn inside a span and returns its wall seconds.
template <class Fn>
double timed(const char* name, std::uint64_t id, Fn&& fn) {
  Span s(name, id);
  fn();
  return s.elapsedS();
}

/// Per-name totals over every thread's spans so far.
std::map<std::string, Aggregate> aggregates();

/// Flat total/self table, sorted by total time.
void printTable(std::FILE* out);

/// Writes every stored span as Chrome trace-event JSON. Returns false if
/// the file could not be written.
bool writeChrome(const std::string& path, int pid);

}  // namespace e2e::trace
