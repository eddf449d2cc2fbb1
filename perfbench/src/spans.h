// Spans recorded by the traced run, from the benchmark's side of each
// layer boundary: name, start, end, the span that caused it, and the id
// of the request (or publish, or set-up) they belong to. Kept in memory
// and written out once when the run ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 for a root span
  uint64_t request = 0;  // spans of one request/publish/set-up share it
  double start_ms = 0;   // from the run's time origin
  double end_ms = 0;
};

class SpanLog {
 public:
  /// Records one span and returns its id (ids start at 1). Thread-safe.
  uint64_t Add(std::string name, uint64_t parent, uint64_t request,
               double start_ms, double end_ms);

  /// Durations of every span named `name` whose request id lies in
  /// [first, last), in ms.
  std::vector<double> Durations(const std::string& name, uint64_t first = 0,
                                uint64_t last = UINT64_MAX) const;
  /// Self time of every span named `name` whose request id lies in
  /// [first, last): its duration minus the part of its interval that its
  /// child spans cover.
  std::vector<double> SelfTimes(const std::string& name, uint64_t first = 0,
                                uint64_t last = UINT64_MAX) const;

  /// Writes the spans as a Chrome trace-event JSON file (chrome://tracing,
  /// Perfetto); returns false if the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; spans_[id - 1]
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
