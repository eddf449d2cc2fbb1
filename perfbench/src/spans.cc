#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "stats.h"

namespace perfbench {

uint64_t SpanLog::Add(std::string name, uint64_t parent, uint64_t request,
                      double start_ms, double end_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = std::move(name);
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.request = request;
  s.start_ms = start_ms;
  s.end_ms = end_ms;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<double> SpanLog::Durations(const std::string& name, uint64_t first,
                                       uint64_t last) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.request >= first && s.request < last) {
      out.push_back(s.end_ms - s.start_ms);
    }
  }
  return out;
}

std::vector<double> SpanLog::SelfTimes(const std::string& name, uint64_t first,
                                       uint64_t last) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size() + 1);
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ms, s.end_ms);
  }
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name != name || s.request < first || s.request >= last) continue;
    auto& kids = children[s.id];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    double covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_ms);
      hi = std::min(hi, s.end_ms);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out.push_back((s.end_ms - s.start_ms) - covered);
  }
  return out;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\": [\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": %llu, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu, \"request\": %llu}}%s\n",
                 JsonString(s.name).c_str(),
                 static_cast<unsigned long long>(s.request),
                 s.start_ms * 1000.0, (s.end_ms - s.start_ms) * 1000.0,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
