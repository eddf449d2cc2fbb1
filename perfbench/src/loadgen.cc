#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

namespace perfbench {
namespace {

constexpr auto kSpin = std::chrono::microseconds(200);

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Runs `body(worker)` on `workers` threads and joins them all; the first
/// exception a worker throws is rethrown here after the join.
void RunWorkers(size_t workers, const std::function<void(size_t)>& body) {
  std::mutex mu;
  std::exception_ptr failure;
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      try {
        body(w);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!failure) failure = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (failure) std::rethrow_exception(failure);
}

}  // namespace

std::vector<RequestTiming> RunOpenLoop(const std::vector<double>& due_ms,
                                       size_t workers, const IssueFn& issue,
                                       Clock::time_point start, double segment_ms,
                                       const RotateFn& rotate) {
  std::vector<RequestTiming> out(due_ms.size());
  std::atomic<size_t> cursor{0};
  RunWorkers(workers, [&](size_t w) {
    double segment = 0;  // of this worker's connection
    size_t seq = 0;      // requests sent on it so far
    for (;;) {
      size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= due_ms.size()) return;
      if (segment_ms > 0 && std::floor(due_ms[i] / segment_ms) > segment) {
        segment = std::floor(due_ms[i] / segment_ms);
        rotate(w);
        seq = 0;
      }
      auto due = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(due_ms[i]));
      // Sleep, then spin the last stretch: a timer wake-up overshoots by
      // tens of microseconds, which would count as latency of the system.
      std::this_thread::sleep_until(due - kSpin);
      while (Clock::now() < due) {
      }
      Clock::time_point sent = Clock::now(), first, done;
      issue(w, i, due, &first, &done);
      RequestTiming& t = out[i];
      t.item = i;
      t.worker = w;
      t.intended_ms = due_ms[i];
      t.sent_ms = MsBetween(start, sent);
      t.first_ms = MsBetween(start, first);
      t.done_ms = MsBetween(start, done);
      t.conn_seq = seq++;
    }
  });
  return out;
}

std::vector<RequestTiming> RunClosedLoop(double seconds, size_t items,
                                         size_t workers, const IssueFn& issue) {
  std::vector<std::vector<RequestTiming>> per_worker(workers);
  std::atomic<size_t> cursor{0};
  const Clock::time_point start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  RunWorkers(workers, [&](size_t w) {
    while (Clock::now() < deadline) {
      size_t k = cursor.fetch_add(1, std::memory_order_relaxed);
      Clock::time_point sent = Clock::now(), first, done;
      issue(w, k % items, sent, &first, &done);
      RequestTiming t;
      t.item = k % items;
      t.worker = w;
      t.sent_ms = t.intended_ms = MsBetween(start, sent);
      t.first_ms = MsBetween(start, first);
      t.done_ms = MsBetween(start, done);
      per_worker[w].push_back(t);
    }
  });
  std::vector<RequestTiming> out;
  for (auto& v : per_worker) out.insert(out.end(), v.begin(), v.end());
  std::sort(out.begin(), out.end(),
            [](const RequestTiming& a, const RequestTiming& b) {
              return a.sent_ms < b.sent_ms;
            });
  return out;
}

size_t MaxOutstanding(const std::vector<RequestTiming>& timings) {
  // +1 when a request falls due, -1 when it completes; completions sort
  // before arrivals at the same instant.
  std::vector<std::pair<double, int>> events;
  events.reserve(timings.size() * 2);
  for (const RequestTiming& t : timings) {
    events.emplace_back(t.intended_ms, +1);
    events.emplace_back(t.done_ms, -1);
  }
  std::sort(events.begin(), events.end());
  size_t cur = 0, peak = 0;
  for (const auto& e : events) {
    if (e.second > 0) {
      peak = std::max(peak, ++cur);
    } else if (cur > 0) {
      --cur;
    }
  }
  return peak;
}

}  // namespace perfbench
