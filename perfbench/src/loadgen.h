// Open- and closed-loop load generation over a fixed pool of worker
// threads, independent of what a request is (the benchmark issues HTTP
// queries; the self-test issues requests to a stub that stalls).
//
// Open loop: every request has an intended send time fixed before the
// phase starts. Workers claim requests in schedule order, sleep until the
// request is due, and send it; a request whose turn comes while every
// worker is still busy goes out late. Latency is measured from the
// intended time, so a stall is charged to every request queued behind it
// instead of silently delaying the schedule (no coordinated omission), and
// the lateness itself is reported as the generator's. The phase may be cut
// into segments at which each worker, on its own and with no barrier
// between workers, swaps its connection for a fresh one before it waits
// for its first request of the new segment.
//
// Closed loop: each worker sends its next request as soon as the previous
// one completes, for a fixed wall time; that measures capacity.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <chrono>
#include <cstddef>
#include <functional>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One issued request, times in ms from the phase start.
struct RequestTiming {
  size_t item = 0;          // index into the caller's request stream
  size_t worker = 0;        // worker (connection) that issued it
  double intended_ms = 0;   // schedule time (closed loop: = sent_ms)
  double sent_ms = 0;
  double first_ms = 0;      // first answer chunk (or response) received
  double done_ms = 0;       // last byte received
  size_t conn_seq = 0;      // requests sent before it on the same connection

  double latency_ms() const { return done_ms - intended_ms; }
  double first_chunk_ms() const { return first_ms - intended_ms; }
  double late_ms() const { return sent_ms - intended_ms; }
};

/// Issues request `item` (due at `intended`) from worker `worker` and
/// blocks until it completed, reporting when its first chunk and its last
/// byte arrived.
using IssueFn = std::function<void(size_t worker, size_t item,
                                   Clock::time_point intended,
                                   Clock::time_point* first,
                                   Clock::time_point* done)>;

/// Replaces worker `worker`'s connection with a fresh one.
using RotateFn = std::function<void(size_t worker)>;

/// Runs requests 0..due_ms.size()-1 at their intended offsets (ms from
/// `start`, non-decreasing). Result is indexed by request; its times are
/// ms from `start` too. With `segment_ms` > 0, a worker whose next request
/// falls in a later segment (due_ms / segment_ms) than its previous one
/// calls `rotate` first, before waiting for that request's time.
std::vector<RequestTiming> RunOpenLoop(const std::vector<double>& due_ms,
                                       size_t workers, const IssueFn& issue,
                                       Clock::time_point start = Clock::now(),
                                       double segment_ms = 0,
                                       const RotateFn& rotate = nullptr);

/// Runs `workers` back-to-back request loops for `seconds`, drawing items
/// 0, 1, 2, ... (mod `items`) from one shared cursor. Result is sorted by
/// send time; requests still in flight at the deadline complete and count.
std::vector<RequestTiming> RunClosedLoop(double seconds, size_t items,
                                         size_t workers, const IssueFn& issue);

/// Peak number of requests due but not yet completed (queued behind busy
/// workers or in flight) at any instant of an open-loop phase.
size_t MaxOutstanding(const std::vector<RequestTiming>& timings);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
