// Self-test of the open-loop harness against a stub HTTP responder that
// stalls for a known time.
//
// One connection, a request due every 10 ms, and request 5 held by the
// stub for 200 ms. Every request due while the stall lasts queues behind
// it. Measured from its intended send time, each of those must carry the
// rest of the stall in its latency (no coordinated omission), although
// its own service time — send to last byte — is short. The generator's
// lateness must show the same wait. The stub answers in chunked framing
// with the head first and the body after the stall, so the client's
// first-chunk timestamp must also come after the stall.
//
// A second case cuts the schedule into segments at which each worker
// swaps its connection for a fresh one. Two workers; the request just
// before a boundary stalls across it. The other worker must cross the
// boundary, reconnect and keep every request on time while the stall is
// in flight (no barrier between segments), and each worker must reconnect
// exactly once per segment it enters.
//
// Build and run with the benchmark package:
//   cmake -S perfbench -B .bench_build && cmake --build .bench_build -j
//   .bench_build/loadgen_selftest
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "http_client.h"
#include "loadgen.h"
#include "stats.h"

namespace perfbench {
namespace {

int g_failures = 0;

#define EXPECT(cond, ...)                                   \
  do {                                                      \
    if (!(cond)) {                                          \
      ++g_failures;                                         \
      std::fprintf(stderr, "FAIL %s:%d: %s: ", __FILE__,    \
                   __LINE__, #cond);                        \
      std::fprintf(stderr, __VA_ARGS__);                    \
      std::fputc('\n', stderr);                             \
    }                                                       \
  } while (0)

bool SendAll(int fd, const std::string& s) {
  for (size_t off = 0; off < s.size();) {
    ssize_t n = ::send(fd, s.data() + off, s.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Loopback HTTP stub: answers every POST with a chunked two-line NDJSON
/// body, sending the head at once and the body after the number of ms
/// given as the request body.
class StallStub {
 public:
  StallStub() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 16) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      std::fprintf(stderr, "stub: cannot listen on loopback\n");
      std::exit(2);
    }
    port_ = ntohs(addr.sin_port);
    accept_thread_ = std::thread([this] { AcceptLoop(); });
  }
  ~StallStub() {
    stopping_.store(true);
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    accept_thread_.join();
    std::lock_guard<std::mutex> lock(mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    for (std::thread& t : conn_threads_) t.join();
    for (int fd : conn_fds_) ::close(fd);
  }
  StallStub(const StallStub&) = delete;
  StallStub& operator=(const StallStub&) = delete;

  uint16_t port() const { return port_; }
  /// Connections accepted so far.
  size_t accepted() const { return accepted_.load(); }

 private:
  void AcceptLoop() {
    while (!stopping_.load()) {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      accepted_.fetch_add(1);
      // The stub's own writes must not wait on the client's delayed ACK,
      // or every request would stall, not just the one under test.
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      std::lock_guard<std::mutex> lock(mu_);
      conn_fds_.push_back(fd);
      conn_threads_.emplace_back([this, fd] { Serve(fd); });
    }
  }

  static void Serve(int fd) {
    std::string buf;
    char tmp[4096];
    for (;;) {
      size_t head_end;
      while ((head_end = buf.find("\r\n\r\n")) == std::string::npos) {
        ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
        if (n <= 0) return;
        buf.append(tmp, static_cast<size_t>(n));
      }
      size_t cl = buf.find("Content-Length: ");
      size_t body_len =
          cl == std::string::npos ? 0 : std::strtoul(buf.c_str() + cl + 16, nullptr, 10);
      while (buf.size() < head_end + 4 + body_len) {
        ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
        if (n <= 0) return;
        buf.append(tmp, static_cast<size_t>(n));
      }
      int stall_ms = std::atoi(buf.substr(head_end + 4, body_len).c_str());
      buf.erase(0, head_end + 4 + body_len);
      if (!SendAll(fd, "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
                       "Transfer-Encoding: chunked\r\n\r\n")) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
      const std::string line1 = "{\"tuples\": [[\"a\", \"b\"]]}\n";
      const std::string line2 = "{\"trailer\": {\"status\": \"ok\"}}\n";
      char size1[16], size2[16];
      std::snprintf(size1, sizeof(size1), "%zx\r\n", line1.size());
      std::snprintf(size2, sizeof(size2), "%zx\r\n", line2.size());
      if (!SendAll(fd, std::string(size1) + line1 + "\r\n" + size2 + line2 +
                           "\r\n0\r\n\r\n")) {
        return;
      }
    }
  }

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> accepted_{0};
  std::mutex mu_;
  std::vector<int> conn_fds_;              // guarded by mu_
  std::vector<std::thread> conn_threads_;  // guarded by mu_
  std::thread accept_thread_;
};

void StallIsChargedToQueuedRequests() {
  constexpr size_t kRequests = 40;
  constexpr size_t kStalled = 5;
  constexpr double kGapMs = 10, kStallMs = 200;

  StallStub stub;
  HttpConnection conn(stub.port());
  std::vector<HttpResponse> responses(kRequests);
  std::vector<double> due(kRequests);
  for (size_t i = 0; i < kRequests; ++i) due[i] = kGapMs * static_cast<double>(i);

  auto timings = RunOpenLoop(
      due, /*workers=*/1,
      [&](size_t, size_t item, Clock::time_point, Clock::time_point* first,
          Clock::time_point* done) {
        std::string body = item == kStalled ? "200" : "0";
        conn.Post("/v1/query", body, &responses[item]);
        *first = responses[item].first_payload_at;
        *done = responses[item].done_at;
      });

  for (size_t i = 0; i < kRequests; ++i) {
    EXPECT(responses[i].status == 200, "request %zu status %d", i, responses[i].status);
    EXPECT(responses[i].frames == 2, "request %zu frames %zu", i, responses[i].frames);
    EXPECT(responses[i].payload.find("\"trailer\"") != std::string::npos,
           "request %zu payload lost its trailer", i);
  }
  const RequestTiming& stalled = timings[kStalled];
  EXPECT(stalled.latency_ms() >= kStallMs, "stalled latency %.1f", stalled.latency_ms());
  EXPECT(stalled.first_chunk_ms() >= kStallMs,
         "first chunk %.1f ms arrived before the stall ended", stalled.first_chunk_ms());

  size_t queued = 0;
  for (size_t i = kStalled + 1; i < kRequests; ++i) {
    const RequestTiming& t = timings[i];
    if (t.intended_ms >= stalled.done_ms) continue;
    ++queued;
    const double owed = stalled.done_ms - t.intended_ms;
    EXPECT(t.latency_ms() >= owed, "request %zu latency %.1f < stall remainder %.1f", i,
           t.latency_ms(), owed);
    EXPECT(t.late_ms() >= owed - 1.0, "request %zu lateness %.1f < %.1f", i, t.late_ms(),
           owed);
    // Its own send-to-done time is short: timing from the send would
    // have hidden the stall.
    EXPECT(t.done_ms - t.sent_ms < kStallMs / 2, "request %zu service %.1f", i,
           t.done_ms - t.sent_ms);
  }
  EXPECT(queued >= 15, "only %zu requests queued behind the stall", queued);

  std::vector<double> late;
  for (const RequestTiming& t : timings) late.push_back(t.late_ms());
  const double late_p99 = Quantile(late, 0.99);
  EXPECT(late_p99 >= kStallMs - 2 * kGapMs, "late p99 %.1f", late_p99);
  for (size_t i = 0; i < kStalled; ++i) {
    EXPECT(timings[i].late_ms() < kGapMs, "request %zu late %.1f before the stall", i,
           timings[i].late_ms());
  }
  EXPECT(MaxOutstanding(timings) >= queued, "max outstanding %zu < %zu",
         MaxOutstanding(timings), queued);
  std::printf("open-loop stall: %zu queued, late p99 %.1f ms, max outstanding %zu\n",
              queued, late_p99, MaxOutstanding(timings));
}

void SegmentsRotateConnectionsWithoutABarrier() {
  constexpr size_t kRequests = 40, kWorkers = 2;
  constexpr double kGapMs = 10, kSegmentMs = 100, kStallMs = 150;
  constexpr size_t kStalled = 9;  // due at 90 ms, done near 240 ms

  StallStub stub;
  std::vector<std::unique_ptr<HttpConnection>> conns;
  for (size_t w = 0; w < kWorkers; ++w) {
    conns.push_back(std::make_unique<HttpConnection>(stub.port()));
  }
  std::vector<HttpResponse> responses(kRequests);
  std::vector<double> due(kRequests);
  for (size_t i = 0; i < kRequests; ++i) due[i] = kGapMs * static_cast<double>(i);
  std::vector<size_t> rotations(kWorkers, 0);  // each touched by its worker only

  auto timings = RunOpenLoop(
      due, kWorkers,
      [&](size_t worker, size_t item, Clock::time_point, Clock::time_point* first,
          Clock::time_point* done) {
        std::string body = item == kStalled ? std::to_string(static_cast<int>(kStallMs)) : "0";
        conns[worker]->Post("/v1/query", body, &responses[item]);
        *first = responses[item].first_payload_at;
        *done = responses[item].done_at;
      },
      Clock::now(), kSegmentMs,
      [&](size_t worker) {
        EXPECT(conns[worker]->Reconnect(), "worker %zu could not reconnect", worker);
        ++rotations[worker];
      });

  for (size_t i = 0; i < kRequests; ++i) {
    EXPECT(responses[i].status == 200, "request %zu status %d", i, responses[i].status);
  }
  const RequestTiming& stalled = timings[kStalled];
  EXPECT(stalled.latency_ms() >= kStallMs, "stalled latency %.1f", stalled.latency_ms());

  // While the stall spans the boundary, the other worker carries the
  // next segment on a fresh connection, on time.
  size_t during = 0;
  for (size_t i = kStalled + 1; i < kRequests; ++i) {
    const RequestTiming& t = timings[i];
    if (t.intended_ms >= stalled.done_ms) break;
    ++during;
    EXPECT(t.worker != stalled.worker, "request %zu ran on the stalled worker", i);
    EXPECT(t.late_ms() < kGapMs / 2, "request %zu waited %.1f ms at the boundary", i,
           t.late_ms());
  }
  EXPECT(during >= 10, "only %zu requests during the stall", during);

  // One fresh connection per (worker, segment) a worker issued in, and
  // conn_seq restarting at 0 on each.
  std::map<std::pair<size_t, double>, size_t> per_conn;
  for (const RequestTiming& t : timings) {
    const auto conn = std::make_pair(t.worker, std::floor(t.intended_ms / kSegmentMs));
    const size_t expected_seq = per_conn[conn]++;
    EXPECT(t.conn_seq == expected_seq, "request %zu conn_seq %zu, expected %zu", t.item,
           t.conn_seq, expected_seq);
  }
  size_t rotated = 0;
  for (size_t r : rotations) rotated += r;
  EXPECT(stub.accepted() == per_conn.size(), "%zu connections accepted, %zu expected",
         stub.accepted(), per_conn.size());
  std::printf("open-loop segments: %zu requests on time during a cross-boundary stall, "
              "%zu rotations, %zu connections\n",
              during, rotated, stub.accepted());
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::StallIsChargedToQueuedRequests();
  perfbench::SegmentsRotateConnectionsWithoutABarrier();
  if (perfbench::g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::g_failures);
    return 1;
  }
  std::printf("loadgen_selftest: ok\n");
  return 0;
}
