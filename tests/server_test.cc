// Admin-plane HTTP server: request parsing on the raw socket (404/405/400,
// ephemeral port bind, query-string decoding); the listener both planes
// share, driven through each plane (431 cap, slowloris timeout, clean EOF
// vs a cut head, descriptor exhaustion in accept, Stop() with an idle
// connection, accept-queue shed); then the registered endpoints over a
// real QueryService — /metrics under concurrent scrape + query load (the TSan
// target), /readyz flipping 503 -> 200 across FinishRecovery, and
// /debug/trace rendering well-formed Chrome trace-event JSON carrying
// both query and publish spans.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <stdlib.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/answer_cache.h"
#include "datalog/parser.h"
#include "durability/recovery.h"
#include "live/snapshot_manager.h"
#include "obs/metrics.h"
#include "server/admin_endpoints.h"
#include "server/admin_server.h"
#include "server/data_server.h"
#include "service/query_service.h"
#include "storage/database.h"
#include "workloads/workloads.h"

namespace binchain {
namespace {

namespace fs = std::filesystem;
using server::AdminServer;
using server::AdminServerOptions;
using server::DataServer;
using server::DataServerOptions;
using server::HttpRequest;
using server::HttpResponse;

/// Self-cleaning scratch directory for the recovery-gated scenario.
class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "binchain_srv_XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* p = mkdtemp(buf.data());
    EXPECT_NE(p, nullptr);
    if (p != nullptr) path_ = p;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path_.empty()) fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// One parsed HTTP exchange as the raw-socket client below sees it.
struct FetchResult {
  bool ok = false;       // connected, sent, and got a parseable status line
  int status = 0;
  std::string head;      // status line + headers
  std::string body;
};

/// Bounds every blocking read a test client makes, so a server that stops
/// answering fails the test instead of hanging it.
void SetRecvTimeout(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

bool Connect(int fd, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  return connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
}

int ConnectTo(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  SetRecvTimeout(fd, 10000);
  if (!Connect(fd, port)) {
    close(fd);
    return -1;
  }
  return fd;
}

/// Reads one `Connection: close` response: everything until the server
/// closes the connection (or the read times out).
FetchResult ReadToClose(int fd) {
  FetchResult r;
  std::string resp;
  char buf[4096];
  for (;;) {
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<size_t>(n));
  }
  size_t split = resp.find("\r\n\r\n");
  if (split == std::string::npos) return r;
  r.head = resp.substr(0, split);
  r.body = resp.substr(split + 4);
  // "HTTP/1.1 NNN Reason"
  if (r.head.rfind("HTTP/1.1 ", 0) != 0 || r.head.size() < 12) return r;
  r.status = std::atoi(r.head.c_str() + 9);
  r.ok = r.status != 0;
  return r;
}

/// Sends `raw` verbatim and reads until the server closes the connection.
FetchResult Exchange(uint16_t port, const std::string& raw) {
  int fd = ConnectTo(port);
  if (fd < 0) return {};
  FetchResult r;
  if (send(fd, raw.data(), raw.size(), MSG_NOSIGNAL) ==
      static_cast<ssize_t>(raw.size())) {
    r = ReadToClose(fd);
  }
  close(fd);
  return r;
}

FetchResult Get(uint16_t port, const std::string& target) {
  return Exchange(port, "GET " + target +
                            " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
}

/// Minimal JSON well-formedness scan: balanced {}/[] outside strings,
/// string escapes honored, nothing but whitespace after the close. Not a
/// full parser — but any brace/quote slip in a renderer fails it, which
/// is exactly the regression class the trace endpoints can have.
bool JsonBalanced(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  size_t i = 0;
  for (; i < s.size(); ++i) {
    char c = s[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      stack.push_back(c);
    } else if (c == '}' || c == ']') {
      if (stack.empty()) return false;
      char open = stack.back();
      stack.pop_back();
      if ((c == '}') != (open == '{')) return false;
      if (stack.empty()) break;  // top-level value closed
    }
  }
  if (in_string || !stack.empty() || i >= s.size()) return false;
  for (++i; i < s.size(); ++i) {
    if (s[i] != ' ' && s[i] != '\n' && s[i] != '\r' && s[i] != '\t') {
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------- raw server tests

TEST(AdminServerTest, ServesHandlersAndResolvesEphemeralPort) {
  AdminServer srv;  // default options: port 0
  srv.Handle("/ping", [](const HttpRequest&) {
    HttpResponse resp;
    resp.body = "pong\n";
    return resp;
  });
  ASSERT_TRUE(srv.Start().ok());
  ASSERT_NE(srv.port(), 0);
  FetchResult r = Get(srv.port(), "/ping");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "pong\n");
  EXPECT_NE(r.head.find("Content-Length: 5"), std::string::npos) << r.head;
  EXPECT_NE(r.head.find("Connection: close"), std::string::npos);
  EXPECT_GE(srv.requests_served(), 1u);
  srv.Stop();
  srv.Stop();  // idempotent
  EXPECT_FALSE(srv.running());
}

TEST(AdminServerTest, UnknownPathIs404AndCountedAsError) {
  AdminServer srv;
  ASSERT_TRUE(srv.Start().ok());
  FetchResult r = Get(srv.port(), "/no/such/route");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 404);
  EXPECT_NE(r.body.find("/no/such/route"), std::string::npos);
  EXPECT_GE(srv.request_errors(), 1u);
}

TEST(AdminServerTest, NonGetIs405AndGarbageIs400) {
  AdminServer srv;
  srv.Handle("/", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(srv.Start().ok());
  FetchResult post = Exchange(
      srv.port(), "POST / HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
  ASSERT_TRUE(post.ok);
  EXPECT_EQ(post.status, 405);
  FetchResult garbage = Exchange(srv.port(), "NONSENSE\r\n\r\n");
  ASSERT_TRUE(garbage.ok);
  EXPECT_EQ(garbage.status, 400);
  EXPECT_GE(srv.request_errors(), 2u);
}

TEST(AdminServerTest, QueryParamsAreDecodedAndStripped) {
  AdminServer srv;
  srv.Handle("/echo", [](const HttpRequest& req) {
    HttpResponse resp;
    for (const auto& kv : req.params) {
      resp.body += kv.first + "=" + kv.second + ";";
    }
    return resp;
  });
  ASSERT_TRUE(srv.Start().ok());
  FetchResult r = Get(srv.port(), "/echo?a=1&b=x%20y+z&flag");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "a=1;b=x y z;flag=;");
}

// ------------------------------------------------- the shared listener
//
// Both planes run on one HttpListener; every test here takes the plane as
// an input, so a connection-handling fix cannot land on one plane only.

enum class Plane { kAdmin, kData };

/// Listener settings a test overrides; 0 keeps the plane's default.
struct Knobs {
  size_t handler_threads = 0;
  size_t queue_capacity = 0;
  size_t max_request_bytes = 0;
  int io_timeout_ms = 0;
};

template <typename Options>
Options WithKnobs(Options o, const Knobs& k) {
  if (k.handler_threads != 0) o.handler_threads = k.handler_threads;
  if (k.queue_capacity != 0) o.queue_capacity = k.queue_capacity;
  if (k.max_request_bytes != 0) o.max_request_bytes = k.max_request_bytes;
  if (k.io_timeout_ms != 0) o.io_timeout_ms = k.io_timeout_ms;
  return o;
}

/// A started server of either plane (the data plane over a small sg
/// service), with a request it answers 200.
class PlaneServer {
 public:
  PlaneServer(Plane plane, const Knobs& knobs) {
    if (plane == Plane::kAdmin) {
      admin_ = std::make_unique<AdminServer>(
          WithKnobs(AdminServerOptions{}, knobs));
      admin_->Handle("/", [](const HttpRequest&) { return HttpResponse{}; });
      EXPECT_TRUE(admin_->Start().ok());
      return;
    }
    std::string source = workloads::Fig7b(db_, 8);
    Program program =
        ParseProgram(workloads::SgProgramText(), db_.symbols()).take();
    QueryServiceOptions sopts;
    sopts.num_threads = 2;
    service_ = std::make_unique<QueryService>(&db_, program, sopts);
    EXPECT_TRUE(service_->status().ok()) << service_->status().message();
    data_ = std::make_unique<DataServer>(
        service_.get(), WithKnobs(DataServerOptions{}, knobs));
    EXPECT_TRUE(data_->Start().ok());
    query_body_ = "{\"pred\": \"sg\", \"source\": \"" + source +
                  "\", \"stream\": false}";
  }

  uint16_t port() const { return admin_ ? admin_->port() : data_->port(); }
  uint64_t request_errors() const {
    return admin_ ? admin_->request_errors() : data_->request_errors();
  }
  void Stop() { admin_ ? admin_->Stop() : data_->Stop(); }

  /// A request the plane answers 200; `close` asks to end the connection.
  std::string OkRequest(bool close = true) const {
    if (admin_) return "GET / HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    return "POST /v1/query HTTP/1.1\r\nHost: 127.0.0.1\r\n" +
           std::string(close ? "Connection: close\r\n" : "") +
           "Content-Length: " + std::to_string(query_body_.size()) +
           "\r\n\r\n" + query_body_;
  }

 private:
  Database db_;
  std::unique_ptr<QueryService> service_;
  std::string query_body_;
  // Servers after the service: destroyed (stopped) first.
  std::unique_ptr<AdminServer> admin_;
  std::unique_ptr<DataServer> data_;
};

class ListenerTest : public ::testing::TestWithParam<Plane> {};

TEST_P(ListenerTest, OversizedHeadIs431) {
  Knobs knobs;
  knobs.max_request_bytes = 256;
  PlaneServer srv(GetParam(), knobs);
  std::string huge = "GET / HTTP/1.1\r\nX-Padding: ";
  huge.append(4096, 'x');
  huge += "\r\n\r\n";
  FetchResult r = Exchange(srv.port(), huge);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 431);
  EXPECT_GE(srv.request_errors(), 1u);
}

TEST_P(ListenerTest, SlowlorisConnectionIsClosedAfterTimeout) {
  Knobs knobs;
  knobs.io_timeout_ms = 200;
  PlaneServer srv(GetParam(), knobs);
  int fd = ConnectTo(srv.port());
  ASSERT_GE(fd, 0);
  // A header-in-progress that never completes. The server must give up on
  // its own (recv timeout) rather than pinning the handler forever.
  const char partial[] = "GET / HTTP/1.1\r\nX-Stall: ";
  ASSERT_GT(send(fd, partial, sizeof(partial) - 1, MSG_NOSIGNAL), 0);
  auto t0 = std::chrono::steady_clock::now();
  char buf[64];
  ssize_t n = recv(fd, buf, sizeof(buf), 0);  // blocks until server closes
  EXPECT_EQ(n, 0) << "closed by the server, not by the client's own timeout";
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  close(fd);
  EXPECT_GE(srv.request_errors(), 1u);
  // The pool is still healthy after dropping the stalled client.
  FetchResult r = Exchange(srv.port(), srv.OkRequest());
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
}

TEST_P(ListenerTest, CleanEofIsNotAnErrorButACutHeadIs) {
  // One handler serves connections in accept order, so once the request
  // after a connection is answered, that connection has been handled.
  Knobs knobs;
  knobs.handler_threads = 1;
  PlaneServer srv(GetParam(), knobs);

  // A bare connect + close: a TCP liveness probe, or a client ending a
  // keep-alive conversation. Not an error.
  int fd = ConnectTo(srv.port());
  ASSERT_GE(fd, 0);
  close(fd);
  FetchResult r = Exchange(srv.port(), srv.OkRequest());
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(srv.request_errors(), 0u);

  // A head cut short by the client is one.
  fd = ConnectTo(srv.port());
  ASSERT_GE(fd, 0);
  const char cut[] = "GET / HT";
  ASSERT_GT(send(fd, cut, sizeof(cut) - 1, MSG_NOSIGNAL), 0);
  close(fd);
  r = Exchange(srv.port(), srv.OkRequest());
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(srv.request_errors(), 1u);
}

/// Lowers this process's descriptor limit to the descriptors already open
/// (so the next accept(2) fails with EMFILE) and restores it on scope exit.
class DescriptorsExhausted {
 public:
  DescriptorsExhausted() {
    EXPECT_EQ(getrlimit(RLIMIT_NOFILE, &saved_), 0);
    int lowest_free = open("/dev/null", O_RDONLY);
    EXPECT_GE(lowest_free, 0);
    close(lowest_free);
    rlimit tight = saved_;
    tight.rlim_cur = static_cast<rlim_t>(lowest_free);
    active_ = setrlimit(RLIMIT_NOFILE, &tight) == 0;
    EXPECT_TRUE(active_);
  }
  ~DescriptorsExhausted() {
    if (active_) {
      EXPECT_EQ(setrlimit(RLIMIT_NOFILE, &saved_), 0);
    }
  }

 private:
  rlimit saved_{};
  bool active_ = false;
};

TEST_P(ListenerTest, AcceptLoopSurvivesDescriptorExhaustion) {
  PlaneServer srv(GetParam(), {});
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  SetRecvTimeout(fd, 5000);
  {
    DescriptorsExhausted exhausted;
    int extra = open("/dev/null", O_RDONLY);
    int open_errno = errno;
    EXPECT_LT(extra, 0);
    EXPECT_EQ(open_errno, EMFILE);
    if (extra >= 0) close(extra);
    // The handshake completes in the kernel's backlog; the server's
    // accept(2) meets EMFILE (repeatedly) until the limit is restored.
    ASSERT_TRUE(Connect(fd, srv.port()));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  // The connection that waited out the exhaustion is served...
  std::string raw = srv.OkRequest();
  ASSERT_EQ(send(fd, raw.data(), raw.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(raw.size()));
  FetchResult waited = ReadToClose(fd);
  close(fd);
  ASSERT_TRUE(waited.ok) << "accept loop died on EMFILE";
  EXPECT_EQ(waited.status, 200);
  // ...and so is the next one.
  FetchResult next = Exchange(srv.port(), srv.OkRequest());
  ASSERT_TRUE(next.ok);
  EXPECT_EQ(next.status, 200);
}

TEST_P(ListenerTest, StopReturnsPromptlyWithAnIdleConnection) {
  // Default io_timeout_ms (seconds): Stop() must not wait it out for a
  // handler parked in recv on an idle connection.
  PlaneServer srv(GetParam(), {});
  int fd = ConnectTo(srv.port());
  ASSERT_GE(fd, 0);
  if (GetParam() == Plane::kData) {
    // One full exchange, then the connection idles between requests.
    std::string raw = srv.OkRequest(/*close=*/false);
    ASSERT_EQ(send(fd, raw.data(), raw.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(raw.size()));
    std::string resp;
    char buf[4096];
    while (resp.find("{\"trailer\"") == std::string::npos ||
           resp.compare(resp.size() - 3, 3, "}}\n") != 0) {
      ssize_t n = recv(fd, buf, sizeof(buf), 0);
      ASSERT_GT(n, 0);
      resp.append(buf, static_cast<size_t>(n));
    }
    ASSERT_EQ(resp.rfind("HTTP/1.1 200", 0), 0u) << resp;
    ASSERT_NE(resp.find("Connection: keep-alive"), std::string::npos);
  }
  // Let a handler take the connection and park in recv.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto t0 = std::chrono::steady_clock::now();
  srv.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(1000));
  char c;
  EXPECT_EQ(recv(fd, &c, 1, 0), 0) << "server closed the idle connection";
  close(fd);
}

TEST_P(ListenerTest, FullAcceptQueueSheds503WithRetryAfter) {
  Knobs knobs;
  knobs.handler_threads = 1;
  knobs.queue_capacity = 1;
  PlaneServer srv(GetParam(), knobs);
  // The only handler stalls on a head that never completes.
  int stalled = ConnectTo(srv.port());
  ASSERT_GE(stalled, 0);
  const char partial[] = "GET / HTTP/1.1\r\nX-Stall: ";
  ASSERT_GT(send(stalled, partial, sizeof(partial) - 1, MSG_NOSIGNAL), 0);
  // Three more: at most one waits in the queue (one more if the handler
  // has not yet taken the stalled connection off it); the rest are shed
  // by the accept thread.
  int shed = 0;
  for (int i = 0; i < 3; ++i) {
    int fd = ConnectTo(srv.port());
    ASSERT_GE(fd, 0);
    SetRecvTimeout(fd, 500);
    FetchResult r = ReadToClose(fd);
    close(fd);
    if (!r.ok) continue;  // queued: no answer while the handler stalls
    EXPECT_EQ(r.status, 503);
    EXPECT_NE(r.head.find("Retry-After: 1"), std::string::npos) << r.head;
    EXPECT_NE(r.head.find("Connection: close"), std::string::npos) << r.head;
    ++shed;
  }
  EXPECT_GE(shed, 2);
  EXPECT_GE(srv.request_errors(), static_cast<uint64_t>(shed));
  close(stalled);
}

INSTANTIATE_TEST_SUITE_P(BothPlanes, ListenerTest,
                         ::testing::Values(Plane::kAdmin, Plane::kData),
                         [](const ::testing::TestParamInfo<Plane>& info) {
                           return info.param == Plane::kAdmin ? "Admin"
                                                              : "Data";
                         });

// --------------------------------------------------- endpoints over a live
// service

struct LiveFixture {
  std::unique_ptr<SnapshotManager> manager;
  std::unique_ptr<Program> program;
  std::unique_ptr<QueryService> service;
  AdminServer srv;

  explicit LiveFixture(int n = 64, size_t threads = 2) {
    auto genesis = std::make_unique<Database>();
    workloads::Fig7a(*genesis, n);
    program = std::make_unique<Program>(
        ParseProgram(workloads::SgProgramText(), genesis->symbols()).take());
    manager = std::make_unique<SnapshotManager>(std::move(genesis));
    QueryServiceOptions opts;
    opts.num_threads = threads;
    service =
        std::make_unique<QueryService>(manager.get(), *program, opts);
    EXPECT_TRUE(service->status().ok()) << service->status().message();
    server::RegisterAdminEndpoints(&srv, service.get(), manager.get());
    EXPECT_TRUE(srv.Start().ok());
  }
};

TEST(AdminEndpointsTest, MetricsScrapeIsPrometheusWithProcessFamily) {
  LiveFixture fx;
  QueryRequest req{"sg", "", "", {}};
  ASSERT_TRUE(fx.service->Eval(req).status.ok());

  FetchResult r = Get(fx.srv.port(), "/metrics");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.head.find("text/plain; version=0.0.4"), std::string::npos)
      << r.head;
  // The satellite families: process-level gauges registered at first
  // Global() use, alongside the service counters the query just bumped.
  EXPECT_NE(r.body.find("binchain_process_uptime_seconds"),
            std::string::npos);
  EXPECT_NE(r.body.find("binchain_process_start_time_seconds"),
            std::string::npos);
  EXPECT_NE(r.body.find("binchain_process_build_info"), std::string::npos);
  EXPECT_NE(r.body.find("binchain_service_queries_total"),
            std::string::npos);

  FetchResult j = Get(fx.srv.port(), "/metrics.json");
  ASSERT_TRUE(j.ok);
  EXPECT_EQ(j.status, 200);
  EXPECT_NE(j.head.find("application/json"), std::string::npos);
  EXPECT_TRUE(JsonBalanced(j.body)) << j.body.substr(0, 200);
}

// The TSan target: scrapers hammering every endpoint while the service
// evaluates and the manager publishes. Any unsynchronized read the
// handlers make of service/manager state is a data race here.
TEST(AdminEndpointsTest, ConcurrentScrapesDuringQueryAndPublishLoad) {
  LiveFixture fx(64, 2);
  std::atomic<bool> stop{false};
  std::vector<std::thread> scrapers;
  const char* targets[] = {"/metrics", "/debug/queries", "/debug/trace",
                           "/debug/epochs", "/readyz"};
  for (const char* target : targets) {
    scrapers.emplace_back([&fx, &stop, target] {
      while (!stop.load(std::memory_order_acquire)) {
        FetchResult r = Get(fx.srv.port(), target);
        EXPECT_TRUE(r.ok);
        EXPECT_EQ(r.status, 200);
      }
    });
  }
  for (int round = 0; round < 10; ++round) {
    std::vector<QueryRequest> batch;
    for (int i = 0; i < 4; ++i) batch.push_back(QueryRequest{"sg", "", "", {}});
    for (const QueryResponse& resp : fx.service->EvalBatch(batch, nullptr)) {
      EXPECT_TRUE(resp.status.ok());
    }
    fx.manager->AddFact("up", {"r" + std::to_string(round), "s"});
    EXPECT_TRUE(fx.manager->Publish().status.ok());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : scrapers) t.join();
  EXPECT_GE(fx.srv.requests_served(), scrapers.size());
}

TEST(AdminEndpointsTest, ReadyzFlips503To200AcrossFinishRecovery) {
  TempDir dir;
  auto rm = durability::RecoveryManager::Load(dir.path()).take();
  auto genesis = rm->BuildGenesis();
  workloads::Fig7a(*genesis, 16);
  Program program =
      ParseProgram(workloads::SgProgramText(), genesis->symbols()).take();
  SnapshotManager manager(std::move(genesis));
  QueryService service(&manager, rm.get(), program, {2, 64});
  ASSERT_TRUE(service.status().ok()) << service.status().message();

  AdminServer srv;
  server::RegisterAdminEndpoints(&srv, &service, &manager);
  ASSERT_TRUE(srv.Start().ok());

  // Gate closed: alive but not ready — and /debug/epochs says so too.
  FetchResult alive = Get(srv.port(), "/healthz");
  ASSERT_TRUE(alive.ok);
  EXPECT_EQ(alive.status, 200);
  FetchResult held = Get(srv.port(), "/readyz");
  ASSERT_TRUE(held.ok);
  EXPECT_EQ(held.status, 503);
  EXPECT_NE(held.body.find("recovery in progress"), std::string::npos);
  FetchResult epochs = Get(srv.port(), "/debug/epochs");
  ASSERT_TRUE(epochs.ok);
  EXPECT_NE(epochs.body.find("\"serving\": false"), std::string::npos);

  ASSERT_TRUE(service.FinishRecovery().ok());

  FetchResult ready = Get(srv.port(), "/readyz");
  ASSERT_TRUE(ready.ok);
  EXPECT_EQ(ready.status, 200);
  EXPECT_EQ(ready.body, "ready\n");
  epochs = Get(srv.port(), "/debug/epochs");
  ASSERT_TRUE(epochs.ok);
  EXPECT_NE(epochs.body.find("\"serving\": true"), std::string::npos);
  EXPECT_NE(epochs.body.find("\"wal\": {"), std::string::npos);
  EXPECT_TRUE(JsonBalanced(epochs.body)) << epochs.body;
}

TEST(AdminEndpointsTest, DebugTraceIsChromeTraceJsonWithBothSpanKinds) {
  LiveFixture fx;
  // One publish and a few queries so both rings have spans.
  fx.manager->AddFact("up", {"t1", "t2"});
  ASSERT_TRUE(fx.manager->Publish().status.ok());
  for (int i = 0; i < 3; ++i) {
    QueryRequest req{"sg", "", "", {}};
    ASSERT_TRUE(fx.service->Eval(req).status.ok());
  }

  FetchResult r = Get(fx.srv.port(), "/debug/trace");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.head.find("application/json"), std::string::npos);
  EXPECT_TRUE(JsonBalanced(r.body)) << r.body.substr(0, 400);
  EXPECT_NE(r.body.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(r.body.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(r.body.find("\"name\": \"process_name\""), std::string::npos);
  // Both span kinds made it into the export.
  EXPECT_NE(r.body.find("\"cat\": \"query\""), std::string::npos);
  EXPECT_NE(r.body.find("\"cat\": \"publish\""), std::string::npos);
  EXPECT_NE(r.body.find("\"name\": \"publish e1\""), std::string::npos);

  // ?last=1 bounds each ring independently: exactly one query slice
  // (plus its phase children) and still the one publish.
  FetchResult bounded = Get(fx.srv.port(), "/debug/trace?last=1");
  ASSERT_TRUE(bounded.ok);
  size_t query_slices = 0;
  for (size_t pos = bounded.body.find("\"name\": \"query ");
       pos != std::string::npos;
       pos = bounded.body.find("\"name\": \"query ", pos + 1)) {
    ++query_slices;
  }
  EXPECT_EQ(query_slices, 1u);
  EXPECT_NE(bounded.body.find("\"cat\": \"publish\""), std::string::npos);

  // /debug/queries is the raw flight-recorder array.
  FetchResult q = Get(fx.srv.port(), "/debug/queries");
  ASSERT_TRUE(q.ok);
  EXPECT_TRUE(JsonBalanced(q.body)) << q.body.substr(0, 200);
  EXPECT_NE(q.body.find("\"query_id\": "), std::string::npos);
}

// /debug/cache on a cache-less service must say so (and stay valid JSON)
// rather than 404 or fabricate stats.
TEST(AdminEndpointsTest, DebugCacheReportsDisabledWithoutACache) {
  LiveFixture fx;
  FetchResult r = Get(fx.srv.port(), "/debug/cache");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_TRUE(JsonBalanced(r.body)) << r.body;
  EXPECT_NE(r.body.find("\"enabled\": false"), std::string::npos);
}

// Regression guard for the answer cache vs the recovery gate: admission is
// checked before the cache, so a cache-enabled service must keep answering
// kUnavailable until FinishRecovery() — a cache hit must never leak a
// pre-recovery answer. After the gate opens, repeats hit as usual and
// /debug/cache exposes the stats.
TEST(AdminEndpointsTest, CacheEnabledServiceStaysGatedUntilRecovery) {
  TempDir dir;
  auto rm = durability::RecoveryManager::Load(dir.path()).take();
  auto genesis = rm->BuildGenesis();
  workloads::Fig7a(*genesis, 16);
  Program program =
      ParseProgram(workloads::SgProgramText(), genesis->symbols()).take();
  SnapshotManager manager(std::move(genesis));
  QueryServiceOptions opts;
  opts.num_threads = 2;
  opts.answer_cache_bytes = 1 << 20;
  QueryService service(&manager, rm.get(), program, opts);
  ASSERT_TRUE(service.status().ok()) << service.status().message();
  ASSERT_NE(service.answer_cache(), nullptr);

  AdminServer srv;
  server::RegisterAdminEndpoints(&srv, &service, &manager);
  ASSERT_TRUE(srv.Start().ok());

  QueryRequest req{"sg", "a", "", {}};
  // Gate closed: both submission paths refuse, and nothing reaches the
  // cache (no lookups, no fills a later hit could replay).
  QueryResponse gated = service.Eval(req);
  EXPECT_EQ(gated.status.code(), StatusCode::kUnavailable);
  QueryResponse gated_async = service.Submit(req).Take();
  EXPECT_EQ(gated_async.status.code(), StatusCode::kUnavailable);
  cache::CacheSnapshot snap = service.answer_cache()->Snapshot();
  EXPECT_EQ(snap.hits + snap.misses, 0u);
  EXPECT_EQ(snap.entries, 0u);

  ASSERT_TRUE(service.FinishRecovery().ok());

  QueryResponse first = service.Eval(req);
  ASSERT_TRUE(first.status.ok()) << first.status.message();
  EXPECT_FALSE(first.trace.cache_hit);
  QueryResponse second = service.Eval(req);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.trace.cache_hit);
  EXPECT_EQ(second.tuples, first.tuples);
  EXPECT_GE(service.answer_cache()->Snapshot().hits, 1u);

  FetchResult r = Get(srv.port(), "/debug/cache");
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(JsonBalanced(r.body)) << r.body;
  EXPECT_NE(r.body.find("\"enabled\": true"), std::string::npos);
  EXPECT_NE(r.body.find("\"hits\": "), std::string::npos);
}

}  // namespace
}  // namespace binchain
