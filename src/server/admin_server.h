// Admin-plane HTTP server: the process's observability socket.
//
// Every payload already exists as a string renderer (RenderPrometheus,
// flight-recorder JSON, Chrome traces); AdminServer is only the socket
// that speaks enough HTTP/1.1 for curl, Prometheus, and kubelet-style
// probes, and deliberately nothing more:
//
//  * GET only, one request per connection (`Connection: close`), no TLS,
//    no chunked bodies. Scrapers and probes retry; none of them need
//    connection reuse against a process-local port.
//  * Connections run on HttpListener (http_common.h), the accept thread,
//    bounded hand-off queue, handler pool and defensive limits (431 cap,
//    slowloris timeouts, 503 shed) the data plane runs on too. Handler
//    concurrency equals pool size, which is plenty for scrape traffic and
//    keeps slow clients from ever touching the query service's threads.
//
// AdminServer itself is the route table: exact-match on the path (query
// params are parsed off and handed to the handler). Handlers run on pool
// threads concurrently with each other and with everything else in the
// process, so they must only touch thread-safe state — the registry, the
// span rings and the service accessors they serve all are.
#ifndef BINCHAIN_SERVER_ADMIN_SERVER_H_
#define BINCHAIN_SERVER_ADMIN_SERVER_H_

#include <cstdint>
#include <map>
#include <string>

#include "server/http_common.h"
#include "util/status.h"

namespace binchain {
namespace server {

struct AdminServerOptions {
  /// Address to bind. The default stays loopback-only: the admin plane
  /// exposes internals and has no auth, so exposing it wider is an
  /// explicit operator decision.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Threads serving parsed requests. Scrape + probe traffic is light;
  /// two threads mean a slow scrape never blocks a readiness probe.
  size_t handler_threads = 2;
  /// Hard cap on the request head (request line + headers). Anything
  /// larger is answered 431 and the connection dropped.
  size_t max_request_bytes = 8192;
  /// Per-connection socket send/receive timeout. A client that neither
  /// finishes its request nor drains the response within this window is
  /// closed (slowloris guard).
  int io_timeout_ms = 5000;
  /// listen(2) backlog.
  int accept_backlog = 16;
  /// Accepted connections waiting for a handler. The accept thread
  /// answers 503 beyond this instead of queueing without bound.
  size_t queue_capacity = 64;
};

// HttpRequest / HttpResponse / HttpHandler live in http_common.h — one
// wire vocabulary shared with the data plane (DataServer).

class AdminServer {
 public:
  explicit AdminServer(AdminServerOptions options = {});
  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Registers `handler` for exact-match `path` (no patterns; query
  /// strings are stripped before matching). Call before Start().
  void Handle(const std::string& path, HttpHandler handler);

  /// Binds, listens, and launches the accept + handler threads. On OK the
  /// socket is live and port() reports the bound port.
  Status Start() { return listener_.Start(); }

  /// Shuts the listener down and joins every thread. In-flight responses
  /// finish; queued-but-unserved connections are closed. Idempotent.
  void Stop() { listener_.Stop(); }

  bool running() const { return listener_.running(); }
  /// The bound port (resolves option port 0 to the kernel's pick); 0
  /// before a successful Start().
  uint16_t port() const { return listener_.port(); }

  /// Requests answered, by outcome. `errors` counts every non-2xx plus
  /// dropped connections (timeout or cut mid-head, oversized, parse
  /// failure, shed); a connection closed before its first byte is not one.
  uint64_t requests_served() const { return listener_.requests_served(); }
  uint64_t request_errors() const { return listener_.request_errors(); }

 private:
  /// Routes and answers one request; always ends the connection.
  bool Serve(int fd, const HttpRequest& req);
  /// Best-effort write of a full response; counts into the listener.
  void WriteResponse(int fd, const HttpResponse& resp);

  std::map<std::string, HttpHandler> handlers_;  // frozen at Start()
  /// Last member: destroyed (stopped, handlers joined) before the route
  /// table its handler threads read.
  HttpListener listener_;
};

}  // namespace server
}  // namespace binchain

#endif  // BINCHAIN_SERVER_ADMIN_SERVER_H_
