// Shared HTTP/1.1 plumbing for the process's two server planes.
//
// AdminServer (GET-only observability socket) and DataServer (streaming
// query plane) speak the same minimal dialect of HTTP: a blocking POSIX
// socket, a request head parsed by hand, and hand-assembled response
// framing. This header is the one copy of that dialect — status reason
// phrases, percent-decoding, query-string and header parsing, short-send
// tolerant writes — and of the connection machinery both planes run on
// (HttpListener: accept thread, bounded hand-off queue, handler pool,
// request-head reader). The planes differ only in what they do with a
// parsed request, so they cannot drift apart on wire details or on
// connection handling (a 503 shed's Retry-After, a slowloris timeout and
// a clean EOF mean the same thing whichever socket saw them).
#ifndef BINCHAIN_SERVER_HTTP_COMMON_H_
#define BINCHAIN_SERVER_HTTP_COMMON_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/status.h"

namespace binchain {
namespace server {

/// A parsed request head plus (for the data plane) its body. The admin
/// plane fills method/path/params and ignores the rest; the data plane
/// additionally reads headers (names lowercased at parse time, values
/// trimmed) and the Content-Length body.
struct HttpRequest {
  std::string method;   ///< verb as sent ("GET", "POST", ...)
  std::string path;     ///< target with the query string stripped
  std::string version;  ///< "HTTP/1.0" or "HTTP/1.1"
  /// Decoded query parameters (`?last=25` => params["last"] == "25";
  /// bare keys map to "").
  std::map<std::string, std::string> params;
  /// Header fields, names lowercased ("content-length", "x-client-id").
  /// Repeated fields keep the last value — none of the headers either
  /// plane reads are list-valued.
  std::map<std::string, std::string> headers;
  std::string body;  ///< filled by the data plane's body read, else empty
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  /// When > 0, the response carries `Retry-After: <n>` — set on 429
  /// (rate-limited) and 503 (shed) so well-behaved clients back off for a
  /// bounded, server-chosen interval instead of hammering.
  int retry_after_s = 0;
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// Canonical reason phrase for every status either plane emits.
const char* ReasonPhrase(int status);

/// Minimal percent-decoding for query parameter values ('+' => space).
std::string UrlDecode(const std::string& in);

/// Parses `a=1&b=c%20d` into *params (decoded; bare keys map to "").
void ParseQueryString(const std::string& qs,
                      std::map<std::string, std::string>* params);

/// Parses a full request head (request line + header fields, excluding
/// the terminating blank line — the caller splits the byte stream).
/// Fills method/path/version/params/headers; returns false on a
/// malformed request line (the caller answers 400).
bool ParseRequestHead(const std::string& head, HttpRequest* req);

/// Writes the whole buffer, tolerating short sends. MSG_NOSIGNAL: a
/// client that hung up mid-response must surface as EPIPE, not SIGPIPE.
bool SendAll(int fd, const char* data, size_t n);

/// The connection a request callback is handed: the socket, the peer's
/// address (resolved once per connection) and the bytes already read past
/// the current request's head — a body prefix, or a pipelined request.
struct HttpConnection {
  int fd = -1;
  std::string peer = "unknown";
  std::string carry;
};

/// Listener settings. The fields mean what they mean in AdminServerOptions
/// and DataServerOptions, which fill them through ListenerOptionsFrom.
struct HttpListenerOptions {
  std::string bind_address;
  uint16_t port;
  size_t handler_threads;
  size_t max_request_bytes;
  int io_timeout_ms;
  int accept_backlog;
  size_t queue_capacity;
  /// Requests served on one connection before the listener closes it.
  size_t max_requests_per_connection;
};

template <typename PlaneOptions>
HttpListenerOptions ListenerOptionsFrom(const PlaneOptions& o,
                                        size_t max_requests_per_connection) {
  return {o.bind_address,      o.port,          o.handler_threads,
          o.max_request_bytes, o.io_timeout_ms, o.accept_backlog,
          o.queue_capacity,    max_requests_per_connection};
}

/// Called on a handler thread once per parsed request head. `keep_alive`
/// is the resolved disposition — the client's Connection header over the
/// HTTP version's default, and false on the connection's last budgeted
/// request — and the response must carry it. Returns whether the
/// connection can still carry another request (false after a failed
/// write, an unread body, or a `Connection: close` answer).
using HttpRequestCallback = std::function<bool(
    HttpConnection* conn, HttpRequest* req, bool keep_alive)>;

/// Optional instruments a plane hangs on its listener.
struct HttpListenerHooks {
  /// Runs once per counted error (shed, dropped connection, non-2xx).
  std::function<void()> on_error;
  /// Runs with +1 when a handler takes a connection, -1 when it lets go.
  std::function<void(int delta)> on_connection;
};

/// The connection machinery of both planes. One accept thread sets the
/// per-socket timeouts and hands connections to a handler pool over a
/// bounded queue. A handler reads request heads (carry buffer, 431 cap,
/// 400 on a malformed head) and calls back once per request until the
/// budget is spent, the client hangs up, or the conversation is closed.
///
/// An EOF (or idle timeout) before a request's first byte is how a client
/// ends a keep-alive conversation or a TCP probe checks the port, so it is
/// not an error; a connection cut mid-head is. Stop() wakes handlers parked
/// in recv on idle connections (shutdown(SHUT_RD) on every held socket) and
/// joins every thread; in-flight responses still finish, because their
/// sends are unaffected.
class HttpListener {
 public:
  HttpListener(HttpListenerOptions options, HttpRequestCallback on_request,
               HttpListenerHooks hooks = {});
  /// Stops and joins if still running.
  ~HttpListener();
  HttpListener(const HttpListener&) = delete;
  HttpListener& operator=(const HttpListener&) = delete;

  /// Binds, listens, and launches the accept + handler threads. On OK the
  /// socket is live and port() reports the bound port.
  Status Start();
  /// Shuts the listener down and joins every thread. Queued-but-unserved
  /// connections are closed without an answer. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port; 0 before a successful Start() and after Stop().
  uint16_t port() const { return port_; }

  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }
  uint64_t request_errors() const {
    return errors_.load(std::memory_order_relaxed);
  }
  /// Counts one answered request into requests_served().
  void CountRequest() { requests_.fetch_add(1, std::memory_order_relaxed); }
  /// Counts one error into request_errors() and runs the on_error hook.
  void CountError();
  /// Counts an error and answers `status` with `Connection: close` and no
  /// body. Returns false: the connection carries no further request.
  bool Reject(int fd, int status);

 private:
  void AcceptLoop();
  void HandlerLoop();
  /// Serves requests on one connection until it is done; the caller
  /// closes the fd.
  void ServeConnection(int fd);
  /// Reads and parses the next request head off `conn`. False when the
  /// connection is done (EOF, timeout, or an answered 431/400).
  bool ReadRequest(HttpConnection* conn, HttpRequest* req);

  const HttpListenerOptions options_;
  const HttpRequestCallback on_request_;
  const HttpListenerHooks hooks_;

  /// Atomic: Stop() swaps it to -1 (then shuts the socket down) while the
  /// accept loop is still blocked reading it for the next accept(2).
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<int> queue_;  // accepted fds awaiting a handler
  std::vector<int> held_;  // fds a handler is serving; Stop() wakes them

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> errors_{0};

  // After everything the threads use.
  std::thread accept_thread_;
  std::vector<std::thread> handler_threads_;
};

}  // namespace server
}  // namespace binchain

#endif  // BINCHAIN_SERVER_HTTP_COMMON_H_
