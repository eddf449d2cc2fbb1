// A minimal keep-alive HTTP/1.1 client, shaped like a stock one: one
// blocking TCP connection to a loopback port, no socket options set (in
// particular no TCP_NODELAY and no TCP_QUICKACK — the delayed-ACK
// interaction with the server's write pattern is part of what the
// benchmark measures), each request written with a single send().
//
// It timestamps the three moments the benchmark reports against: the
// response head complete, the first body chunk complete (the first
// NDJSON line a consumer can act on), and the last byte.
#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct HttpResponse {
  /// HTTP status; 0 when the exchange failed at the transport (connect,
  /// write, read, timeout, malformed framing).
  int status = 0;
  /// The body with chunk framing removed.
  std::string payload;
  /// Bytes received for this response: head plus framed body.
  size_t wire_bytes = 0;
  /// Non-empty body chunks (1 for a Content-Length body).
  size_t frames = 0;
  Clock::time_point head_at;           // status line + headers received
  Clock::time_point first_payload_at;  // first body chunk complete
  Clock::time_point done_at;           // last byte of the response
};

class HttpConnection {
 public:
  explicit HttpConnection(uint16_t port) : port_(port) {}
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// POSTs `body` (application/json) to `target` and reads the whole
  /// response. Connects lazily; reconnects when the server closed the
  /// previous exchange, and retries once on a reused connection that
  /// turns out dead before any response byte arrived (what any keep-alive
  /// client does for a request the server never saw).
  void Post(const std::string& target, const std::string& body,
            HttpResponse* out);

  /// Closes the connection, if open, and opens a fresh one now rather
  /// than at the next Post. False if the connect failed (the next Post
  /// tries again).
  bool Reconnect();

 private:
  bool Connect();
  void Close();
  /// One attempt; `*any_byte` reports whether the response had started.
  bool Exchange(const std::string& request, HttpResponse* out, bool* any_byte);
  /// Waits for and appends more bytes to carry_; false on EOF/error/timeout.
  bool Fill();

  const uint16_t port_;
  int fd_ = -1;
  std::string carry_;
  Clock::time_point last_recv_at_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
