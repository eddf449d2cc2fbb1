#include "server/http_common.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace binchain {
namespace server {

const char* ReasonPhrase(int status) {
  switch (status) {
    case 100: return "Continue";
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default:  return "Unknown";
  }
}

std::string UrlDecode(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    if (in[i] == '+') {
      out.push_back(' ');
    } else if (in[i] == '%' && i + 2 < in.size()) {
      auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        return -1;
      };
      int hi = hex(in[i + 1]), lo = hex(in[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
      } else {
        out.push_back('%');
      }
    } else {
      out.push_back(in[i]);
    }
  }
  return out;
}

void ParseQueryString(const std::string& qs,
                      std::map<std::string, std::string>* params) {
  size_t pos = 0;
  while (pos < qs.size()) {
    size_t amp = qs.find('&', pos);
    if (amp == std::string::npos) amp = qs.size();
    std::string pair = qs.substr(pos, amp - pos);
    size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      if (!pair.empty()) (*params)[UrlDecode(pair)] = "";
    } else {
      (*params)[UrlDecode(pair.substr(0, eq))] = UrlDecode(pair.substr(eq + 1));
    }
    pos = amp + 1;
  }
}

namespace {

std::string TrimSpace(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) {
    --e;
  }
  return s.substr(b, e - b);
}

}  // namespace

bool ParseRequestHead(const std::string& head, HttpRequest* req) {
  // Request line: METHOD SP target SP version.
  size_t line_end = head.find("\r\n");
  if (line_end == std::string::npos) line_end = head.find('\n');
  if (line_end == std::string::npos) line_end = head.size();
  std::string line = head.substr(0, line_end);
  size_t sp1 = line.find(' ');
  size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) return false;
  req->method = line.substr(0, sp1);
  req->version = TrimSpace(line.substr(sp2 + 1));
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (req->method.empty() || target.empty()) return false;

  size_t qmark = target.find('?');
  req->path = target.substr(0, qmark);
  if (qmark != std::string::npos) {
    ParseQueryString(target.substr(qmark + 1), &req->params);
  }

  // Header fields: `Name: value` per line, names lowercased. Tolerates
  // bare-\n line endings the same way the head read loop does.
  size_t pos = line_end;
  while (pos < head.size()) {
    if (head[pos] == '\r') ++pos;
    if (pos < head.size() && head[pos] == '\n') ++pos;
    size_t eol = head.find('\n', pos);
    if (eol == std::string::npos) eol = head.size();
    std::string field = head.substr(pos, eol - pos);
    pos = eol;
    size_t colon = field.find(':');
    if (colon == std::string::npos) continue;  // blank line or junk: skip
    std::string name = TrimSpace(field.substr(0, colon));
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    if (!name.empty()) {
      req->headers[name] = TrimSpace(field.substr(colon + 1));
    }
  }
  return true;
}

bool SendAll(int fd, const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    ssize_t w = send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(w);
  }
  return true;
}

namespace {

/// Plain fixed response for connections no request callback answers
/// (accept-queue overflow, oversized heads, parse failures, rejections).
/// Always closes the HTTP exchange; a positive retry_after_s adds the
/// back-off header (503 sheds).
void SendBareStatus(int fd, int status, int retry_after_s = 0) {
  std::string head = "HTTP/1.1 " + std::to_string(status) + " " +
                     ReasonPhrase(status) + "\r\nContent-Length: 0\r\n";
  if (retry_after_s > 0) {
    head += "Retry-After: " + std::to_string(retry_after_s) + "\r\n";
  }
  head += "Connection: close\r\n\r\n";
  SendAll(fd, head.data(), head.size());
}

/// socket/bind/listen: binds `bind_address:port` (port 0 picks an
/// ephemeral port), listens with `backlog`, and reports the resolved port
/// through *bound_port. Returns the listening fd, or a Status naming the
/// step that failed (the fd is closed on every failure path).
Result<int> OpenListenSocket(const std::string& bind_address, uint16_t port,
                             int backlog, uint16_t* bound_port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("bad bind address '" + bind_address + "'");
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Status::Internal(std::string("bind: ") + std::strerror(errno));
    close(fd);
    return s;
  }
  if (listen(fd, backlog) != 0) {
    Status s = Status::Internal(std::string("listen: ") + std::strerror(errno));
    close(fd);
    return s;
  }
  // Resolve an ephemeral bind (port 0) to the kernel's pick.
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    Status s =
        Status::Internal(std::string("getsockname: ") + std::strerror(errno));
    close(fd);
    return s;
  }
  *bound_port = ntohs(bound.sin_port);
  return fd;
}

/// How long the accept loop waits before retrying when the process (or
/// the system) is out of descriptors or socket buffers.
constexpr auto kAcceptBackoff = std::chrono::milliseconds(10);

}  // namespace

HttpListener::HttpListener(HttpListenerOptions options,
                           HttpRequestCallback on_request,
                           HttpListenerHooks hooks)
    : options_(std::move(options)),
      on_request_(std::move(on_request)),
      hooks_(std::move(hooks)) {}

HttpListener::~HttpListener() { Stop(); }

Status HttpListener::Start() {
  if (running()) return Status::FailedPrecondition("listener already running");
  Result<int> opened = OpenListenSocket(options_.bind_address, options_.port,
                                        options_.accept_backlog, &port_);
  if (!opened.ok()) return opened.status();
  listen_fd_.store(opened.value(), std::memory_order_release);

  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  size_t n = std::max<size_t>(options_.handler_threads, 1);
  handler_threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    handler_threads_.emplace_back([this] { HandlerLoop(); });
  }
  return Status::Ok();
}

void HttpListener::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Take the socket before shutting it down: the accept loop exits only
  // once the fd is gone, so the error shutdown provokes ends it.
  int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    shutdown(fd, SHUT_RDWR);
    close(fd);
  }
  {
    // A handler parked in recv on an idle connection would otherwise
    // hold Stop() for a whole io_timeout_ms. SHUT_RD ends the read side
    // only: a response still being written goes out in full.
    std::lock_guard<std::mutex> lock(mu_);
    for (int held : held_) shutdown(held, SHUT_RD);
  }
  cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& t : handler_threads_) t.join();
  handler_threads_.clear();
  std::lock_guard<std::mutex> lock(mu_);
  for (int queued : queue_) close(queued);
  queue_.clear();
  port_ = 0;
}

void HttpListener::CountError() {
  errors_.fetch_add(1, std::memory_order_relaxed);
  if (hooks_.on_error) hooks_.on_error();
}

bool HttpListener::Reject(int fd, int status) {
  CountError();
  SendBareStatus(fd, status);
  return false;
}

void HttpListener::AcceptLoop() {
  for (;;) {
    int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) return;  // Stop() took the socket away
    int fd = accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      // Only Stop() ends the loop. ECONNABORTED is one client leaving
      // early; out of descriptors (EMFILE, ENFILE) or buffers, the
      // connection waits in the backlog while a handler frees one.
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (listen_fd_.load(std::memory_order_acquire) < 0) return;
      std::this_thread::sleep_for(kAcceptBackoff);
      continue;
    }
    // Slowloris guard: every read and write on this connection gets the
    // configured timeout. A stalled client errors out of recv/send and
    // the handler drops it — it cannot pin a pool thread indefinitely.
    timeval tv{};
    tv.tv_sec = options_.io_timeout_ms / 1000;
    tv.tv_usec = (options_.io_timeout_ms % 1000) * 1000;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

    bool enqueued = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.size() < options_.queue_capacity) {
        queue_.push_back(fd);
        enqueued = true;
      }
    }
    if (enqueued) {
      cv_.notify_one();
    } else {
      // Burst past the hand-off queue: shed on the accept thread itself,
      // mirroring the query service's kOverloaded admission control. The
      // Retry-After says the overload is momentary — the queue drains in
      // well under a second once the burst passes.
      CountError();
      SendBareStatus(fd, 503, /*retry_after_s=*/1);
      close(fd);
    }
  }
}

void HttpListener::HandlerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return !queue_.empty() || !running(); });
      if (!running()) return;  // Stop() closes what is still queued
      fd = queue_.front();
      queue_.pop_front();
      held_.push_back(fd);
    }
    if (hooks_.on_connection) hooks_.on_connection(1);
    ServeConnection(fd);
    if (hooks_.on_connection) hooks_.on_connection(-1);
    {
      // Out of held_ before close: once the number is free for reuse,
      // Stop() must not shut down whatever socket gets it next.
      std::lock_guard<std::mutex> lock(mu_);
      held_.erase(std::find(held_.begin(), held_.end(), fd));
    }
    close(fd);
  }
}

void HttpListener::ServeConnection(int fd) {
  HttpConnection conn;
  conn.fd = fd;
  // Peer identity once per connection: the data plane keys admission on
  // it.
  sockaddr_in sa{};
  socklen_t sa_len = sizeof(sa);
  if (getpeername(fd, reinterpret_cast<sockaddr*>(&sa), &sa_len) == 0 &&
      sa.sin_family == AF_INET) {
    char buf[INET_ADDRSTRLEN] = {0};
    if (inet_ntop(AF_INET, &sa.sin_addr, buf, sizeof(buf)) != nullptr) {
      conn.peer = buf;
    }
  }

  const size_t budget = options_.max_requests_per_connection;
  for (size_t served = 0; served < budget; ++served) {
    if (!running()) return;
    HttpRequest req;
    if (!ReadRequest(&conn, &req)) return;
    // Keep-alive is the HTTP/1.1 default; HTTP/1.0 must opt in. The
    // budget caps reuse regardless: its last response says close.
    std::string connection;
    if (auto it = req.headers.find("connection"); it != req.headers.end()) {
      connection = it->second;
      for (char& c : connection) c = static_cast<char>(std::tolower(c));
    }
    bool keep_alive = served + 1 < budget &&
                      (req.version == "HTTP/1.1" ? connection != "close"
                                                 : connection == "keep-alive");
    if (!on_request_(&conn, &req, keep_alive) || !keep_alive) return;
  }
}

bool HttpListener::ReadRequest(HttpConnection* conn, HttpRequest* req) {
  std::string& carry = conn->carry;
  size_t head_end;
  size_t sep_len;
  char buf[4096];
  for (;;) {
    sep_len = 4;
    head_end = carry.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      head_end = carry.find("\n\n");
      sep_len = 2;
    }
    if (head_end != std::string::npos) break;
    if (carry.size() > options_.max_request_bytes) {
      return Reject(conn->fd, 431);
    }
    ssize_t r = recv(conn->fd, buf, sizeof(buf), 0);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      // EOF or timeout before the first byte ends the conversation
      // cleanly; a head cut short (or a slowloris stall) is an error.
      if (!carry.empty()) CountError();
      return false;
    }
    carry.append(buf, static_cast<size_t>(r));
  }
  bool parsed = ParseRequestHead(carry.substr(0, head_end), req);
  carry.erase(0, head_end + sep_len);
  if (!parsed) return Reject(conn->fd, 400);
  return true;
}

}  // namespace server
}  // namespace binchain
