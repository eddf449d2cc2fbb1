#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace perfbench {
namespace {

constexpr size_t kMaxHeadBytes = 64 * 1024;
/// A read that waits this long fails the exchange (the server's own
/// socket timeout is the same 10 s).
constexpr int kTimeoutMs = 10000;
constexpr size_t kMaxBodyBytes = 256u << 20;

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Parses a chunk-size line (hex digits, optional ";ext"). False on junk
/// or a size past kMaxBodyBytes.
bool ParseChunkSize(const std::string& line, size_t* size) {
  size_t v = 0, i = 0;
  for (; i < line.size() && std::isxdigit(static_cast<unsigned char>(line[i])); ++i) {
    char c = line[i];
    int d = (c <= '9') ? c - '0' : (std::tolower(c) - 'a' + 10);
    v = v * 16 + static_cast<size_t>(d);
    if (v > kMaxBodyBytes) return false;
  }
  if (i == 0 || (i < line.size() && line[i] != ';')) return false;
  *size = v;
  return true;
}

}  // namespace

HttpConnection::~HttpConnection() { Close(); }

bool HttpConnection::Connect() {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    ::close(fd);
    return false;
  }
  fd_ = fd;
  carry_.clear();
  return true;
}

bool HttpConnection::Reconnect() {
  Close();
  return Connect();
}

void HttpConnection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  carry_.clear();
}

bool HttpConnection::Fill() {
  pollfd p{fd_, POLLIN, 0};
  int r;
  do {
    r = ::poll(&p, 1, kTimeoutMs);
  } while (r < 0 && errno == EINTR);
  if (r <= 0) return false;
  char buf[64 * 1024];
  ssize_t n;
  do {
    n = ::recv(fd_, buf, sizeof(buf), 0);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return false;
  last_recv_at_ = Clock::now();
  carry_.append(buf, static_cast<size_t>(n));
  return true;
}

void HttpConnection::Post(const std::string& target, const std::string& body,
                          HttpResponse* out) {
  std::string request = "POST " + target +
                        " HTTP/1.1\r\nHost: 127.0.0.1:" + std::to_string(port_) +
                        "\r\nContent-Type: application/json\r\nContent-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body;
  for (int attempt = 0; attempt < 2; ++attempt) {
    *out = HttpResponse{};
    const bool reused = fd_ >= 0;
    if (!reused && !Connect()) break;
    bool any_byte = false;
    if (Exchange(request, out, &any_byte)) return;
    Close();
    if (!reused || any_byte) break;
  }
  out->status = 0;
  out->done_at = Clock::now();
}

bool HttpConnection::Exchange(const std::string& request, HttpResponse* out,
                              bool* any_byte) {
  *any_byte = false;
  carry_.clear();
  for (size_t off = 0; off < request.size();) {
    ssize_t n = ::send(fd_, request.data() + off, request.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }

  size_t head_end;
  while ((head_end = carry_.find("\r\n\r\n")) == std::string::npos) {
    if (carry_.size() > kMaxHeadBytes || !Fill()) return false;
    *any_byte = true;
  }
  out->head_at = last_recv_at_;
  if (carry_.compare(0, 5, "HTTP/") != 0) return false;
  size_t sp = carry_.find(' ');
  if (sp == std::string::npos || sp > head_end) return false;
  out->status = std::atoi(carry_.c_str() + sp + 1);
  if (out->status < 100 || out->status > 599) return false;

  bool chunked = false, close_after = false;
  size_t content_length = 0;
  size_t line = carry_.find("\r\n") + 2;
  while (line < head_end) {
    size_t eol = carry_.find("\r\n", line);
    size_t colon = carry_.find(':', line);
    if (colon != std::string::npos && colon < eol) {
      std::string name = Lower(carry_.substr(line, colon - line));
      size_t v = colon + 1;
      while (v < eol && carry_[v] == ' ') ++v;
      std::string value = Lower(carry_.substr(v, eol - v));
      if (name == "transfer-encoding") chunked = value == "chunked";
      if (name == "connection") close_after = value == "close";
      if (name == "content-length") {
        content_length = std::strtoull(value.c_str(), nullptr, 10);
        if (content_length > kMaxBodyBytes) return false;
      }
    }
    line = eol + 2;
  }
  out->wire_bytes = head_end + 4;
  carry_.erase(0, head_end + 4);

  if (chunked) {
    for (;;) {
      size_t eol;
      while ((eol = carry_.find("\r\n")) == std::string::npos) {
        if (carry_.size() > kMaxHeadBytes || !Fill()) return false;
      }
      size_t size = 0;
      if (!ParseChunkSize(carry_.substr(0, eol), &size)) return false;
      // Terminal chunk: "0\r\n" plus the empty trailer section's "\r\n".
      const size_t need = eol + 2 + size + 2;
      while (carry_.size() < need) {
        if (!Fill()) return false;
      }
      if (carry_.compare(need - 2, 2, "\r\n") != 0) return false;
      out->wire_bytes += need;
      if (size == 0) {
        carry_.erase(0, need);
        break;
      }
      if (out->frames++ == 0) out->first_payload_at = last_recv_at_;
      out->payload.append(carry_, eol + 2, size);
      carry_.erase(0, need);
    }
  } else {
    while (carry_.size() < content_length) {
      if (out->frames == 0 && carry_.find('\n') != std::string::npos) {
        out->first_payload_at = last_recv_at_;
        out->frames = 1;
      }
      if (!Fill()) return false;
    }
    if (content_length > 0 && out->frames == 0) {
      out->first_payload_at = last_recv_at_;
      out->frames = 1;
    }
    out->payload = carry_.substr(0, content_length);
    out->wire_bytes += content_length;
    carry_.erase(0, content_length);
  }
  out->done_at = last_recv_at_;
  if (close_after) Close();
  return true;
}

}  // namespace perfbench
