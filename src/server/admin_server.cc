#include "server/admin_server.h"

#include <utility>

namespace binchain {
namespace server {

AdminServer::AdminServer(AdminServerOptions options)
    : listener_(ListenerOptionsFrom(options,
                                    /*max_requests_per_connection=*/1),
                [this](HttpConnection* conn, HttpRequest* req, bool) {
                  return Serve(conn->fd, *req);
                }) {}

void AdminServer::Handle(const std::string& path, HttpHandler handler) {
  handlers_[path] = std::move(handler);
}

bool AdminServer::Serve(int fd, const HttpRequest& req) {
  // GET only: any body a client sends past the head is simply never read.
  if (req.method != "GET") return listener_.Reject(fd, 405);
  auto it = handlers_.find(req.path);
  if (it == handlers_.end()) {
    // WriteResponse counts the non-2xx as an error.
    HttpResponse not_found;
    not_found.status = 404;
    not_found.body = "no handler for " + req.path + "\n";
    WriteResponse(fd, not_found);
  } else {
    WriteResponse(fd, it->second(req));
  }
  return false;
}

void AdminServer::WriteResponse(int fd, const HttpResponse& resp) {
  std::string out;
  out.reserve(resp.body.size() + 160);
  out.append("HTTP/1.1 ")
      .append(std::to_string(resp.status))
      .append(" ")
      .append(ReasonPhrase(resp.status))
      .append("\r\nContent-Type: ")
      .append(resp.content_type)
      .append("\r\nContent-Length: ")
      .append(std::to_string(resp.body.size()));
  if (resp.retry_after_s > 0) {
    out.append("\r\nRetry-After: ").append(std::to_string(resp.retry_after_s));
  }
  out.append("\r\nConnection: close\r\n\r\n").append(resp.body);
  SendAll(fd, out.data(), out.size());
  listener_.CountRequest();
  if (resp.status < 200 || resp.status >= 300) listener_.CountError();
}

}  // namespace server
}  // namespace binchain
