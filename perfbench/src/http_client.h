// A blocking keep-alive HTTP/1.1 client connection over loopback, enough
// to drive the relview front end (requests built with net::BuildRequest,
// responses parsed with net::ResponseParser).

#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>

#include "net/http.h"
#include "service/update_service.h"

namespace perfbench {

class HttpConnection {
 public:
  explicit HttpConnection(int port) : port_(port) {}
  ~HttpConnection() { Close(); }
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// Sends `request` and reads one response. Returns the HTTP status, or
  /// -1 on a transport error (the connection is then closed).
  int Roundtrip(const std::string& request, std::string* body) {
    if (!EnsureOpen()) return -1;
    size_t off = 0;
    while (off < request.size()) {
      const ssize_t n = ::send(fd_, request.data() + off,
                               request.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        Close();
        return -1;
      }
    }
    relview::net::ResponseParser parser;
    char buf[16 * 1024];
    while (!parser.complete() && !parser.error()) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        parser.Feed(buf, static_cast<size_t>(n));
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        Close();
        return -1;
      }
    }
    if (parser.error()) {
      Close();
      return -1;
    }
    *body = parser.body();
    std::string connection = parser.Header("connection");
    for (char& c : connection) c = static_cast<char>(std::tolower(c));
    if (connection == "close") Close();
    return parser.status();
  }

 private:
  bool EnsureOpen() {
    if (fd_ >= 0) return true;
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      Close();
      return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  int port_;
  int fd_ = -1;
};

/// The service outcome a POST /v1/batch response stands for: 200 commits,
/// 409 carries the rejected position; anything else is a failure.
inline relview::BatchResult FromHttp(int status, const std::string& body) {
  relview::BatchResult r;
  if (status == 200) return r;
  const std::string untranslatable =
      std::string("\"code\":\"") +
      relview::StatusCodeName(relview::StatusCode::kUntranslatable) + "\"";
  if (status == 409 && body.find(untranslatable) != std::string::npos) {
    const size_t pos = body.find("\"failed_index\":");
    r.failed_index = pos == std::string::npos
                         ? -1
                         : std::atoi(body.c_str() + pos + 15);
    r.status = relview::Status::Untranslatable(body);
    return r;
  }
  r.status = relview::Status::Internal("HTTP " + std::to_string(status) +
                                       ": " + body);
  return r;
}

/// `"key":<number>` from a flat JSON line; NaN when absent.
inline double JsonNumber(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return std::nan("");
  return std::strtod(line.c_str() + pos + needle.size(), nullptr);
}

/// Wide-event lines of a log file keyed by their 16-hex-digit trace id.
inline std::unordered_map<std::string, std::string> ReadWideEvents(
    const std::string& path) {
  std::unordered_map<std::string, std::string> events;
  if (FILE* f = std::fopen(path.c_str(), "r")) {
    char line[4096];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      const std::string s(line);
      const size_t pos = s.find("\"trace\":\"");
      if (pos != std::string::npos) events[s.substr(pos + 9, 16)] = s;
    }
    std::fclose(f);
  }
  return events;
}

/// A write's server-side split, from its wide event: the service stages
/// and the server's own time (parse, admission, router, publish) around
/// them; the wire time is the client round trip outside the server.
struct ServerSplit {
  double stage_us, append_us, commit_wait_us, server_us, wire_us;
};
inline ServerSplit SplitWideEvent(const std::string& event,
                                  double roundtrip_us) {
  ServerSplit s{};
  s.stage_us = JsonNumber(event, "stage_us");
  s.append_us = JsonNumber(event, "append_us");
  s.commit_wait_us = JsonNumber(event, "commit_wait_us");
  const double total = JsonNumber(event, "total_us");
  s.server_us = total - s.stage_us - s.append_us - s.commit_wait_us;
  s.wire_us = roundtrip_us - total;
  return s;
}

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
