#include "serve/net.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#if defined(__linux__) || defined(__APPLE__)
#define PMKM_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace pmkm {
namespace serve {

#if defined(PMKM_HAVE_SOCKETS)

namespace {

constexpr const char kUnixPrefix[] = "unix:";

bool IsUnixEndpoint(const std::string& endpoint) {
  return endpoint.rfind(kUnixPrefix, 0) == 0;
}

std::string UnixPath(const std::string& endpoint) {
  return endpoint.substr(sizeof(kUnixPrefix) - 1);
}

Status SplitHostPort(const std::string& endpoint, std::string* host,
                     int* port) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= endpoint.size()) {
    return Status::InvalidArgument(
        "endpoint '" + endpoint +
        "' is neither unix:<path> nor <host>:<port>");
  }
  *host = endpoint.substr(0, colon);
  char* end = nullptr;
  const std::string port_str = endpoint.substr(colon + 1);
  const long v = std::strtol(port_str.c_str(), &end, 10);
  if (end == port_str.c_str() || *end != '\0' || v < 0 || v > 65535) {
    return Status::InvalidArgument("bad port in endpoint '" + endpoint +
                                   "'");
  }
  *port = static_cast<int>(v);
  return Status::OK();
}

Status FillUnixAddr(const std::string& path, sockaddr_un* addr) {
  if (path.empty() ||
      path.size() >= sizeof(addr->sun_path)) {
    return Status::InvalidArgument("unix socket path '" + path +
                                   "' is empty or too long");
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  // pmkm-lint: allow(raw-bytes) -- fills a sockaddr field, not a format.
  std::memcpy(addr->sun_path, path.c_str(), path.size());
  return Status::OK();
}

Status FillInetAddr(const std::string& host, int port, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 address '" + host +
                                   "' (hostnames are not resolved; use a "
                                   "loopback literal)");
  }
  return Status::OK();
}

bool IsLoopback(const sockaddr_in& addr) {
  // 127.0.0.0/8.
  return (ntohl(addr.sin_addr.s_addr) >> 24) == 127;
}

}  // namespace

Result<Listener> ListenEndpoint(const std::string& endpoint) {
  int fd = -1;
  Listener listener;
  if (IsUnixEndpoint(endpoint)) {
    const std::string path = UnixPath(endpoint);
    sockaddr_un addr;
    PMKM_RETURN_NOT_OK(FillUnixAddr(path, &addr));
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Status::Internal("serve: socket() failed");
    // A stale socket file from a crashed daemon blocks bind(); remove it.
    // A *live* daemon also loses its file this way, but it keeps serving
    // existing connections — two daemons on one path is an operator
    // error this layer cannot detect portably.
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return Status::IOError("serve: cannot bind " + endpoint + ": " +
                             std::strerror(errno));
    }
    listener.endpoint = endpoint;
  } else {
    std::string host;
    int port = 0;
    PMKM_RETURN_NOT_OK(SplitHostPort(endpoint, &host, &port));
    sockaddr_in addr;
    PMKM_RETURN_NOT_OK(FillInetAddr(host, port, &addr));
    if (!IsLoopback(addr)) {
      return Status::InvalidArgument(
          "serve: refusing to bind non-loopback address '" + host +
          "' — the serve protocol is a local surface");
    }
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Status::Internal("serve: socket() failed");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return Status::IOError("serve: cannot bind " + endpoint + ": " +
                             std::strerror(errno));
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ::close(fd);
      return Status::Internal("serve: getsockname() failed");
    }
    listener.endpoint =
        host + ":" + std::to_string(ntohs(addr.sin_port));
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return Status::IOError("serve: listen() on " + endpoint + " failed: " +
                           std::strerror(errno));
  }
  listener.fd = fd;
  return listener;
}

Result<int> DialEndpoint(const std::string& endpoint) {
  if (IsUnixEndpoint(endpoint)) {
    sockaddr_un addr;
    PMKM_RETURN_NOT_OK(FillUnixAddr(UnixPath(endpoint), &addr));
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Status::Internal("serve: socket() failed");
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      return Status::IOError("serve: cannot connect to " + endpoint + ": " +
                             std::strerror(errno));
    }
    return fd;
  }
  std::string host;
  int port = 0;
  PMKM_RETURN_NOT_OK(SplitHostPort(endpoint, &host, &port));
  sockaddr_in addr;
  PMKM_RETURN_NOT_OK(FillInetAddr(host, port, &addr));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("serve: socket() failed");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IOError("serve: cannot connect to " + endpoint + ": " +
                           std::strerror(errno));
  }
  return fd;
}

Result<int> AcceptConnection(int listen_fd) {
  const int conn = ::accept(listen_fd, nullptr, nullptr);
  if (conn >= 0) return conn;
  if (errno == EBADF || errno == EINVAL) {
    // The listener was shut down / closed under us: orderly exit.
    return Status::Cancelled("listener closed");
  }
  return Status::Internal(std::string("serve: accept() failed: ") +
                          std::strerror(errno));
}

Status SetIoTimeout(int fd, int timeout_ms) {
  if (timeout_ms <= 0) return Status::OK();
  timeval timeout;
  timeout.tv_sec = timeout_ms / 1000;
  timeout.tv_usec = (timeout_ms % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                   sizeof(timeout)) != 0 ||
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout,
                   sizeof(timeout)) != 0) {
    return Status::Internal("serve: setsockopt(timeout) failed");
  }
  return Status::OK();
}

Status WriteAll(int fd, std::span<const uint8_t> bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::IOError(
          std::string("serve: send failed: ") +
          (n < 0 ? std::strerror(errno) : "peer closed"));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ReadExact(int fd, std::span<uint8_t> out) {
  size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::recv(fd, out.data() + got, out.size() - got, 0);
    if (n == 0) {
      if (got == 0) return Status::Cancelled("peer closed the connection");
      return Status::IOError("serve: connection closed mid-message (" +
                             std::to_string(got) + " of " +
                             std::to_string(out.size()) + " bytes)");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("serve: recv failed: ") +
                             std::strerror(errno));
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<size_t> ReadSome(int fd, std::span<uint8_t> out) {
  while (true) {
    const ssize_t n = ::recv(fd, out.data(), out.size(), 0);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    return Status::IOError(std::string("serve: recv failed: ") +
                           std::strerror(errno));
  }
}

void CloseFd(int fd) {
  if (fd < 0) return;
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
}

void CleanupEndpoint(const std::string& endpoint) {
  if (IsUnixEndpoint(endpoint)) {
    ::unlink(UnixPath(endpoint).c_str());
  }
}

#else  // !PMKM_HAVE_SOCKETS

namespace {
Status NoSockets() {
  return Status::NotImplemented("the serve layer requires POSIX sockets");
}
}  // namespace

Result<Listener> ListenEndpoint(const std::string&) { return NoSockets(); }
Result<int> DialEndpoint(const std::string&) { return NoSockets(); }
Result<int> AcceptConnection(int) { return NoSockets(); }
Status SetIoTimeout(int, int) { return NoSockets(); }
Status WriteAll(int, std::span<const uint8_t>) { return NoSockets(); }
Status ReadExact(int, std::span<uint8_t>) { return NoSockets(); }
Result<size_t> ReadSome(int, std::span<uint8_t>) { return NoSockets(); }
void CloseFd(int) {}
void CleanupEndpoint(const std::string&) {}

#endif  // PMKM_HAVE_SOCKETS

}  // namespace serve
}  // namespace pmkm
