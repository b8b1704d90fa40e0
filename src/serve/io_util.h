#ifndef LEAPME_SERVE_IO_UTIL_H_
#define LEAPME_SERVE_IO_UTIL_H_

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <string>

#include "common/logging.h"
#include "common/string_util.h"

/// Small socket helpers shared by the serving backends (tcp_server.cc,
/// reactor_server.cc). Header-only and internal to src/serve.

namespace leapme::serve::internal {

/// Backoff hint sent with accept-time Unavailable rejections (connection
/// cap and EMFILE sheds), identical across serving backends.
constexpr uint64_t kRejectRetryAfterMs = 50;

inline void CloseIfOpen(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

inline bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// What an accept(2) failure means for the accept loop.
enum class AcceptFailure {
  kRetry,     ///< transient (EINTR, ECONNABORTED, ENOBUFS, ...): try again
  kOverflow,  ///< fd exhaustion (EMFILE/ENFILE): shed, then try again
  kFatal,     ///< the listener itself is broken (EBADF, EINVAL, ...)
};

/// Classifies errno after a failed accept. The accept loop must survive
/// everything except a broken listener: a transient error or a full fd
/// table affects one connection attempt, not the server.
inline AcceptFailure ClassifyAcceptErrno(int error) {
  switch (error) {
    case EMFILE:
    case ENFILE:
      return AcceptFailure::kOverflow;
    case EBADF:
    case EINVAL:
    case ENOTSOCK:
    case EOPNOTSUPP:
      return AcceptFailure::kFatal;
    default:
      // EINTR, ECONNABORTED, EAGAIN, EPROTO, ENOBUFS, ENOMEM, EPERM,
      // and anything a future kernel invents: log-and-continue.
      return AcceptFailure::kRetry;
  }
}

/// Best-effort single-response write used for inline accept-time
/// rejections: the socket is fresh (empty send buffer), so the small
/// write almost always completes; on EAGAIN (non-blocking fd) it retries
/// twice without waiting, because it runs on an event loop and a
/// rejection storm must not stall every connection pinned to it.
inline void BestEffortSendLine(int fd, std::string line) {
  line.push_back('\n');
  size_t sent = 0;
  int polls_left = 2;
  while (sent < line.size()) {
    const ssize_t n =
        ::send(fd, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) &&
        polls_left-- > 0) {
      pollfd pfd = {fd, POLLOUT, 0};
      ::poll(&pfd, 1, /*timeout=*/0);
      continue;
    }
    return;  // peer gone or persistently unwritable: drop the reply
  }
}

/// Holds one spare fd (to /dev/null) so that, when accept(2) fails with
/// EMFILE, the loop can momentarily release it, accept the pending
/// connection, send the Unavailable + retry_after_ms rejection, and
/// close — shedding per the overload contract instead of leaving the
/// peer stuck in the kernel backlog with no answer.
class ReserveFd {
 public:
  ReserveFd() { Reacquire(); }
  ~ReserveFd() { CloseIfOpen(fd_); }

  ReserveFd(const ReserveFd&) = delete;
  ReserveFd& operator=(const ReserveFd&) = delete;

  bool held() const { return fd_ >= 0; }

  void Release() { CloseIfOpen(fd_); }

  bool Reacquire() {
    if (fd_ < 0) {
      fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    }
    return fd_ >= 0;
  }

 private:
  int fd_ = -1;
};

}  // namespace leapme::serve::internal

#endif  // LEAPME_SERVE_IO_UTIL_H_
