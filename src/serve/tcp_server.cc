#include "serve/tcp_server.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <memory>

#include "common/logging.h"
#include "common/signal.h"
#include "serve/reactor_server.h"

namespace leapme::serve {

size_t EventLoopThreadsFromEnv() {
  const char* value = std::getenv("LEAPME_EVENT_LOOP_THREADS");
  if (value == nullptr || *value == '\0') {
    return 1;
  }
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || parsed < 1) {
    LEAPME_LOG(Warning) << "LEAPME_EVENT_LOOP_THREADS='" << value
                        << "' not a positive integer; using 1";
    return 1;
  }
  return static_cast<size_t>(std::min<long>(parsed, 64));
}

TcpServer::TcpServer(MatcherService* service, ServerOptions options)
    : service_(service), options_(std::move(options)) {}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  if (started_) {
    return Status::FailedPrecondition("server already started");
  }
  reactor_ = std::make_unique<internal::ReactorServer>(service_, options_);
  const Status status = reactor_->Start();
  if (!status.ok()) {
    reactor_.reset();
    return status;
  }
  service_->SetEventLoopThreads(
      std::max<size_t>(options_.event_loop_threads, 1));
  service_->SetDraining(false);
  started_ = true;
  return Status::OK();
}

int TcpServer::port() const { return reactor_ ? reactor_->port() : -1; }

void TcpServer::Stop() {
  if (reactor_) {
    // Flip readiness first so health checks observe the drain before the
    // listener closes.
    service_->SetDraining(true);
    reactor_->Stop();
  }
  started_ = false;
}

Status TcpServer::ServeUntilShutdown(const std::function<void()>& on_tick) {
  if (!started_) {
    return Status::FailedPrecondition("server not started");
  }
  const int signal_fd = ShutdownSignalFd();
  if (signal_fd < 0) {
    return Status::Internal("cannot create shutdown signal pipe");
  }
  while (!ShutdownRequested()) {
    pollfd pfd = {signal_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/250);
    if (ready < 0 && errno != EINTR) {
      break;
    }
    if (ready > 0 && (pfd.revents & POLLIN) != 0) {
      // The pipe is shared by shutdown and reload signals: drain the
      // wakeup bytes (the read end is non-blocking), then consult the
      // flags — only a shutdown request ends the loop.
      char buffer[64];
      while (::read(signal_fd, buffer, sizeof(buffer)) > 0) {
      }
      if (ShutdownRequested()) {
        break;
      }
    }
    if (on_tick) {
      on_tick();
    }
  }
  Stop();
  return Status::OK();
}

}  // namespace leapme::serve
