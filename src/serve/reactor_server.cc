#include "serve/reactor_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/faults/fault_injector.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "serve/protocol.h"

namespace leapme::serve::internal {

namespace {

/// epoll_event.data.u64 markers for the two non-connection fds each loop
/// watches; connection tokens start above them.
constexpr uint64_t kEventFdToken = 0;
constexpr uint64_t kListenerToken = 1;
constexpr uint64_t kFirstConnectionToken = 2;

/// Per-wakeup read rounds on one connection, so a peer that streams
/// faster than we drain cannot starve its loop-mates.
constexpr int kMaxReadRoundsPerWakeup = 16;

/// Grace budgets for the two bounded shutdown paths: how long a
/// lingering close waits for the peer's FIN, and how long a draining
/// loop waits for in-flight requests to finish answering.
constexpr int64_t kLingerMs = 1000;
constexpr int64_t kDrainGraceMs = 5000;

}  // namespace

// ---------------------------------------------------------------------------
// EventLoop

ReactorServer::EventLoop::EventLoop(ReactorServer* server, size_t index)
    : server_(server), index_(index), next_token_(kFirstConnectionToken) {}

ReactorServer::EventLoop::~EventLoop() {
  if (thread_.joinable()) {
    thread_.join();
  }
  for (auto& [token, conn] : connections_) {
    CloseIfOpen(conn->fd);
  }
  connections_.clear();
  CloseIfOpen(event_fd_);
  CloseIfOpen(epoll_fd_);
}

Status ReactorServer::EventLoop::Init(int listen_fd) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::IoError(
        StrFormat("epoll_create1: %s", std::strerror(errno)));
  }
  event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (event_fd_ < 0) {
    return Status::IoError(StrFormat("eventfd: %s", std::strerror(errno)));
  }
  epoll_event ev = {};
  ev.events = EPOLLIN;
  ev.data.u64 = kEventFdToken;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) != 0) {
    return Status::IoError(
        StrFormat("epoll_ctl(eventfd): %s", std::strerror(errno)));
  }
  if (listen_fd >= 0) {
    listen_fd_ = listen_fd;
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerToken;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
      return Status::IoError(
          StrFormat("epoll_ctl(listener): %s", std::strerror(errno)));
    }
  }
  return Status::OK();
}

void ReactorServer::EventLoop::Wake() {
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(event_fd_, &one, sizeof(one));
}

void ReactorServer::EventLoop::AdoptConnection(int fd) {
  {
    std::lock_guard<std::mutex> lock(mailbox_mu_);
    adopted_fds_.push_back(fd);
  }
  Wake();
}

void ReactorServer::EventLoop::PostCompletion(uint64_t token,
                                              std::string response) {
  {
    std::lock_guard<std::mutex> lock(mailbox_mu_);
    completions_.emplace_back(token, std::move(response));
  }
  Wake();
}

void ReactorServer::EventLoop::RequestDrain() {
  {
    std::lock_guard<std::mutex> lock(mailbox_mu_);
    drain_requested_ = true;
  }
  Wake();
}

void ReactorServer::EventLoop::Run() {
  thread_id_ = std::this_thread::get_id();
  std::vector<epoll_event> events(256);
  // One finite clock for the whole drain; set when drain begins.
  Deadline drain_deadline;
  while (true) {
    int timeout = NextTimeoutMs();
    if (draining_ && !drain_deadline.infinite()) {
      timeout = timeout < 0
                    ? drain_deadline.PollTimeoutMs()
                    : std::min(timeout, drain_deadline.PollTimeoutMs());
    }
    const int ready =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), timeout);
    server_->service_->OnEpollWakeup();
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      LEAPME_LOG(Error) << "reactor loop " << index_
                        << ": epoll_wait: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < ready; ++i) {
      const uint64_t token = events[i].data.u64;
      if (token == kEventFdToken) {
        uint64_t counter = 0;
        [[maybe_unused]] ssize_t n =
            ::read(event_fd_, &counter, sizeof(counter));
        continue;  // mailbox drained below, once per wakeup
      }
      if (token == kListenerToken) {
        HandleListener();
        continue;
      }
      auto it = connections_.find(token);
      if (it != connections_.end()) {
        HandleEvent(it->second.get(), events[i].events);
      }
    }
    const bool drain_now = [&] {
      std::lock_guard<std::mutex> lock(mailbox_mu_);
      return drain_requested_;
    }();
    if (drain_now && !draining_) {
      draining_ = true;
      drain_deadline = Deadline::AfterMs(kDrainGraceMs);
      if (listen_fd_ >= 0) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        listen_fd_ = -1;
      }
      // Stop reading new requests everywhere; what was already received
      // in full still gets answered.
      std::vector<uint64_t> tokens;
      tokens.reserve(connections_.size());
      for (auto& [tok, conn] : connections_) {
        tokens.push_back(tok);
      }
      for (const uint64_t tok : tokens) {
        auto it = connections_.find(tok);
        if (it == connections_.end()) {
          continue;
        }
        Connection* conn = it->second.get();
        conn->peer_eof = true;
        if (conn->pending.empty() && !conn->in_flight &&
            conn->backlog() == 0) {
          CloseConnection(conn);
        } else {
          UpdateWriteInterest(conn);
        }
      }
    }
    DrainMailbox();
    CheckDeadlines();
    if (draining_) {
      if (connections_.empty()) {
        break;
      }
      if (drain_deadline.expired()) {
        // Grace spent: abortive close on whatever is left.
        std::vector<uint64_t> tokens;
        for (auto& [tok, conn] : connections_) {
          tokens.push_back(tok);
        }
        for (const uint64_t tok : tokens) {
          auto it = connections_.find(tok);
          if (it != connections_.end()) {
            CloseConnection(it->second.get());
          }
        }
        break;
      }
    }
  }
}

void ReactorServer::EventLoop::DrainMailbox() {
  std::vector<int> adopted;
  std::vector<std::pair<uint64_t, std::string>> completions;
  {
    std::lock_guard<std::mutex> lock(mailbox_mu_);
    adopted.swap(adopted_fds_);
    completions.swap(completions_);
  }
  for (const int fd : adopted) {
    if (draining_) {
      // Raced with shutdown: the accept already counted it, undo.
      ::close(fd);
      server_->open_connections_.fetch_sub(1, std::memory_order_relaxed);
      server_->service_->OnConnectionClosed();
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->token = next_token_++;
    epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->token;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      LEAPME_LOG(Warning) << "reactor loop " << index_ << ": epoll_ctl(add): "
                          << std::strerror(errno);
      ::close(fd);
      server_->open_connections_.fetch_sub(1, std::memory_order_relaxed);
      server_->service_->OnConnectionClosed();
      continue;
    }
    conn->registered_events = EPOLLIN;
    connections_.emplace(conn->token, std::move(conn));
  }
  for (auto& [token, response] : completions) {
    auto it = connections_.find(token);
    if (it == connections_.end()) {
      continue;  // connection force-closed while the request was in flight
    }
    OnResponse(it->second.get(), std::move(response));
  }
}

void ReactorServer::EventLoop::HandleListener() {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;
      }
      const int error = errno;
      switch (ClassifyAcceptErrno(error)) {
        case AcceptFailure::kRetry:
          // EINTR / ECONNABORTED / ENOBUFS...: one connection attempt
          // failed, the listener is fine.
          LEAPME_LOG(Warning) << "accept: " << std::strerror(error)
                              << " (transient; continuing)";
          continue;
        case AcceptFailure::kOverflow: {
          // Out of fds: momentarily give back the reserve fd so the
          // pending connection can be accepted, told to back off, and
          // closed — the shed contract instead of a silent stall.
          LEAPME_LOG(Warning)
              << "accept: " << std::strerror(error) << "; shedding";
          reserve_fd_.Release();
          const int shed = ::accept(listen_fd_, nullptr, nullptr);
          if (shed >= 0) {
            BestEffortSendLine(
                shed, ErrorResponse(
                          std::nullopt,
                          Status::Unavailable(
                              "server out of file descriptors; retry later"),
                          kRejectRetryAfterMs));
            server_->service_->OnConnectionRejected();
            ::close(shed);
          }
          if (!reserve_fd_.Reacquire()) {
            LEAPME_LOG(Warning) << "accept: cannot reacquire reserve fd";
          }
          continue;
        }
        case AcceptFailure::kFatal:
          LEAPME_LOG(Error) << "accept: " << std::strerror(error)
                            << "; listener disabled";
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
          listen_fd_ = -1;
          return;
      }
    }
    // Replies are small writes. With Nagle on, a reply written while the
    // previous one is still unacknowledged waits for the peer's ACK, and
    // a peer that delays its ACKs stalls every pipelined reply.
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    if (faults::InjectError("serve.accept")) {
      // Simulated accept failure: the connection is dropped before it is
      // ever served; clients see a close and retry.
      ::close(fd);
      continue;
    }
    const size_t cap = server_->options_.max_connections;
    const size_t active =
        server_->open_connections_.load(std::memory_order_relaxed);
    if (cap > 0 && active >= cap) {
      // Inline rejection: one Unavailable reply with a retry hint on the
      // fresh socket, then close — clients back off instead of piling
      // into invisible kernel queues.
      BestEffortSendLine(
          fd, ErrorResponse(std::nullopt,
                            Status::Unavailable(StrFormat(
                                "serving %zu connections (cap %zu); retry "
                                "later",
                                active, cap)),
                            kRejectRetryAfterMs));
      server_->service_->OnConnectionRejected();
      ::close(fd);
      continue;
    }
    server_->open_connections_.fetch_add(1, std::memory_order_relaxed);
    // Counted at accept, not at adoption: a request answered on one loop
    // then sees every connection accepted before its own.
    server_->service_->OnConnectionOpened();
    const size_t target = server_->next_loop_.fetch_add(
                              1, std::memory_order_relaxed) %
                          server_->loops_.size();
    server_->loops_[target]->AdoptConnection(fd);
  }
}

void ReactorServer::EventLoop::HandleEvent(Connection* conn,
                                           uint32_t events) {
  const uint64_t token = conn->token;
  if ((events & (EPOLLHUP | EPOLLERR)) != 0 && conn->peer_eof &&
      !conn->draining) {
    // Both directions are gone (EPOLLHUP fires regardless of the
    // registered mask): nobody is left to read a response, and leaving
    // the connection open would spin the loop on the level-triggered
    // event until its in-flight work completed.
    CloseConnection(conn);
    return;
  }
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
    ReadFromConnection(conn);
  }
  // The read path may have closed the connection; re-resolve.
  auto it = connections_.find(token);
  if (it == connections_.end()) {
    return;
  }
  conn = it->second.get();
  if ((events & EPOLLOUT) != 0 && conn->backlog() > 0) {
    FlushOutput(conn);
    // The flush may have made room for lines held back by a full backlog.
    it = connections_.find(token);
    if (it != connections_.end() && !it->second->pending.empty()) {
      MaybeDispatch(it->second.get());
      FlushOutput(it->second.get());
    }
  }
}

void ReactorServer::EventLoop::ReadFromConnection(Connection* conn) {
  if (conn->draining) {
    // Lingering close: discard everything until the peer's FIN — with the
    // same per-wakeup round cap as the normal read path, so a peer that
    // keeps streaming during the linger window cannot monopolize the
    // loop. Level-triggered EPOLLIN resumes the discard next wakeup.
    char scratch[4096];
    for (int round = 0; round < kMaxReadRoundsPerWakeup; ++round) {
      const ssize_t n = ::recv(conn->fd, scratch, sizeof(scratch), 0);
      if (n > 0) {
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      }
      CloseConnection(conn);  // FIN (n == 0) or a real error
      return;
    }
    return;
  }
  if (conn->peer_eof) {
    return;
  }
  char chunk[4096];
  for (int round = 0; round < kMaxReadRoundsPerWakeup; ++round) {
    size_t cap = sizeof(chunk);
    if (const std::optional<faults::FaultHit> hit =
            faults::FaultInjector::Global().Evaluate("serve.read")) {
      if (hit->kind == faults::FaultKind::kError) {
        // Simulated transport failure: drop the connection cleanly (FIN,
        // not a hang); clients treat it as a lost connection and retry.
        BeginLingeringClose(conn);
        return;
      }
      if (hit->kind == faults::FaultKind::kShortIo) {
        // Short read: deliver fewer bytes this round; the rest stays in
        // the socket buffer for later rounds, as on a real socket.
        cap = std::clamp<size_t>(hit->param, 1, cap);
      }
    }
    const ssize_t n = ::recv(conn->fd, chunk, cap, 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      CloseConnection(conn);
      return;
    }
    if (n == 0) {
      // EOF / half-close: finish answering the complete lines already
      // received; an unterminated trailing fragment is dropped by NDJSON
      // framing rules.
      conn->peer_eof = true;
      break;
    }
    const bool was_idle = conn->input.empty() && conn->pending.empty() &&
                          !conn->in_flight && conn->backlog() == 0;
    conn->input.append(chunk, static_cast<size_t>(n));
    if (was_idle && server_->options_.deadline_ms > 0) {
      // First bytes of a new request start its budget, which covers the
      // whole read -> batch -> score -> write path.
      conn->deadline = Deadline::AfterMs(server_->options_.deadline_ms);
      deadlined_[conn->token] = conn;
    }
  }
  if (!FrameInput(conn)) {
    // Oversized line: the error reply is queued, flush and close.
    conn->close_after_flush = true;
    FlushOutput(conn);
    return;
  }
  MaybeDispatch(conn);
  // Sends what was answered inline, closes a half-closed connection with
  // nothing left to answer, and drops EPOLLIN after EOF (it stays
  // asserted) or past the read budget.
  FlushOutput(conn);
}

bool ReactorServer::EventLoop::FrameInput(Connection* conn) {
  size_t start = 0;
  while (true) {
    const size_t newline = conn->input.find('\n', start);
    if (newline == std::string::npos) {
      break;
    }
    std::string_view line(conn->input.data() + start, newline - start);
    if (!line.empty() && line.back() == '\r') {
      line.remove_suffix(1);
    }
    if (!line.empty()) {
      conn->pending.emplace_back(line);
      conn->pending_bytes += line.size();
    }
    start = newline + 1;
  }
  conn->input.erase(0, start);
  if (conn->input.size() > server_->options_.max_line_bytes) {
    QueueResponse(conn,
                  ErrorResponse(std::nullopt,
                                Status::InvalidArgument(StrFormat(
                                    "request line exceeds %zu bytes",
                                    server_->options_.max_line_bytes))));
    return false;
  }
  return true;
}

void ReactorServer::EventLoop::MaybeDispatch(Connection* conn) {
  while (!conn->in_flight && !conn->pending.empty() &&
         !conn->close_after_flush && !conn->draining &&
         conn->backlog() <= server_->options_.max_line_bytes) {
    const std::string line = std::move(conn->pending.front());
    conn->pending.pop_front();
    conn->pending_bytes -= line.size();
    conn->in_flight = true;
    server_->in_flight_.fetch_add(1, std::memory_order_relaxed);
    // The loop keeps timing the request while the service holds it.
    server_->service_->Submit(
        line, conn->deadline,
        [this, token = conn->token](std::string response) {
          if (std::this_thread::get_id() == thread_id_) {
            inline_response_ = std::move(response);  // inside Submit
          } else {
            PostCompletion(token, std::move(response));
          }
          // Last touch of the loop: Stop may destroy it after this.
          server_->in_flight_.fetch_sub(1, std::memory_order_release);
        });
    if (!inline_response_.has_value()) {
      return;  // the batcher or the reload thread answers
    }
    Answer(conn, std::move(*inline_response_));
    inline_response_.reset();
  }
}

void ReactorServer::EventLoop::OnResponse(Connection* conn,
                                          std::string response) {
  if (!conn->in_flight) {
    // The loop already answered this request (deadline) or discarded it
    // (lingering close).
    return;
  }
  Answer(conn, std::move(response));
  MaybeDispatch(conn);
  FlushOutput(conn);
}

void ReactorServer::EventLoop::QueueResponse(Connection* conn,
                                             std::string response) {
  const size_t before = conn->backlog();
  conn->output.append(response);
  conn->output.push_back('\n');
  AdjustBacklogGauge(before, conn->backlog());
}

void ReactorServer::EventLoop::Answer(Connection* conn,
                                      std::string response) {
  conn->in_flight = false;
  QueueResponse(conn, std::move(response));
  if (server_->options_.deadline_ms > 0) {
    // The answered request's budget is spent; the reply flush, a
    // pipelined follow-up or a trickling partial line runs on a fresh
    // one (FlushOutput clears it once the connection is idle).
    conn->deadline = Deadline::AfterMs(server_->options_.deadline_ms);
    deadlined_[conn->token] = conn;
  }
}

void ReactorServer::EventLoop::FlushOutput(Connection* conn) {
  const size_t before = conn->backlog();
  while (conn->backlog() > 0) {
    size_t attempt = conn->backlog();
    if (const std::optional<faults::FaultHit> hit =
            faults::FaultInjector::Global().Evaluate("serve.write")) {
      if (hit->kind == faults::FaultKind::kError) {
        AdjustBacklogGauge(before, conn->backlog());
        CloseConnection(conn);
        return;
      }
      if (hit->kind == faults::FaultKind::kShortIo) {
        // A short write transfers fewer bytes; the loop finishes the
        // rest — exactly what real sockets do under pressure.
        attempt = std::clamp<size_t>(hit->param, 1, attempt);
      }
    }
    // MSG_NOSIGNAL: a peer that closed mid-response must surface as an
    // error return, not a process-killing SIGPIPE.
    const ssize_t n =
        ::send(conn->fd, conn->output.data() + conn->output_offset, attempt,
               MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;  // socket buffer full: wait for EPOLLOUT
      }
      AdjustBacklogGauge(before, conn->backlog());
      CloseConnection(conn);
      return;
    }
    conn->output_offset += static_cast<size_t>(n);
  }
  if (conn->backlog() == 0) {
    conn->output.clear();
    conn->output_offset = 0;
  } else if (conn->output_offset > (1u << 16)) {
    conn->output.erase(0, conn->output_offset);
    conn->output_offset = 0;
  }
  AdjustBacklogGauge(before, conn->backlog());
  if (conn->backlog() == 0 && conn->close_after_flush && !conn->draining) {
    BeginLingeringClose(conn);
    return;
  }
  if (conn->backlog() == 0 && conn->peer_eof && conn->pending.empty() &&
      !conn->in_flight && !conn->draining) {
    // This flush wrote the last response of a half-closed connection
    // (reached via EPOLLOUT after the peer's EOF); nothing more can
    // arrive or depart.
    CloseConnection(conn);
    return;
  }
  if (conn->backlog() == 0 && !conn->in_flight && conn->pending.empty() &&
      conn->input.empty() && !conn->draining) {
    // The flush left the connection fully idle: the answered request's
    // budget is spent and no new request has started, so no clock may
    // keep ticking (the idle keep-alive contract). This also undoes the
    // restart Answer applies while the response is still queued.
    conn->deadline = Deadline::Infinite();
    deadlined_.erase(conn->token);
  }
  UpdateWriteInterest(conn);
}

void ReactorServer::EventLoop::UpdateWriteInterest(Connection* conn) {
  uint32_t want = 0;
  // Draining still reads (and discards) until FIN. Otherwise a connection
  // whose unanswered lines plus unflushed replies exceed max_line_bytes
  // is not read until they drain.
  if (conn->draining ||
      (!conn->peer_eof && conn->pending_bytes + conn->backlog() <=
                              server_->options_.max_line_bytes)) {
    want |= EPOLLIN;
  }
  if (conn->backlog() > 0 && !conn->draining) {
    want |= EPOLLOUT;
  }
  if (want == conn->registered_events) {
    return;
  }
  epoll_event ev = {};
  ev.events = want;
  ev.data.u64 = conn->token;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
    conn->registered_events = want;
  }
}

void ReactorServer::EventLoop::BeginLingeringClose(Connection* conn) {
  if (conn->draining) {
    return;
  }
  if (conn->backlog() > 0) {
    // Flush the queued reply first; FlushOutput calls back here once the
    // last byte is out.
    conn->close_after_flush = true;
    UpdateWriteInterest(conn);
    return;
  }
  // Closing with unread bytes still queued would turn into an RST that
  // can discard the in-flight error response on the peer. Send our FIN
  // first and drain until the peer closes (bounded by kLingerMs).
  ::shutdown(conn->fd, SHUT_WR);
  conn->draining = true;
  conn->pending.clear();
  conn->pending_bytes = 0;
  conn->in_flight = false;  // a late completion is dropped by OnResponse
  conn->deadline = Deadline::AfterMs(kLingerMs);
  deadlined_[conn->token] = conn;
  UpdateWriteInterest(conn);
}

void ReactorServer::EventLoop::CheckDeadlines() {
  if (deadlined_.empty()) {
    return;
  }
  std::vector<Connection*> expired;
  for (auto& [token, conn] : deadlined_) {
    if (conn->deadline.expired()) {
      expired.push_back(conn);
    }
  }
  for (Connection* conn : expired) {
    if (connections_.find(conn->token) == connections_.end()) {
      continue;
    }
    if (conn->draining) {
      // The peer never sent its FIN within the linger budget.
      CloseConnection(conn);
      continue;
    }
    if (conn->backlog() > 0 && !conn->in_flight) {
      // Write stall: the peer stopped reading within the request budget.
      // Treat it as a dead connection rather than buffering forever.
      CloseConnection(conn);
      continue;
    }
    // A request line that never finished arriving, or a request the
    // service still holds. OnResponse drops the latter's late completion,
    // and the service counts that miss once, when the request completes.
    if (!conn->in_flight) {
      server_->service_->OnRequestTimeout();
    }
    QueueResponse(conn,
                  ErrorResponse(std::nullopt,
                                Status::DeadlineExceeded(
                                    conn->in_flight
                                        ? "request deadline expired before "
                                          "the response was ready"
                                        : "request deadline expired before "
                                          "the request line completed")));
    conn->in_flight = false;
    conn->input.clear();
    conn->close_after_flush = true;
    FlushOutput(conn);
  }
}

int ReactorServer::EventLoop::NextTimeoutMs() const {
  if (deadlined_.empty()) {
    return -1;
  }
  int timeout = 2147483647;
  for (const auto& [token, conn] : deadlined_) {
    timeout = std::min(timeout, conn->deadline.PollTimeoutMs());
  }
  return timeout;
}

void ReactorServer::EventLoop::CloseConnection(Connection* conn) {
  AdjustBacklogGauge(conn->backlog(), 0);
  deadlined_.erase(conn->token);
  const uint64_t token = conn->token;
  CloseIfOpen(conn->fd);  // also removes it from the epoll set
  connections_.erase(token);
  server_->open_connections_.fetch_sub(1, std::memory_order_relaxed);
  server_->service_->OnConnectionClosed();
}

void ReactorServer::EventLoop::AdjustBacklogGauge(size_t before,
                                                  size_t after) {
  if (before != after) {
    server_->service_->AddWritableBacklog(static_cast<int64_t>(after) -
                                          static_cast<int64_t>(before));
  }
}

// ---------------------------------------------------------------------------
// ReactorServer

ReactorServer::ReactorServer(MatcherService* service,
                             const ServerOptions& options)
    : service_(service), options_(options) {
  if (options_.event_loop_threads == 0) {
    options_.event_loop_threads = 1;
  }
}

ReactorServer::~ReactorServer() { Stop(); }

Status ReactorServer::Start() {
  if (started_) {
    return Status::FailedPrecondition("server already started");
  }
  if (options_.port < 0 || options_.port > 65535) {
    return Status::InvalidArgument(
        StrFormat("port %d out of range", options_.port));
  }
  sockaddr_in address = {};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &address.sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse host '" + options_.host +
                                   "' as an IPv4 address");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return Status::IoError(StrFormat("socket: %s", std::strerror(errno)));
  }
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable,
               sizeof(enable));
  if (options_.sndbuf_bytes > 0) {
    // Set on the listener so accepted sockets inherit it; tests use a
    // tiny buffer to force writable backpressure deterministically.
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                 sizeof(options_.sndbuf_bytes));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0) {
    Status status = Status::IoError(StrFormat(
        "bind %s:%d: %s", options_.host.c_str(), options_.port,
        std::strerror(errno)));
    CloseIfOpen(listen_fd_);
    return status;
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    Status status =
        Status::IoError(StrFormat("listen: %s", std::strerror(errno)));
    CloseIfOpen(listen_fd_);
    return status;
  }
  sockaddr_in bound = {};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = options_.port;
  }
  loops_.reserve(options_.event_loop_threads);
  for (size_t i = 0; i < options_.event_loop_threads; ++i) {
    auto loop = std::make_unique<EventLoop>(this, i);
    const Status status = loop->Init(i == 0 ? listen_fd_ : -1);
    if (!status.ok()) {
      loops_.clear();
      CloseIfOpen(listen_fd_);
      return status;
    }
    loops_.push_back(std::move(loop));
  }
  for (auto& loop : loops_) {
    loop->thread_ = std::thread([raw = loop.get()] { raw->Run(); });
  }
  started_ = true;
  return Status::OK();
}

void ReactorServer::Stop() {
  if (!started_) {
    return;
  }
  for (auto& loop : loops_) {
    loop->RequestDrain();
  }
  // Join the loop threads so drains run to completion, but keep the
  // EventLoop objects alive until every submitted request has completed:
  // a drain (grace expiry) or EPOLLHUP can force-close an in-flight
  // connection and let a loop exit Run() while the service still holds
  // its request, and that request's PostCompletion must land on a live
  // mailbox.
  for (auto& loop : loops_) {
    if (loop->thread_.joinable()) {
      loop->thread_.join();
    }
  }
  while (in_flight_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  loops_.clear();
  CloseIfOpen(listen_fd_);
  started_ = false;
}

}  // namespace leapme::serve::internal
