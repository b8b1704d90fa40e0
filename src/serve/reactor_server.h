#ifndef LEAPME_SERVE_REACTOR_SERVER_H_
#define LEAPME_SERVE_REACTOR_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "serve/io_util.h"
#include "serve/matcher_service.h"
#include "serve/tcp_server.h"

namespace leapme::serve::internal {

/// The epoll readiness-loop transport behind TcpServer (DESIGN.md §16).
///
/// Structure: `event_loop_threads` reactor loops, each owning an epoll
/// set, an eventfd, and the full state of the connections pinned to it;
/// one listener (on loop 0) assigning accepts round-robin. A loop hands
/// each request straight to MatcherService::Submit, and the batcher
/// hands the response back:
///
///   loop:    read readiness -> non-blocking recv into the framing
///            buffer -> complete lines queue per connection -> dispatch
///            (at most one in-flight request per connection, preserving
///            response order) -> MatcherService::Submit (parse, cheap
///            ops, feature gather and admission run on the loop)
///   batcher: scores the queued pairs -> the request's completion posts
///            the response to the owning loop's mailbox -> eventfd wakeup
///   loop:    append response to the connection's output queue ->
///            EAGAIN-aware flush, registering EPOLLOUT only while bytes
///            remain -> restart/clear the request deadline -> dispatch
///            the next pipelined line
///
/// Overload controls and the wire contract: max_connections rejects
/// inline at accept with Unavailable + retry_after_ms; deadline_ms spans
/// read -> batch -> score -> write (a stalled request line or a request
/// still at the service gets a typed DeadlineExceeded and a close, a
/// stalled reader is disconnected when its response outlives the
/// budget); max_line_bytes also bounds each connection's unanswered
/// lines plus unflushed replies (past it, reads stop); the serve.accept
/// / serve.read / serve.write fault points bracket the accept, recv and
/// send calls. Every accepted socket gets TCP_NODELAY, so a reply is
/// never held back waiting for the peer to acknowledge the previous one.
///
/// Stop() is idempotent and callable after a failed Start().
class ReactorServer {
 public:
  ReactorServer(MatcherService* service, const ServerOptions& options);
  ~ReactorServer();

  Status Start();
  void Stop();
  int port() const { return port_; }

 private:
  class EventLoop;

  /// One reactor loop: epoll set + eventfd + the connections pinned to
  /// it. Connection state is touched only by the owning loop thread;
  /// cross-thread input (adopted fds, request completions, stop
  /// requests) arrives through the mutex-guarded mailbox drained after
  /// each eventfd wakeup.
  class EventLoop {
   public:
    EventLoop(ReactorServer* server, size_t index);
    ~EventLoop();

    Status Init(int listen_fd);  // listen_fd < 0: no listener on this loop
    void Run();
    void Wake();

    /// Hands a freshly accepted (non-blocking) socket to this loop.
    void AdoptConnection(int fd);
    /// Called from the batcher or reload thread when a response is ready.
    void PostCompletion(uint64_t token, std::string response);
    /// Begins graceful drain: treat every connection as half-closed,
    /// answer what was already received, then close.
    void RequestDrain();

   private:
    struct Connection {
      int fd = -1;
      uint64_t token = 0;
      std::string input;                     // unframed request bytes
      std::deque<std::string> pending;       // complete lines, undispatched
      size_t pending_bytes = 0;              // total size of `pending`
      std::string output;                    // unflushed response bytes
      size_t output_offset = 0;              // flushed prefix of `output`
      bool in_flight = false;                // one request at the service
      bool peer_eof = false;                 // no more reads
      bool close_after_flush = false;        // error/deadline reply queued
      bool draining = false;                 // FIN sent, discarding reads
      uint32_t registered_events = 0;        // current epoll interest mask
      Deadline deadline;                     // infinite while idle
      size_t backlog() const { return output.size() - output_offset; }
    };

    void HandleListener();
    void HandleEvent(Connection* conn, uint32_t events);
    void ReadFromConnection(Connection* conn);
    /// Moves complete lines from input to pending; false when the
    /// connection must close (oversized unterminated line).
    bool FrameInput(Connection* conn);
    /// Submits pending lines while none is in flight and the backlog is
    /// within budget. The caller flushes.
    void MaybeDispatch(Connection* conn);
    void OnResponse(Connection* conn, std::string response);
    void FlushOutput(Connection* conn);
    void QueueResponse(Connection* conn, std::string response);
    /// Queues the in-flight request's reply and restarts the deadline, so
    /// every pipelined line gets a budget of its own.
    void Answer(Connection* conn, std::string response);
    void UpdateWriteInterest(Connection* conn);
    void CheckDeadlines();
    int NextTimeoutMs() const;
    /// Graceful server-initiated close: flush, FIN, drain until EOF.
    void BeginLingeringClose(Connection* conn);
    void CloseConnection(Connection* conn);
    void DrainMailbox();
    /// Tracks the loop's contribution to the writable-backlog gauge.
    void AdjustBacklogGauge(size_t before, size_t after);

    ReactorServer* server_;
    size_t index_;
    int epoll_fd_ = -1;
    int event_fd_ = -1;
    int listen_fd_ = -1;  // owned by the server, registered on loop 0
    uint64_t next_token_ = 1;
    std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;
    /// Connections with a finite deadline ticking (partial request,
    /// in-flight scoring, or unflushed response under a budget). Usually
    /// a small subset of connections_, so deadline scans stay cheap even
    /// with tens of thousands of idle connections.
    std::unordered_map<uint64_t, Connection*> deadlined_;
    ReserveFd reserve_fd_;
    /// Set by Run(). A completion on this thread ran inside Submit and
    /// lands in inline_response_ instead of the mailbox.
    std::thread::id thread_id_;
    std::optional<std::string> inline_response_;

    std::mutex mailbox_mu_;
    std::vector<int> adopted_fds_;
    std::vector<std::pair<uint64_t, std::string>> completions_;
    bool drain_requested_ = false;

    bool draining_ = false;
    std::thread thread_;
    friend class ReactorServer;
  };

  MatcherService* service_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int port_ = -1;
  std::atomic<size_t> open_connections_{0};
  std::atomic<size_t> next_loop_{0};
  std::vector<std::unique_ptr<EventLoop>> loops_;
  /// Requests submitted and not yet completed. Stop waits for zero before
  /// destroying the loops, so every completion lands on a live mailbox.
  std::atomic<size_t> in_flight_{0};
  bool started_ = false;
};

}  // namespace leapme::serve::internal

#endif  // LEAPME_SERVE_REACTOR_SERVER_H_
