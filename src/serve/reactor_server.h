#ifndef LEAPME_SERVE_REACTOR_SERVER_H_
#define LEAPME_SERVE_REACTOR_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
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
/// one listener (on loop 0) assigning accepts round-robin; and a fixed
/// pool of `worker_threads` request workers. The loops do no scoring and
/// the workers do no socket I/O:
///
///   loop:   read readiness -> non-blocking recv into the framing
///           buffer -> complete lines queue per connection -> dispatch
///           (at most one in-flight request per connection, preserving
///           response order) -> worker pool
///   worker: MatcherService::HandleLine (blocks in the micro-batcher as
///           needed) -> posts the response to the owning loop's
///           completion queue -> eventfd wakeup
///   loop:   append response to the connection's output queue ->
///           EAGAIN-aware flush, registering EPOLLOUT only while bytes
///           remain -> restart/clear the request deadline -> dispatch
///           the next pipelined line
///
/// Overload controls and the wire contract: max_connections rejects
/// inline at accept with Unavailable + retry_after_ms; deadline_ms spans
/// read -> batch -> score -> write (a stalled request line gets a typed
/// DeadlineExceeded, a stalled reader is disconnected when its response
/// outlives the budget); the serve.accept / serve.read / serve.write
/// fault points bracket the accept, recv and send calls. Every accepted
/// socket gets TCP_NODELAY, so a reply is never held back waiting for
/// the peer to acknowledge the previous one.
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

  struct WorkItem {
    EventLoop* loop = nullptr;
    uint64_t token = 0;
    std::string line;
    Deadline deadline;
  };

  /// Fixed pool of request workers shared by all loops.
  class WorkerPool {
   public:
    WorkerPool(MatcherService* service, size_t threads);
    ~WorkerPool();
    void Submit(WorkItem item);
    void Stop();

   private:
    void WorkerLoop();

    MatcherService* service_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<WorkItem> queue_;
    bool stop_ = false;
    std::vector<std::thread> threads_;
  };

  /// One reactor loop: epoll set + eventfd + the connections pinned to
  /// it. Connection state is touched only by the owning loop thread;
  /// cross-thread input (adopted fds, worker completions, stop requests)
  /// arrives through the mutex-guarded mailbox drained after each
  /// eventfd wakeup.
  class EventLoop {
   public:
    EventLoop(ReactorServer* server, size_t index);
    ~EventLoop();

    Status Init(int listen_fd);  // listen_fd < 0: no listener on this loop
    void Run();
    void Wake();

    /// Hands a freshly accepted (non-blocking) socket to this loop.
    void AdoptConnection(int fd);
    /// Called by workers when a response is ready.
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
    void MaybeDispatch(Connection* conn);
    void OnResponse(Connection* conn, std::string response);
    void FlushOutput(Connection* conn);
    void QueueResponse(Connection* conn, std::string response);
    void UpdateWriteInterest(Connection* conn);
    /// Restarts (or clears) the deadline after a line was answered, so
    /// every pipelined line gets a budget of its own.
    void ResetDeadlineAfterAnswer(Connection* conn);
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
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> open_connections_{0};
  std::atomic<size_t> next_loop_{0};
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::unique_ptr<WorkerPool> workers_;
  bool started_ = false;
};

}  // namespace leapme::serve::internal

#endif  // LEAPME_SERVE_REACTOR_SERVER_H_
