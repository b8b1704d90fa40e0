#ifndef LEAPME_SERVE_TCP_SERVER_H_
#define LEAPME_SERVE_TCP_SERVER_H_

#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "serve/matcher_service.h"

namespace leapme::serve {

/// Event-loop thread count from $LEAPME_EVENT_LOOP_THREADS (clamped to
/// [1, 64]); defaults to 1 — one reactor loop drives tens of thousands
/// of connections, more loops spread readiness work across cores.
size_t EventLoopThreadsFromEnv();

struct ServerOptions {
  /// Interface to bind; the default keeps the scorer private to the host.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;
  /// Largest accepted request line. A connection that exceeds it gets one
  /// error response and is closed (the stream is no longer framed). Also
  /// the per-connection read budget: a connection is not read while its
  /// unanswered lines plus its unflushed replies exceed it.
  size_t max_line_bytes = 1 << 20;
  /// Listen backlog.
  int backlog = 64;
  /// Per-request deadline in milliseconds, 0 = none. The budget starts
  /// when a request's first bytes arrive and covers the whole
  /// read -> batch -> score -> write path: a slow-trickling request line,
  /// a queue wait, a slow score, or a peer that stops reading the
  /// response all count against the same clock. An expired deadline gets
  /// one typed DeadlineExceeded response and the connection is closed
  /// (the request stream may hold a half-sent line).
  int64_t deadline_ms = 0;
  /// Cap on concurrently served connections, 0 = unlimited. An accept
  /// past the cap is answered inline with one Unavailable error (carrying
  /// a retry_after_ms hint) and closed, so clients shed instead of
  /// queueing invisibly in the kernel backlog.
  size_t max_connections = 0;
  /// Reactor loops. Connections are assigned round-robin to loops at
  /// accept time and stay pinned, so all state of one connection is
  /// touched by exactly one loop thread.
  size_t event_loop_threads = EventLoopThreadsFromEnv();
  /// SO_SNDBUF for accepted connections (0 = OS default), set on the
  /// listening socket so accepts inherit it. Tests use a tiny buffer to
  /// force writable backpressure deterministically.
  int sndbuf_bytes = 0;
};

namespace internal {
class ReactorServer;
}  // namespace internal

/// Line-delimited JSON scoring server. Each request line goes to
/// MatcherService::Submit on the loop thread that read it; scoring runs
/// on the service's micro-batcher, which posts the response back to that
/// loop. Connections are multiplexed by the epoll reactor
/// (internal::ReactorServer, DESIGN.md §16).
///
/// Lifecycle: Start() binds/listens and starts serving; Stop() drains
/// gracefully — it stops accepting, lets requests already received
/// finish writing their responses, and joins all threads. Stop() is
/// idempotent and also runs on destruction. ServeUntilShutdown() parks
/// the caller until SIGINT / SIGTERM (or RequestShutdown()), then Stops.
class TcpServer {
 public:
  /// `service` must outlive the server.
  TcpServer(MatcherService* service, ServerOptions options = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens, and starts accepting. Fails on unparseable hosts,
  /// bind/listen errors (e.g. port in use).
  Status Start();

  /// The bound port (useful with port 0); valid after a successful Start.
  int port() const;

  /// Graceful shutdown as described above. Safe to call from any thread
  /// other than a reactor loop or the batcher.
  void Stop();

  /// Blocks until a process shutdown signal arrives, then Stop()s.
  /// Requires a successful Start. `on_tick`, when given, runs on the
  /// parked thread roughly every poll interval (~250ms) and after every
  /// signal-pipe wakeup that was not a shutdown — it is how the serve
  /// command notices SIGHUP reload requests and model-file mtime changes
  /// without a dedicated watcher thread.
  Status ServeUntilShutdown(const std::function<void()>& on_tick = nullptr);

 private:
  MatcherService* service_;
  ServerOptions options_;
  std::unique_ptr<internal::ReactorServer> reactor_;
  bool started_ = false;
};

}  // namespace leapme::serve

#endif  // LEAPME_SERVE_TCP_SERVER_H_
