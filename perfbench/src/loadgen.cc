#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <deque>

namespace perfbench {
namespace {

/// One non-blocking connection: queued writes (pointers into the
/// caller's pre-rendered lines), the records awaiting replies in send
/// order, and the unparsed reply bytes.
struct Connection {
  int fd = -1;
  std::deque<std::pair<const std::string*, size_t>> out;
  std::deque<size_t> inflight;
  std::string in;
  size_t consumed = 0;

  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

/// Linux clears TCP_QUICKACK as it leaves quick-ACK mode, so it is set
/// again after every read.
void QuickAck(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
}

bool Connect(const LoadTarget& target, Connection* conn) {
  conn->fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (conn->fd < 0) return false;
  sockaddr_in address = {};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<uint16_t>(target.port));
  if (::inet_pton(AF_INET, target.host.c_str(), &address.sin_addr) != 1 ||
      ::connect(conn->fd, reinterpret_cast<sockaddr*>(&address),
                sizeof(address)) != 0) {
    return false;
  }
  const int one = 1;
  ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (target.quick_ack) QuickAck(conn->fd);
  const int flags = ::fcntl(conn->fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(conn->fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Writes as much of the queue as the socket takes. False on a socket
/// error.
bool Flush(Connection& conn) {
  while (!conn.out.empty()) {
    auto& [line, offset] = conn.out.front();
    const ssize_t n = ::send(conn.fd, line->data() + offset,
                             line->size() - offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    offset += static_cast<size_t>(n);
    if (offset == line->size()) conn.out.pop_front();
  }
  return true;
}

/// How close to a due send the generator stops sleeping and spins.
constexpr uint64_t kSpinNs = 20'000'000;

/// The single-threaded socket engine the open loop drives.
class Engine {
 public:
  Engine(const LoadTarget& target, const std::vector<std::string>& lines,
         LoadResult* result)
      : target_(target), lines_(lines), result_(result),
        conns_(std::max<size_t>(1, target.connections)) {
    // Sleep to the nanosecond the schedule asks for, not the default
    // 50 us timer slack.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    if (target_.tracer != nullptr) {
      span_name_ = target_.tracer->Intern(target_.span_name);
    }
    for (Connection& conn : conns_) {
      if (!Connect(target_, &conn)) {
        result_->error = "cannot connect to the server";
        return;
      }
    }
    start_ns_ = NowNs();
  }

  bool ok() const { return result_->error.empty(); }
  uint64_t Now() const { return NowNs() - start_ns_; }
  size_t inflight() const { return inflight_; }
  size_t connections() const { return conns_.size(); }

  /// Queues line `line` on connection `c` and records it.
  void Send(uint32_t line, uint64_t intended_ns, size_t c) {
    Connection& conn = conns_[c];
    RequestRecord record;
    record.line = line;
    record.intended_ns = intended_ns;
    record.sent_ns = Now();
    conn.inflight.push_back(result_->records.size());
    result_->records.push_back(record);
    result_->replies.emplace_back();
    conn.out.emplace_back(&lines_[line], 0);
    ++inflight_;
    if (!Flush(conn)) result_->error = "send failed";
  }

  /// Waits up to `timeout_ns` for socket activity and handles it.
  void Pump(uint64_t timeout_ns) {
    std::vector<pollfd> fds(conns_.size());
    for (size_t i = 0; i < conns_.size(); ++i) {
      fds[i] = {conns_[i].fd,
                static_cast<short>(POLLIN |
                                   (conns_[i].out.empty() ? 0 : POLLOUT)),
                0};
    }
    // Sleeps longer than kSpinNs, less the margin; polls without sleeping
    // once a send is near. A sleeping vCPU can wake milliseconds late, so
    // the generator spins through the last stretch before each send.
    const uint64_t sleep_ns =
        timeout_ns > kSpinNs ? timeout_ns - kSpinNs : 0;
    timespec timeout = {static_cast<time_t>(sleep_ns / 1'000'000'000ULL),
                        static_cast<long>(sleep_ns % 1'000'000'000ULL)};
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready <= 0) return;
    for (size_t i = 0; i < conns_.size() && ok(); ++i) {
      if (fds[i].revents & POLLOUT) {
        if (!Flush(conns_[i])) result_->error = "send failed";
      }
      if (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) {
        Read(i);
      }
    }
  }

  void Finish() {
    result_->elapsed_ns = Now();
  }

 private:
  void Read(size_t c) {
    Connection& conn = conns_[c];
    char chunk[65536];
    while (true) {
      const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (target_.quick_ack) QuickAck(conn.fd);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) {
        result_->error = "connection closed by the server";
        return;
      }
      const size_t old_size = conn.in.size();
      conn.in.append(chunk, static_cast<size_t>(n));
      size_t newline = conn.in.find('\n', old_size);
      while (newline != std::string::npos) {
        const uint64_t now = Now();
        if (conn.inflight.empty()) {
          result_->error = "reply without a request";
          return;
        }
        const size_t record = conn.inflight.front();
        conn.inflight.pop_front();
        --inflight_;
        result_->replies[record].assign(conn.in, conn.consumed,
                                        newline - conn.consumed);
        RequestRecord& r = result_->records[record];
        r.done_ns = now;
        r.replied = true;
        if (target_.tracer != nullptr) {
          target_.tracer->Add(span_name_, kNoParent, record,
                              start_ns_ + r.sent_ns, start_ns_ + now);
        }
        conn.consumed = newline + 1;
        newline = conn.in.find('\n', conn.consumed);
      }
      if (conn.consumed == conn.in.size()) {
        conn.in.clear();
        conn.consumed = 0;
      }
    }
  }

  const LoadTarget& target_;
  const std::vector<std::string>& lines_;
  LoadResult* result_;
  std::vector<Connection> conns_;
  uint64_t start_ns_ = 0;
  size_t inflight_ = 0;
  uint32_t span_name_ = 0;
};

}  // namespace

LoadResult RunOpenLoop(const LoadTarget& target,
                       const std::vector<std::string>& lines,
                       const std::vector<uint64_t>& intended_ns) {
  LoadResult result;
  result.records.reserve(intended_ns.size());
  result.replies.reserve(intended_ns.size());
  Engine engine(target, lines, &result);
  size_t next = 0;
  uint64_t drain_deadline = 0;
  while (engine.ok()) {
    uint64_t now = engine.Now();
    while (next < intended_ns.size() && intended_ns[next] <= now) {
      engine.Send(static_cast<uint32_t>(next % lines.size()),
                  intended_ns[next], next % engine.connections());
      ++next;
      now = engine.Now();
    }
    if (next == intended_ns.size()) {
      if (engine.inflight() == 0) break;
      if (drain_deadline == 0) drain_deadline = now + target.drain_timeout_ns;
      if (now >= drain_deadline) break;
      engine.Pump(drain_deadline - now);
    } else {
      engine.Pump(intended_ns[next] - now);
    }
  }
  engine.Finish();
  return result;
}

LagSummary SummarizeLag(const std::vector<RequestRecord>& records,
                        uint64_t late_ns) {
  LagSummary summary;
  if (records.empty()) return summary;
  size_t late = 0;
  uint64_t max_lag = 0;
  for (const RequestRecord& record : records) {
    const uint64_t lag =
        record.sent_ns > record.intended_ns
            ? record.sent_ns - record.intended_ns
            : 0;
    if (lag > late_ns) ++late;
    max_lag = std::max(max_lag, lag);
  }
  summary.late_frac =
      static_cast<double>(late) / static_cast<double>(records.size());
  summary.max_lag_ms = static_cast<double>(max_lag) / 1e6;
  return summary;
}

}  // namespace perfbench
