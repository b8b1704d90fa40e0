#ifndef PERFBENCH_SERVER_PROCESS_H_
#define PERFBENCH_SERVER_PROCESS_H_

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

/// A `leapme serve` child process. Start() execs it, reads the port it
/// bound from its log, and returns once the `ready` op answers true; the
/// destructor stops it (SIGTERM, then SIGKILL) and reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Launches `binary serve <args> --port 0`. On failure returns false
  /// with the reason (and the server's log) in `*error`.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             std::string* error);

  /// Stops and reaps the server; true when it exited cleanly.
  bool Stop();

  pid_t pid() const { return pid_; }
  int port() const { return port_; }
  /// Seconds from exec to the first `ready`=true reply.
  double setup_s() const { return setup_s_; }
  const std::string& log() const { return log_; }

 private:
  void DrainLog();

  pid_t pid_ = -1;
  int log_fd_ = -1;
  int port_ = 0;
  double setup_s_ = 0.0;
  std::string log_;
};

/// One request/reply round trip on a fresh connection (admin ops such
/// as `stats`); false when the connection or the exchange fails.
bool RoundTrip(int port, const std::string& line, std::string* reply);

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_PROCESS_H_
