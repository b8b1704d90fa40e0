#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "tools/line_client.h"
#include "trace.h"

namespace perfbench {

bool RoundTrip(int port, const std::string& line, std::string* reply) {
  leapme::tools::LineClient client("127.0.0.1", port);
  return client.connected() && client.RoundTrip(line, reply);
}

bool ServerProcess::Start(const std::string& binary,
                          const std::vector<std::string>& args,
                          std::string* error) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return false;
  }
  std::vector<std::string> argv_storage = {binary, "serve"};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  argv_storage.push_back("--port");
  argv_storage.push_back("0");
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const uint64_t start = NowNs();
  pid_ = ::fork();
  if (pid_ < 0) {
    *error = "fork failed";
    return false;
  }
  if (pid_ == 0) {
    // The server must not outlive the benchmark.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(pipe_fds[1], STDERR_FILENO);
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) ::dup2(null_fd, STDOUT_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  log_fd_ = pipe_fds[0];

  // The server logs "listening on 127.0.0.1:<port>" once the model is
  // loaded and the catalog indexed.
  const std::string marker = "listening on 127.0.0.1:";
  while (port_ == 0) {
    pollfd pfd = {log_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 120000);
    if (ready < 0 && errno == EINTR) continue;
    char chunk[4096];
    const ssize_t n = ready > 0 ? ::read(log_fd_, chunk, sizeof(chunk)) : 0;
    if (n <= 0) {
      *error = "server exited or hung before listening; log:\n" + log_;
      Stop();
      return false;
    }
    log_.append(chunk, static_cast<size_t>(n));
    const size_t at = log_.find(marker);
    if (at != std::string::npos) {
      port_ = std::atoi(log_.c_str() + at + marker.size());
    }
  }
  std::string reply;
  if (!RoundTrip(port_, "{\"op\":\"ready\",\"id\":1}", &reply) ||
      reply.find("\"ready\":true") == std::string::npos) {
    *error = "server did not report ready: " + reply;
    Stop();
    return false;
  }
  setup_s_ = static_cast<double>(NowNs() - start) / 1e9;
  return true;
}

void ServerProcess::DrainLog() {
  if (log_fd_ < 0) return;
  char chunk[4096];
  while (true) {
    pollfd pfd = {log_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 5000) <= 0) break;
    const ssize_t n = ::read(log_fd_, chunk, sizeof(chunk));
    if (n <= 0) break;
    log_.append(chunk, static_cast<size_t>(n));
  }
  ::close(log_fd_);
  log_fd_ = -1;
}

bool ServerProcess::Stop() {
  if (pid_ <= 0) return true;
  ::kill(pid_, SIGTERM);
  int status = 0;
  bool exited = false;
  // Graceful drain takes well under a second; give it ten.
  for (int i = 0; i < 1000; ++i) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      exited = true;
      break;
    }
    ::usleep(10000);
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  DrainLog();
  pid_ = -1;
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace perfbench
