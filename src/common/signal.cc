#include "common/signal.h"

#include <csignal>
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <mutex>

namespace leapme {
namespace {

std::atomic<bool> g_shutdown_requested{false};
std::atomic<bool> g_reload_requested{false};
// Self-pipe; write end is used from the signal handler, so both fds are
// plain ints set up once and never closed.
std::atomic<int> g_pipe_read{-1};
std::atomic<int> g_pipe_write{-1};

void WakeSignalPipe() {
  const int fd = g_pipe_write.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    // A full pipe already wakes the poller; ignore the result.
    [[maybe_unused]] ssize_t n = ::write(fd, &byte, 1);
  }
}

void OnShutdownSignal(int /*signum*/) {
  g_shutdown_requested.store(true, std::memory_order_relaxed);
  WakeSignalPipe();
}

void OnReloadSignal(int /*signum*/) {
  g_reload_requested.store(true, std::memory_order_relaxed);
  WakeSignalPipe();
}

void InstallOnce() {
  static std::once_flag once;
  std::call_once(once, [] {
    int fds[2];
    if (::pipe(fds) != 0) {
      return;
    }
    // Non-blocking read end: pollers drain the pipe after a wakeup (the
    // shutdown/reload flags, not the bytes, carry the event), and a
    // drain must never park the loop.
    ::fcntl(fds[0], F_SETFL, ::fcntl(fds[0], F_GETFL) | O_NONBLOCK);
    g_pipe_read.store(fds[0], std::memory_order_relaxed);
    g_pipe_write.store(fds[1], std::memory_order_relaxed);
    struct sigaction action = {};
    action.sa_handler = OnShutdownSignal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART;
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);
  });
}

}  // namespace

int ShutdownSignalFd() {
  InstallOnce();
  return g_pipe_read.load(std::memory_order_relaxed);
}

bool ShutdownRequested() {
  return g_shutdown_requested.load(std::memory_order_relaxed);
}

void InstallReloadSignalHandler() {
  InstallOnce();
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction action = {};
    action.sa_handler = OnReloadSignal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART;
    ::sigaction(SIGHUP, &action, nullptr);
  });
}

bool ConsumeReloadRequest() {
  return g_reload_requested.exchange(false, std::memory_order_relaxed);
}

}  // namespace leapme
