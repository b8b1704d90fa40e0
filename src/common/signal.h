#ifndef LEAPME_COMMON_SIGNAL_H_
#define LEAPME_COMMON_SIGNAL_H_

namespace leapme {

/// Installs SIGINT/SIGTERM handlers (first call only) that mark shutdown
/// as requested and write one byte to a self-pipe, and returns the read
/// end of that pipe (non-blocking). Poll/select on the fd to wake an
/// event loop when a signal arrives. Readability is a wakeup, not a
/// verdict: SIGHUP reload requests share the pipe, so a woken loop must
/// drain the fd and consult ShutdownRequested() / ConsumeReloadRequest()
/// to learn which event fired (the flags stay set even after a drain).
/// The handlers are async-signal-safe (a write(2) on the pipe). Returns
/// -1 if the pipe cannot be created.
int ShutdownSignalFd();

/// True once SIGINT or SIGTERM has been received. Safe to call from any
/// thread.
bool ShutdownRequested();

/// Installs the SIGHUP handler (first call only): marks a model reload
/// as requested and wakes the shared self-pipe, so a serving loop parked
/// on ShutdownSignalFd() notices without polling. Call before serving.
void InstallReloadSignalHandler();

/// True exactly once per SIGHUP since the last call — the flag is
/// consumed, so coalesced signals trigger one reload. Safe to call from
/// any thread.
bool ConsumeReloadRequest();

}  // namespace leapme

#endif  // LEAPME_COMMON_SIGNAL_H_
