#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

/// One request as the generator saw it. Times are nanoseconds from the
/// start of the phase.
struct RequestRecord {
  /// Index into the phase's pre-rendered request lines.
  uint32_t line = 0;
  /// When the request was due: its slot in the schedule.
  uint64_t intended_ns = 0;
  /// When its first byte was handed to the socket.
  uint64_t sent_ns = 0;
  /// When its reply line was complete (0 = no reply).
  uint64_t done_ns = 0;
  bool replied = false;
};

struct LoadResult {
  /// In send order; `replies[i]` is the reply line of `records[i]`
  /// (without its newline, empty when none came).
  std::vector<RequestRecord> records;
  std::vector<std::string> replies;
  /// Wall time from the phase start to the last reply (or give-up).
  uint64_t elapsed_ns = 0;
  /// Set when a connection failed; the remaining requests never replied.
  std::string error;
};

struct LoadTarget {
  std::string host = "127.0.0.1";
  int port = 0;
  /// Connections opened (the generator never uses more than nproc).
  size_t connections = 1;
  /// How long to wait for outstanding replies after the last send.
  uint64_t drain_timeout_ns = 10'000'000'000ULL;
  /// Acknowledge every reply segment at once (TCP_QUICKACK, re-armed
  /// after each read) instead of the kernel's delayed ACK. The server
  /// writes replies without TCP_NODELAY, so with delayed ACKs a reply can
  /// wait for the client's next segment and latency follows the client's
  /// send gaps, not the server; README.md, "Finding".
  bool quick_ack = true;
  /// When non-null and enabled, every completed request is recorded as a
  /// root span named `span_name` carrying its record index as request id.
  Tracer* tracer = nullptr;
  std::string span_name = "workload.request";
};

/// Open loop from one thread over non-blocking sockets: request i
/// (`lines[i]`, each ending in '\n') is sent at `intended_ns[i]` after
/// the phase start on connection i mod `connections`, whatever the state
/// of earlier requests (pipelined behind them when one is outstanding).
LoadResult RunOpenLoop(const LoadTarget& target,
                       const std::vector<std::string>& lines,
                       const std::vector<uint64_t>& intended_ns);

/// Generator lag summary: sends more than `late_ns` after their intended
/// time, and the worst lag, over the records that were sent.
struct LagSummary {
  double late_frac = 0.0;
  double max_lag_ms = 0.0;
};
LagSummary SummarizeLag(const std::vector<RequestRecord>& records,
                        uint64_t late_ns = 1'000'000);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
