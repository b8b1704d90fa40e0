#ifndef LEAPME_WORKLOAD_OPEN_LOOP_H_
#define LEAPME_WORKLOAD_OPEN_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "workload/arrival.h"
#include "common/latency_recorder.h"

namespace leapme::workload {

/// What a single request came back as, from the load generator's point
/// of view. Shed / deadline / degraded mirror the serve layer's overload
/// responses so soak reports can break the mix down.
enum class Outcome {
  kOk,
  kDegraded,
  kShed,      // ResourceExhausted / Unavailable — server refused work.
  kDeadline,  // DeadlineExceeded.
  kError,     // anything else (transport failure, bad response, ...).
};

/// Aggregated result of one open-loop run. The two histograms measure
/// the same responses against two different start clocks:
///  - `service`: from the instant the request was actually sent. This is
///    what a closed-loop client reports, and it silently forgives queue
///    time spent waiting to send.
///  - `intended`: from the schedule's intended send time. When the run
///    falls behind a stalled server, the backlog shows up here — the
///    coordinated-omission-corrected view a real arrival process would
///    experience.
struct OpenLoopResult {
  LatencyRecorder intended;
  LatencyRecorder service;
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t degraded = 0;
  uint64_t shed = 0;
  uint64_t deadline = 0;
  uint64_t errors = 0;
  /// Events fired more than one mean gap after their intended time —
  /// a quick "did the generator keep up" health signal.
  uint64_t late_starts = 0;
  double elapsed_s = 0.0;
};

/// Fires every event of `schedule` at its intended time, partitioned
/// over `threads` client threads by stride (thread t takes events with
/// i % threads == t). `fire(i)` performs the request for event i and
/// classifies the response; it is called concurrently from all threads.
///
/// The schedule is never stretched: if a fire runs long, the thread
/// issues its next events immediately (late) rather than shifting them,
/// and the lateness lands in `result->intended`.
void RunOpenLoop(const ArrivalSchedule& schedule, unsigned threads,
                 const std::function<Outcome(size_t)>& fire,
                 OpenLoopResult* result);

}  // namespace leapme::workload

#endif  // LEAPME_WORKLOAD_OPEN_LOOP_H_
