#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed phase.
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// The `leapme` binary serve-score launches.
  std::string leapme;
  /// Scratch directory for fixtures and the span dump.
  std::string work_dir;
};

/// True for serve-score and offline-match.
bool IsWorkload(const std::string& name);

/// Runs one workload: prints a report, then the result line last.
/// Returns the process exit code (non-zero when a check failed).
int RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
