#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The q-quantile (0 <= q <= 1) of `values` with linear interpolation
/// between order statistics (numpy's default); 0 for an empty input.
double Quantile(std::vector<double> values, double q);

/// One reported metric: name, measured value and unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line the benchmark prints last:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
/// Values keep all their digits (shortest exact round-trip form).
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

/// user+sys CPU seconds consumed so far by process `pid`, from
/// /proc/<pid>/stat; negative when unreadable.
double ProcessCpuSeconds(pid_t pid);

/// A numeric field of /proc/<pid>/status ("VmHWM" in kB, "Threads");
/// negative when absent.
double ProcessStatusField(pid_t pid, const std::string& field);

/// Host facts recorded in every report.
struct HostFacts {
  std::string cpu_model;
  unsigned nproc = 0;
};
HostFacts ReadHostFacts();

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
