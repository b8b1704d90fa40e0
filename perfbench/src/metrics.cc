#include "metrics.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "serve/json.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<size_t>(std::floor(position));
  const size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * fraction;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ',';
    leapme::serve::AppendJsonString(&out, metrics[i].name);
    out += ":{\"value\":";
    // A non-finite value is not JSON; report it as 0 (the run is then
    // marked incorrect by the caller's own checks).
    out += std::isfinite(metrics[i].value)
               ? leapme::serve::FormatJsonDouble(metrics[i].value)
               : std::string("0");
    out += ",\"unit\":";
    leapme::serve::AppendJsonString(&out, metrics[i].unit);
    out += '}';
  }
  out += "}}";
  return out;
}

double ProcessCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // The command name may hold spaces; fields resume after its ')'.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  // Fields 3..13 precede utime (14) and stime (15).
  for (int i = 3; i <= 13 && (fields >> field); ++i) {
  }
  double utime = 0.0;
  double stime = 0.0;
  if (!(fields >> utime >> stime)) return -1.0;
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ProcessStatusField(pid_t pid, const std::string& field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  const std::string prefix = field + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::stod(line.substr(prefix.size()));
    }
  }
  return -1.0;
}

HostFacts ReadHostFacts() {
  HostFacts facts;
  facts.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 10, "model name") == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) facts.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  return facts;
}

}  // namespace perfbench
