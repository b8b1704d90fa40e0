// perfbench: runs one benchmark workload and prints its result line.
//
//   perfbench --workload serve-score|offline-match
//             --seed N --seconds S --trace 0|1
//             --leapme PATH_TO_LEAPME_BINARY --work-dir DIR
//
// perfbench/run.py builds the program and this runner, then calls it.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

bool ParseUnsigned(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

int Usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --leapme PATH --work-dir DIR\n",
               problem);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && ParseUnsigned(value, &number)) {
      options.seed = number;
    } else if (flag == "--seconds" && ParseUnsigned(value, &number) &&
               number > 0) {
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
    } else if (flag == "--leapme") {
      options.leapme = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("bad flag " + flag + " " + value).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags come in pairs");
  if (!perfbench::IsWorkload(options.workload)) {
    return Usage("unknown workload");
  }
  if (options.work_dir.empty()) return Usage("--work-dir is required");
  if (options.leapme.empty() && options.workload != "offline-match") {
    return Usage("--leapme is required for serve-score");
  }
  return perfbench::RunWorkload(options);
}
