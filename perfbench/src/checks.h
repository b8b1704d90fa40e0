#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "loadgen.h"
#include "metrics.h"

namespace perfbench {

/// How the server answered one request.
enum class Outcome { kOk, kShed, kDeadline, kError, kNoReply, kMalformed };

/// Reply counts of one phase.
struct OutcomeCounts {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t deadline = 0;
  uint64_t error = 0;
  uint64_t no_reply = 0;
  uint64_t malformed = 0;

  void Add(Outcome outcome);
  uint64_t failed() const { return sent - ok; }
  std::string ToString() const;
};

/// Classifies a reply line: ok:true, or the error code of ok:false
/// (Unavailable / ResourceExhausted = shed, DeadlineExceeded = deadline).
/// An empty line means no reply came; unparseable JSON is malformed.
Outcome ClassifyReply(std::string_view reply);

/// True when `a` and `b` have the same bit pattern.
bool SameBits(double a, double b);

/// Checks an ok `score` reply against the in-process scores: one finite
/// score per pair, each bit-identical. Returns "" when it matches, else
/// what differs. Fills `scores` with the reply's scores.
std::string CheckScoreReply(std::string_view reply,
                            const std::vector<double>& expected,
                            std::vector<double>* scores);

/// What a run prints last: whether every check passed, and how many
/// operations it attempted and how many of them failed.
struct Verdict {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_problem;

  void Fail(const std::string& problem);
};

/// Checks every reply of a `score` phase: a malformed reply fails
/// `verdict`, and so does an ok reply that differs from `expected`, the
/// in-process scores of each request line. Returns the checked scores of
/// each record (empty for requests that did not come back ok).
std::vector<std::vector<double>> CheckScorePhase(
    const LoadResult& load, const std::vector<Outcome>& outcomes,
    const std::vector<std::vector<double>>& expected, Verdict* verdict);

/// Prints `CHECK FAILED: ...` when a check failed, then the result line.
/// Returns the exit code: 0 when every check passed, else 1.
int Finish(const Verdict& verdict, const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
