#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "serve/json.h"

namespace perfbench {

using leapme::serve::JsonValue;

void OutcomeCounts::Add(Outcome outcome) {
  ++sent;
  switch (outcome) {
    case Outcome::kOk: ++ok; break;
    case Outcome::kShed: ++shed; break;
    case Outcome::kDeadline: ++deadline; break;
    case Outcome::kError: ++error; break;
    case Outcome::kNoReply: ++no_reply; break;
    case Outcome::kMalformed: ++malformed; break;
  }
}

std::string OutcomeCounts::ToString() const {
  return "sent=" + std::to_string(sent) + " ok=" + std::to_string(ok) +
         " shed=" + std::to_string(shed) +
         " deadline=" + std::to_string(deadline) +
         " error=" + std::to_string(error) +
         " no_reply=" + std::to_string(no_reply) +
         " malformed=" + std::to_string(malformed);
}

Outcome ClassifyReply(std::string_view reply) {
  if (reply.empty()) return Outcome::kNoReply;
  auto parsed = JsonValue::Parse(reply);
  if (!parsed.ok() || !parsed->is_object()) return Outcome::kMalformed;
  const JsonValue* ok = parsed->Find("ok");
  if (ok == nullptr || !ok->is_bool()) return Outcome::kMalformed;
  if (ok->AsBool()) return Outcome::kOk;
  const JsonValue* error = parsed->Find("error");
  const JsonValue* code =
      error != nullptr && error->is_object() ? error->Find("code") : nullptr;
  if (code == nullptr || !code->is_string()) return Outcome::kMalformed;
  if (code->AsString() == "Unavailable" ||
      code->AsString() == "ResourceExhausted") {
    return Outcome::kShed;
  }
  if (code->AsString() == "DeadlineExceeded") return Outcome::kDeadline;
  return Outcome::kError;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string CheckScoreReply(std::string_view reply,
                            const std::vector<double>& expected,
                            std::vector<double>* scores) {
  scores->clear();
  auto parsed = JsonValue::Parse(reply);
  if (!parsed.ok() || !parsed->is_object()) return "unparseable reply";
  const JsonValue* ok = parsed->Find("ok");
  const JsonValue* values = parsed->Find("scores");
  if (ok == nullptr || !ok->is_bool() || !ok->AsBool() || values == nullptr ||
      !values->is_array()) {
    return "not an ok score reply";
  }
  if (values->AsArray().size() != expected.size()) {
    return "expected " + std::to_string(expected.size()) + " scores, got " +
           std::to_string(values->AsArray().size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    const JsonValue& value = values->AsArray()[i];
    if (!value.is_number() || !std::isfinite(value.AsNumber())) {
      return "score " + std::to_string(i) + " is not a finite number";
    }
    scores->push_back(value.AsNumber());
    if (!SameBits(value.AsNumber(), expected[i])) {
      return "score " + std::to_string(i) + " is " +
             leapme::serve::FormatJsonDouble(value.AsNumber()) +
             ", in-process " + leapme::serve::FormatJsonDouble(expected[i]);
    }
  }
  return "";
}

void Verdict::Fail(const std::string& problem) {
  if (correct) first_problem = problem;
  correct = false;
}

std::vector<std::vector<double>> CheckScorePhase(
    const LoadResult& load, const std::vector<Outcome>& outcomes,
    const std::vector<std::vector<double>>& expected, Verdict* verdict) {
  std::vector<std::vector<double>> scores(load.records.size());
  for (size_t i = 0; i < load.records.size(); ++i) {
    if (outcomes[i] == Outcome::kMalformed) {
      verdict->Fail("malformed reply: " + load.replies[i].substr(0, 200));
      continue;
    }
    if (outcomes[i] != Outcome::kOk) continue;
    const uint32_t line = load.records[i].line;
    const std::string problem =
        CheckScoreReply(load.replies[i], expected[line], &scores[i]);
    if (!problem.empty()) {
      verdict->Fail("score " + std::to_string(line) + ": " + problem);
      scores[i].clear();
    }
  }
  return scores;
}

int Finish(const Verdict& verdict, const std::vector<Metric>& metrics) {
  if (!verdict.correct) {
    std::printf("CHECK FAILED: %s\n", verdict.first_problem.c_str());
  }
  std::printf("%s\n",
              ResultJson(verdict.correct,
                         std::max<uint64_t>(1, verdict.attempted),
                         verdict.failed, metrics)
                  .c_str());
  std::fflush(stdout);
  return verdict.correct ? 0 : 1;
}

}  // namespace perfbench
