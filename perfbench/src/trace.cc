#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint32_t Tracer::Intern(std::string_view name) {
  for (uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

uint32_t Tracer::Begin(uint32_t name, uint32_t parent, uint64_t request) {
  if (!enabled_) return kNoParent;
  spans_.push_back(Span{name, parent, request, NowNs(), 0});
  return static_cast<uint32_t>(spans_.size() - 1);
}

void Tracer::End(uint32_t index) {
  if (index == kNoParent) return;
  spans_[index].end_ns = NowNs();
}

uint32_t Tracer::Add(uint32_t name, uint32_t parent, uint64_t request,
                     uint64_t start_ns, uint64_t end_ns) {
  if (!enabled_) return kNoParent;
  spans_.push_back(Span{name, parent, request, start_ns, end_ns});
  return static_cast<uint32_t>(spans_.size() - 1);
}

double ScopedSpan::CloseUs() {
  if (index_ == kNoParent) return 0.0;
  if (!closed_) {
    tracer_.End(index_);
    closed_ = true;
  }
  const Span& span = tracer_.spans()[index_];
  return static_cast<double>(span.end_ns - span.start_ns) / 1e3;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "index\tname\tparent\trequest\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out, "%zu\t%s\t%lld\t%llu\t%llu\t%llu\n", i,
                 names_[span.name].c_str(),
                 span.parent == kNoParent ? -1LL
                                          : static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.end_ns));
  }
  return std::fclose(out) == 0;
}

std::vector<uint64_t> ChildCoveredNs(const std::vector<Span>& spans) {
  // Children's intervals, clipped to their parent, grouped by parent.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent == kNoParent || span.parent >= spans.size()) continue;
    const Span& parent = spans[span.parent];
    const uint64_t begin = std::max(span.start_ns, parent.start_ns);
    const uint64_t end = std::min(span.end_ns, parent.end_ns);
    if (end > begin) children[span.parent].emplace_back(begin, end);
  }
  std::vector<uint64_t> covered(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    uint64_t total = 0;
    uint64_t run_begin = 0;
    uint64_t run_end = 0;
    bool open = false;
    for (const auto& [begin, end] : intervals) {
      if (open && begin <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) total += run_end - run_begin;
      run_begin = begin;
      run_end = end;
      open = true;
    }
    if (open) total += run_end - run_begin;
    covered[i] = total;
  }
  return covered;
}

std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<uint64_t> self = ChildCoveredNs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t duration = spans[i].end_ns > spans[i].start_ns
                                  ? spans[i].end_ns - spans[i].start_ns
                                  : 0;
    self[i] = duration - std::min(duration, self[i]);
  }
  return self;
}

}  // namespace perfbench
