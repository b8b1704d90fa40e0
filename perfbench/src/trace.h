#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds (std::chrono::steady_clock).
uint64_t NowNs();

inline constexpr uint32_t kNoParent = UINT32_MAX;

/// One timed call across a layer boundary. Spans of one request share
/// `request`; `parent` is the index of the enclosing span (kNoParent for
/// a root).
struct Span {
  uint32_t name = 0;
  uint32_t parent = kNoParent;
  uint64_t request = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// In-memory span recorder. Spans are appended in begin order and kept
/// until the benchmark writes them out at exit; nothing is recorded while
/// disabled, so the untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Index of `name` in the name table (added on first use).
  uint32_t Intern(std::string_view name);
  const std::string& name(uint32_t id) const { return names_[id]; }

  /// Opens a span now and returns its index (kNoParent when disabled).
  uint32_t Begin(uint32_t name, uint32_t parent, uint64_t request);
  /// Closes span `index` now (no-op for kNoParent).
  void End(uint32_t index);
  /// Records an already-closed span with explicit times.
  uint32_t Add(uint32_t name, uint32_t parent, uint64_t request,
               uint64_t start_ns, uint64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one tab-separated line per span: index, name, parent (-1 for
  /// roots), request, start_ns, end_ns. Returns false on an I/O error.
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, uint32_t name, uint32_t parent,
             uint64_t request)
      : tracer_(tracer), index_(tracer.Begin(name, parent, request)) {}
  ~ScopedSpan() { CloseUs(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t index() const { return index_; }

  /// Closes the span (once) and returns its duration in microseconds;
  /// 0 while the tracer is disabled.
  double CloseUs();

 private:
  Tracer& tracer_;
  uint32_t index_;
  bool closed_ = false;
};

/// Per span: the nanoseconds of its interval that its direct children
/// cover (their union, clipped to the span, so overlapping or straying
/// children are not counted twice).
std::vector<uint64_t> ChildCoveredNs(const std::vector<Span>& spans);

/// Per span: its self time, duration minus ChildCoveredNs.
std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
