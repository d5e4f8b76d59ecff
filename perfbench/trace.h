#ifndef FEDSHAP_PERFBENCH_TRACE_H_
#define FEDSHAP_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// One timed interval around a call into a layer. Spans of one job share
/// `job`; `parent` is the span open on the same thread when this one
/// began (0 = a root).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t job = -1;
  uint32_t thread = 0;
};

/// Process-wide in-memory span buffer. Recording is off until enabled, so
/// the same code runs traced and untraced.
class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool enabled);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Record(const Span& span);
  /// Moves out every span recorded so far.
  std::vector<Span> Take();

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, records on destruction. A job id of
/// -1 inherits the enclosing span's job.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t job = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  bool active_ = false;
  int64_t saved_job_ = -1;
};

/// Per-name totals over a span set: call count, summed duration and
/// summed self time (duration minus the time its child spans cover).
struct SpanTotals {
  size_t count = 0;
  double seconds = 0.0;
  double self_seconds = 0.0;
};
std::map<std::string, SpanTotals> Summarize(const std::vector<Span>& spans);

/// OK when every span lies inside its parent, on the parent's thread.
fedshap::Status CheckNesting(const std::vector<Span>& spans);

/// Writes the spans as Chrome trace-event JSON ("X" events; `pid` is the
/// phase the spans came from), viewable in Perfetto or chrome://tracing.
fedshap::Status WriteChromeTrace(
    const std::vector<std::pair<int, std::vector<Span>>>& phases,
    const std::string& path);

}  // namespace perfbench

#endif  // FEDSHAP_PERFBENCH_TRACE_H_
