#include "trace.h"

#include <atomic>
#include <cstdio>
#include <unordered_map>

#include "util/serialization.h"

namespace perfbench {

namespace {

std::atomic<uint64_t> next_span_id{1};
std::atomic<uint32_t> next_thread_id{1};

struct ThreadState {
  uint32_t thread = next_thread_id.fetch_add(1);
  uint64_t open_span = 0;
  int64_t job = -1;
};
thread_local ThreadState current;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_enabled(bool enabled) { enabled_.store(enabled); }

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

ScopedSpan::ScopedSpan(const char* name, int64_t job) {
  if (!Tracer::Get().enabled()) return;
  active_ = true;
  saved_job_ = current.job;
  if (job >= 0) current.job = job;
  span_.name = name;
  span_.id = next_span_id.fetch_add(1);
  span_.parent = current.open_span;
  span_.job = current.job;
  span_.thread = current.thread;
  current.open_span = span_.id;
  span_.start_ns = Tracer::NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = Tracer::NowNs();
  current.open_span = span_.parent;
  current.job = saved_job_;
  Tracer::Get().Record(span_);
}

std::map<std::string, SpanTotals> Summarize(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const Span& span : spans) {
    if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& span : spans) {
    SpanTotals& entry = totals[span.name];
    const int64_t duration = span.end_ns - span.start_ns;
    auto it = child_ns.find(span.id);
    const int64_t children = it == child_ns.end() ? 0 : it->second;
    ++entry.count;
    entry.seconds += duration * 1e-9;
    entry.self_seconds += (duration - children) * 1e-9;
  }
  return totals;
}

fedshap::Status CheckNesting(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, const Span*> by_id;
  for (const Span& span : spans) by_id[span.id] = &span;
  for (const Span& span : spans) {
    if (span.end_ns < span.start_ns) {
      return fedshap::Status::Internal(std::string("span ") + span.name +
                                       " ends before it starts");
    }
    if (span.parent == 0) continue;
    auto it = by_id.find(span.parent);
    if (it == by_id.end()) {
      return fedshap::Status::Internal(std::string("span ") + span.name +
                                       " has no recorded parent");
    }
    const Span& parent = *it->second;
    if (parent.thread != span.thread || span.start_ns < parent.start_ns ||
        span.end_ns > parent.end_ns) {
      return fedshap::Status::Internal(std::string("span ") + span.name +
                                       " escapes its parent " + parent.name);
    }
  }
  return fedshap::Status::OK();
}

fedshap::Status WriteChromeTrace(
    const std::vector<std::pair<int, std::vector<Span>>>& phases,
    const std::string& path) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buffer[320];
  for (const auto& [phase, spans] : phases) {
    for (const Span& span : spans) {
      std::snprintf(buffer, sizeof(buffer),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                    "\"dur\":%.3f,\"pid\":%d,\"tid\":%u,\"args\":{"
                    "\"id\":%llu,\"parent\":%llu,\"job\":%lld}}",
                    first ? "" : ",", span.name, span.start_ns * 1e-3,
                    (span.end_ns - span.start_ns) * 1e-3, phase, span.thread,
                    static_cast<unsigned long long>(span.id),
                    static_cast<unsigned long long>(span.parent),
                    static_cast<long long>(span.job));
      out += buffer;
      first = false;
    }
  }
  out += "\n]}\n";
  return fedshap::WriteFileAtomic(path, out);
}

}  // namespace perfbench
