// Spans recorded by the benchmark around the public seams of each layer,
// from outside the library: a decorating RankBackend, a decorating
// ShardChannel, the BlockParallelFor hook, and link-time wraps of
// TransitionMatrix::Build / SolvePagerank (trace_wraps.cc). Spans stay in
// memory and are written once, as Chrome trace-event JSON, when the run
// ends. Only the e2e_bench_trace binary records any; in e2e_bench kTraced
// is false and the workloads install no decorator.

#ifndef D2PR_BENCH_E2E_TRACE_H_
#define D2PR_BENCH_E2E_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace d2pr::e2e {

#ifdef D2PR_E2E_TRACE
inline constexpr bool kTraced = true;
#else
inline constexpr bool kTraced = false;
#endif

struct Span {
  const char* name = "";   ///< Static string: the seam that was timed.
  const char* layer = "";  ///< Static string: the module it belongs to.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// One id per backend call, per solve or per sweep point; 0 = none.
  uint64_t id = 0;
  uint64_t parent = 0;
  uint32_t tid = 0;
  /// Seam-specific payload (shard index, iterations, bytes, ...).
  int64_t arg = 0;

  double ms() const { return NsToMs(end_ns - start_ns); }
};

class Tracer {
 public:
  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }

  void Record(const Span& span);
  std::vector<Span> Snapshot() const;
  size_t size() const;

  /// The span that library-internal seams (the link-time wraps) parent
  /// to: the current sweep repetition or solve. 0 = none.
  void SetRoot(uint64_t id) { root_.store(id); }
  uint64_t root() const { return root_.load(); }

  /// Writes every span as Chrome trace-event JSON (open in Perfetto).
  bool WriteChromeTrace(const std::string& path) const;

  /// Wall-clock cost of recording one span (two clock reads plus the
  /// locked append), measured on a throwaway tracer.
  static double MeasureRecordCostNs();

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> root_{0};
};

Tracer& GlobalTracer();

/// Small stable id of the calling thread, for the trace's tid column.
uint32_t ThreadTag();

/// Times its own lifetime and records it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* layer, uint64_t parent,
             uint64_t id = 0)
      : span_{name, layer, NowNs(), 0, id, parent, ThreadTag(), 0} {}
  ~ScopedSpan() {
    span_.end_ns = NowNs();
    GlobalTracer().Record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_arg(int64_t arg) { span_.arg = arg; }

 private:
  Span span_;
};

/// The spans called `name` that started in [from_ns, to_ns).
std::vector<Span> SpansNamed(const std::vector<Span>& spans,
                             const std::string& name, int64_t from_ns,
                             int64_t to_ns);

/// Their durations in milliseconds.
std::vector<double> DurationsMs(const std::vector<Span>& spans);

/// Share of `wall_ns` spent recording `span_count` spans.
double TraceOverheadRatio(size_t span_count, int64_t wall_ns);

}  // namespace d2pr::e2e

#endif  // D2PR_BENCH_E2E_TRACE_H_
