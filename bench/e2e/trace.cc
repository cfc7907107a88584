#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>

namespace d2pr::e2e {

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> spans = Snapshot();
  std::unique_ptr<FILE, int (*)(FILE*)> file(std::fopen(path.c_str(), "w"),
                                             &std::fclose);
  if (!file) return false;
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& span : spans) origin = std::min(origin, span.start_ns);
  std::fprintf(file.get(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(file.get(),
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"arg\":%lld}}\n",
                 i == 0 ? "" : ",", s.name, s.layer, s.tid,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.arg));
  }
  std::fprintf(file.get(), "]}\n");
  return std::ferror(file.get()) == 0;
}

double Tracer::MeasureRecordCostNs() {
  constexpr int kSpans = 20000;
  Tracer scratch;
  const int64_t t0 = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    Span span{"probe", "bench", NowNs(), 0, 0, 0, ThreadTag(), 0};
    span.end_ns = NowNs();
    scratch.Record(span);
  }
  return static_cast<double>(NowNs() - t0) / kSpans;
}

Tracer& GlobalTracer() {
  static Tracer* tracer = new Tracer();  // never destroyed: threads may
                                         // record until process exit
  return *tracer;
}

uint32_t ThreadTag() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t tag = next.fetch_add(1) + 1;
  return tag;
}

std::vector<Span> SpansNamed(const std::vector<Span>& spans,
                             const std::string& name, int64_t from_ns,
                             int64_t to_ns) {
  std::vector<Span> out;
  for (const Span& span : spans) {
    if (name == span.name && span.start_ns >= from_ns &&
        span.start_ns < to_ns) {
      out.push_back(span);
    }
  }
  return out;
}

std::vector<double> DurationsMs(const std::vector<Span>& spans) {
  std::vector<double> out;
  out.reserve(spans.size());
  for (const Span& span : spans) out.push_back(span.ms());
  return out;
}

double TraceOverheadRatio(size_t span_count, int64_t wall_ns) {
  if (wall_ns <= 0) return 0.0;
  return static_cast<double>(span_count) * Tracer::MeasureRecordCostNs() /
         static_cast<double>(wall_ns);
}

}  // namespace d2pr::e2e
