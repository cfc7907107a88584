// Entry point of one benchmark process: runs one workload and prints its
// report as a single JSON line on stdout (bench/e2e/run.py reads it).
//
//   e2e_bench --workload=serve_zipf_full --seed=1 --seconds=20
//             [--smoke] [--work-dir=DIR] [--trace-out=FILE]
//
// Exit code: 0 when every output check passed, 1 when one failed, 2 on a
// usage error or a build that is not optimized.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "common.h"
#include "common/flags.h"
#include "trace.h"

namespace d2pr::e2e {
namespace {

#ifdef NDEBUG
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// All digits; null for a non-finite value (run.py rejects those).
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char text[32];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& metric : metrics) {
    if (out.size() > 1) out += ',';
    out += JsonString(metric.name);
    out += ":{\"value\":";
    out += JsonNumber(metric.value);
    out += ",\"unit\":";
    out += JsonString(metric.unit);
    out += '}';
  }
  return out + "}";
}

template <typename T>
std::string JsonObject(const std::vector<std::pair<std::string, T>>& items) {
  std::string out = "{";
  for (const auto& [key, value] : items) {
    if (out.size() > 1) out += ',';
    out += JsonString(key);
    out += ':';
    out += JsonNumber(static_cast<double>(value));
  }
  return out + "}";
}

std::string ToJson(const std::string& workload, const Report& report) {
  std::string failures = "[";
  for (const std::string& failure : report.failures) {
    if (failures.size() > 1) failures += ',';
    failures += JsonString(failure);
  }
  failures += "]";
  return "{\"workload\":" + JsonString(workload) +
         ",\"correct\":" + (report.correct ? "true" : "false") +
         ",\"attempted\":" + std::to_string(report.attempted) +
         ",\"failed\":" + std::to_string(report.failed) +
         ",\"failures\":" + failures +
         ",\"metrics\":" + JsonMetrics(report.metrics) +
         ",\"layer_metrics\":" + JsonMetrics(report.layer) +
         ",\"samples\":" + JsonObject(report.samples) +
         ",\"info\":" + JsonObject(report.info) + "}";
}

int Run(int argc, char** argv) {
  // One malloc arena for every thread. With one per thread, memory a
  // thread frees stays resident in its arena, and which threads get which
  // arena differs from run to run: peak RSS then varies by a third
  // between identical runs.
  mallopt(M_ARENA_MAX, 1);
  if (!kOptimizedBuild) {
    std::fprintf(stderr,
                 "e2e_bench: refusing to measure a build without NDEBUG; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n");
    return 2;
  }
  auto flags = Flags::Parse(argc - 1, argv + 1);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  for (const std::string& name : flags->FlagNames()) {
    if (name != "workload" && name != "seed" && name != "seconds" &&
        name != "smoke" && name != "work-dir" && name != "trace-out") {
      std::fprintf(stderr, "e2e_bench: unknown flag --%s\n", name.c_str());
      return 2;
    }
  }
  const std::map<std::string, Report (*)(const Options&)> workloads = {
      {"serve_zipf_full", &RunServeZipfFull},
      {"serve_uniform_topk", &RunServeUniformTopK},
      {"sweep_p_grid", &RunSweepPGrid},
      {"cluster_power", &RunClusterPower}};
  Options options;
  options.workload = flags->GetString("workload");
  auto seed = flags->GetInt("seed", 1);
  auto seconds = flags->GetDouble("seconds", 20.0);
  auto smoke = flags->GetBool("smoke", false);
  const auto workload = workloads.find(options.workload);
  if (workload == workloads.end() || !seed.ok() || !seconds.ok() ||
      !smoke.ok() || *seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload=serve_zipf_full|"
                 "serve_uniform_topk|sweep_p_grid|cluster_power --seed=N "
                 "--seconds=S [--smoke] [--work-dir=DIR] [--trace-out=FILE]\n");
    return 2;
  }
  options.seed = static_cast<uint64_t>(*seed);
  options.seconds = *seconds;
  options.smoke = *smoke;
  options.work_dir =
      flags->GetString("work-dir", ".e2e-work-" + options.workload);
  options.trace_out = flags->GetString("trace-out");

  const Report report = workload->second(options);
  if (kTraced && !options.trace_out.empty() &&
      !GlobalTracer().WriteChromeTrace(options.trace_out)) {
    std::fprintf(stderr, "e2e_bench: cannot write %s\n",
                 options.trace_out.c_str());
    return 2;
  }
  std::printf("%s\n", ToJson(options.workload, report).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace d2pr::e2e

int main(int argc, char** argv) { return d2pr::e2e::Run(argc, argv); }
