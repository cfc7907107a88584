// sweep_p_grid: the paper's own workload. Each repetition takes a cold
// D2prEngine over a 10k-node Barabási–Albert graph (m = 8, 160k arcs)
// and runs SweepP over PaperPGrid(): 17 points from p = -4 to +4, global
// power iteration, alpha 0.85, tolerance 1e-10. That is 17 transition
// builds (cache writes) interleaved with warm-started power kernels,
// no network. The working set (~2.2 MB: CSR, one transition, iterates)
// is about one core's L2; see README.md for why the benchmark keeps its
// working sets there. The process runs on one CPU.
//
// Set-up (setup_s) is the graph plus a cold engine's first solve. The
// unit of work is one cold 17-point sweep. Checks: every point
// converges; repetitions are bitwise identical; the p = 0 point is within
// 1e-8 (L1) of a cold SolvePagerank; and the paper's result holds —
// Spearman(in-degree, score) >= 0.85 at p = 0 and < 0 at p = +4.

#include <cmath>
#include <memory>
#include <vector>

#include "api/engine.h"
#include "common/binary_io.h"
#include "common/rng.h"
#include "common.h"
#include "core/pagerank.h"
#include "core/sweeps.h"
#include "core/transition.h"
#include "datagen/classic_generators.h"
#include "stats/correlation.h"
#include "trace.h"

namespace d2pr::e2e {
namespace {

constexpr int32_t kEdgesPerNode = 8;
constexpr int kSetupReps = 21;
constexpr int kMinReps = 3;

D2prOptions SweepBase() {
  D2prOptions base;
  base.alpha = 0.85;
  base.tolerance = 1e-10;
  return base;
}

PagerankOptions SolverOptions() {
  PagerankOptions options;
  options.alpha = 0.85;
  options.tolerance = 1e-10;
  return options;
}

/// Bytes one power iteration touches, computed from the array sizes the
/// kernel streams (TransitionMatrix::Multiply plus the dangling, blend
/// and residual passes of SolvePagerankFrom): per arc a target id, a
/// probability and a read-modify-write of the output; per node the
/// offsets, the fill, the input, the teleport blend and the residual.
double BytesPerIteration(const CsrGraph& graph) {
  const double arcs = static_cast<double>(graph.num_arcs());
  const double nodes = static_cast<double>(graph.num_nodes());
  return arcs * (sizeof(NodeId) + 2 * sizeof(double) + sizeof(double)) +
         nodes * (sizeof(EdgeIndex) + 7 * sizeof(double));
}

double L1Distance(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += std::abs(a[i] - b[i]);
  return sum;
}

}  // namespace

Report RunSweepPGrid(const Options& options) {
  Report result;
  const NodeId nodes = options.smoke ? 2000 : 10000;
  const std::vector<double> grid = PaperPGrid();
  // One thread does all the work; kept on one CPU, it never refills a
  // cold L2 after a migration.
  PinToLastCpu();

  // Set-up runs up to the first solve: graph, a cold engine, and its first
  // transition build and power solve (the grid's first point).
  std::shared_ptr<const CsrGraph> graph;
  const double setup_s = MedianSetupSeconds(
      kSetupReps, [&] { graph.reset(); },
      [&] {
        Rng rng(SubSeed(options.seed, 1));
        auto built = BarabasiAlbert(nodes, kEdgesPerNode, &rng);
        result.Check(built.ok(),
                     "graph generation: " + built.status().ToString());
        if (!built.ok()) return;
        graph = std::make_shared<const CsrGraph>(std::move(built).value());
        D2prEngine engine(graph);
        auto first = SweepP(engine, {grid.front()}, SweepBase());
        result.Check(first.ok() && first->size() == 1 &&
                         first->front().result.converged,
                     "set-up solve at p=" + std::to_string(grid.front()) +
                         " failed or did not converge");
      });
  if (graph == nullptr) return result;

  const int64_t run_start = NowNs();
  const int64_t run_deadline =
      run_start + static_cast<int64_t>(options.seconds * 1e9);
  const size_t spans_before = GlobalTracer().size();
  std::vector<double> sweep_ms;
  std::vector<uint64_t> rep_ids;
  std::vector<int64_t> rep_iterations;
  std::vector<int64_t> rep_builds;
  uint64_t first_checksum = 0;
  std::vector<double> scores_p0;
  std::vector<double> scores_p4;
  while (static_cast<int>(sweep_ms.size()) < kMinReps ||
         NowNs() < run_deadline) {
    D2prEngine engine(graph);
    const uint64_t rep_id = kTraced ? GlobalTracer().NewId() : 0;
    GlobalTracer().SetRoot(rep_id);
    const int64_t t0 = NowNs();
    auto points = SweepP(engine, grid, SweepBase());
    const int64_t t1 = NowNs();
    GlobalTracer().SetRoot(0);
    if (kTraced) {
      GlobalTracer().Record({"SweepP", "api", t0, t1, rep_id, 0, ThreadTag(),
                             static_cast<int64_t>(sweep_ms.size())});
    }
    result.attempted += static_cast<int64_t>(grid.size());
    if (!points.ok() || points->size() != grid.size()) {
      result.failed += static_cast<int64_t>(grid.size());
      result.Check(false, "SweepP: " + points.status().ToString());
      break;
    }
    sweep_ms.push_back(NsToMs(t1 - t0));
    rep_ids.push_back(rep_id);
    rep_iterations.push_back(engine.stats().solver_iterations.load());
    rep_builds.push_back(engine.stats().transition_builds.load());

    uint64_t checksum = 0;
    for (const SweepPoint& point : *points) {
      result.Check(point.result.converged,
                   "sweep point p=" + std::to_string(point.parameter) +
                       " did not converge");
      checksum = Checksum64(point.result.scores.data(),
                            point.result.scores.size() * sizeof(double),
                            checksum ^ 0x9e3779b97f4a7c15ULL);
      if (point.parameter == 0.0) scores_p0 = point.result.scores;
      if (point.parameter == 4.0) scores_p4 = point.result.scores;
    }
    if (sweep_ms.size() == 1) first_checksum = checksum;
    result.Check(checksum == first_checksum,
                 "sweep repetition is not bitwise identical to the first");
  }
  const int64_t run_end = NowNs();
  if (sweep_ms.empty()) return result;

  // The p = 0 point against an independent cold solve.
  auto transition = TransitionMatrix::Build(*graph, {});
  auto cold = transition.ok()
                  ? SolvePagerank(*graph, *transition, SolverOptions())
                  : Result<PagerankResult>(transition.status());
  result.Check(cold.ok() && scores_p0.size() == cold->scores.size() &&
                   L1Distance(scores_p0, cold->scores) <= 1e-8,
               "p=0 sweep point differs from a cold SolvePagerank by > 1e-8");

  // The paper's relationship between node degree and significance.
  std::vector<double> in_degree;
  for (EdgeIndex d : graph->InDegrees()) {
    in_degree.push_back(static_cast<double>(d));
  }
  const double rho_p0 = SpearmanCorrelation(in_degree, scores_p0);
  const double rho_p4 = SpearmanCorrelation(in_degree, scores_p4);
  result.Check(rho_p0 >= 0.85, "Spearman(in-degree, score) at p=0 is " +
                                   std::to_string(rho_p0) + ", want >= 0.85");
  result.Check(rho_p4 < 0.0, "Spearman(in-degree, score) at p=+4 is " +
                                 std::to_string(rho_p4) + ", want < 0");

  double total_ms = 0.0;
  for (double ms : sweep_ms) total_ms += ms;
  result.Add("setup_s", setup_s, "s");
  result.Add("latency_p50_ms", Median(sweep_ms), "ms");
  result.Add("latency_p90_ms", TailPercentile(sweep_ms, 0.9), "ms");
  result.Add("throughput_per_s",
             static_cast<double>(grid.size() * sweep_ms.size()) /
                 (total_ms / 1e3),
             "1/s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.samples = {{"sweeps", static_cast<int64_t>(sweep_ms.size())},
                    {"points_per_sweep", static_cast<int64_t>(grid.size())},
                    {"setup_reps", kSetupReps}};
  result.info = {{"nodes", graph->num_nodes()},
                 {"arcs", static_cast<double>(graph->num_arcs())},
                 {"spearman_indegree_p0", rho_p0},
                 {"spearman_indegree_p4", rho_p4}};

  if (kTraced) {
    // Per repetition: build time and power-kernel time from the wrapped
    // seams, parented to that repetition's SweepP span.
    const std::vector<Span> spans = GlobalTracer().Snapshot();
    std::vector<double> build_sum_ms;
    std::vector<double> iter_ms;
    double kernel_ms = 0.0;
    int64_t kernel_iterations = 0;
    for (uint64_t rep_id : rep_ids) {
      double builds = 0.0;
      for (const Span& span : spans) {
        if (span.parent != rep_id) continue;
        if (std::string(span.name) == "TransitionMatrix::Build") {
          builds += span.ms();
        } else if (std::string(span.name) == "SolvePagerank" &&
                   span.arg > 0) {
          iter_ms.push_back(span.ms() / static_cast<double>(span.arg));
          kernel_ms += span.ms();
          kernel_iterations += span.arg;
        }
      }
      build_sum_ms.push_back(builds);
    }
    result.AddLayer("core.transition_build_ms.sum", Median(build_sum_ms),
                    "ms");
    result.AddLayer("api.transition_builds",
                    Median(std::vector<double>(rep_builds.begin(),
                                               rep_builds.end())),
                    "count");
    result.AddLayer("core.power_iter_ms.p50", Percentile(iter_ms, 0.5), "ms");
    result.AddLayer("core.power_gbps_computed",
                    kernel_ms > 0 ? static_cast<double>(kernel_iterations) *
                                        BytesPerIteration(*graph) /
                                        (kernel_ms * 1e6)
                                  : 0.0,
                    "GB/s");
    result.AddLayer("api.sweep_iterations",
                    Median(std::vector<double>(rep_iterations.begin(),
                                               rep_iterations.end())),
                    "count");
    result.AddLayer("bench.trace_overhead_ratio",
                    TraceOverheadRatio(GlobalTracer().size() - spans_before,
                                       run_end - run_start),
                    "ratio");

    // What warm starts save: the same 17 points solved cold.
    int64_t cold_iterations = 0;
    for (double p : grid) {
      TransitionConfig config;
      config.p = p;
      auto matrix = TransitionMatrix::Build(*graph, config);
      if (!matrix.ok()) continue;
      auto solved = SolvePagerank(*graph, *matrix, SolverOptions());
      if (solved.ok()) cold_iterations += solved->iterations;
    }
    result.AddLayer("core.cold_iterations",
                    static_cast<double>(cold_iterations), "count");
  }
  return result;
}

}  // namespace d2pr::e2e
