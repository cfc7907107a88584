// d2pr_rank: command-line degree de-coupled PageRank over the D2prEngine.
//
// Rank the nodes of an edge-list graph:
//   d2pr_rank --graph=edges.txt [--directed] [--weighted]
//             [--p=0.5] [--alpha=0.85] [--beta=0] [--top=20]
//             [--method=power|gauss-seidel|forward-push]
//             [--seeds=3,17] [--scores-out=scores.txt]
//
// Auto-tune p against an external significance file (one value per line):
//   d2pr_rank --graph=edges.txt --tune --significance=sig.txt
//
// Exercise the serving runtime (repeat the query on a worker pool):
//   d2pr_rank --graph=edges.txt --threads=4 --repeat=64
//
// Edge-partitioned serving: shard the graph itself into per-shard
// subgraphs and solve by block iteration with cross-shard mass exchange:
//   d2pr_rank --graph=edges.txt --partition=range --shards=4
//
// Print structural statistics:
//   d2pr_rank --graph=edges.txt --stats

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "api/engine.h"
#include "common/flags.h"
#include "common/timer.h"
#include "common/string_util.h"
#include "core/tuner.h"
#include "d2pr_rank_flags.h"
#include "graph/graph_io.h"
#include "graph/graph_metrics.h"
#include "graph/graph_stats.h"
#include "graph/partition.h"
#include "serve/engine_router.h"
#include "serve/serving_runtime.h"
#include "stats/ranking.h"

namespace d2pr {
namespace {

constexpr char kUsage[] =
    "usage: d2pr_rank --graph=EDGELIST [options]\n"
    "  --directed           treat the edge list as directed arcs\n"
    "  --weighted           read a third column of edge weights\n"
    "  --p=FLOAT            degree de-coupling weight (default 0)\n"
    "  --alpha=FLOAT        residual probability (default 0.85)\n"
    "  --beta=FLOAT         connection-strength blend, weighted graphs\n"
    "  --top=N              print the N best nodes (default 20)\n"
    "  --top-k=K            serve a truncated top-K response: with\n"
    "                       --method=forward-push, a degree-pruned\n"
    "                       bounded push with certified set membership;\n"
    "                       exact solvers solve fully and truncate.\n"
    "                       Excludes --tune, --partition, --scores-out,\n"
    "                       and --top\n"
    "  --method=NAME        solver: power (default), gauss-seidel,\n"
    "                       or forward-push\n"
    "  --seeds=a,b,...      personalized teleportation on these nodes\n"
    "                       (not combinable with --tune)\n"
    "  --scores-out=FILE    write all scores, one per line\n"
    "  --tune               search p maximizing Spearman correlation\n"
    "  --significance=FILE  per-node values, required by --tune\n"
    "  --threads=N          serve the query on an N-worker runtime\n"
    "  --repeat=K           execute the final query K times (with\n"
    "                       --threads/--partition: as one batch)\n"
    "  --partition=SCHEME   edge-partitioned serving: split the graph\n"
    "                       into per-shard subgraphs (range or hash)\n"
    "                       and solve by block iteration with\n"
    "                       cross-shard mass exchange; requires\n"
    "                       --shards, excludes --tune, --top-k and\n"
    "                       --method=forward-push\n"
    "  --shards=N           shard count of --partition (required by\n"
    "                       and only valid with it)\n"
    "  --cache-dir=DIR      persistent transition store: built matrices\n"
    "                       spill to DIR and later runs map them back\n"
    "                       instead of rebuilding\n"
    "  --cache-mode=MODE    store access, requires --cache-dir:\n"
    "                       off, read, write, or rw (default)\n"
    "  --stats              print structural statistics and exit\n";

int UsageError(const char* message) {
  std::fprintf(stderr, "%s\n%s", message, kUsage);
  return 2;
}

Result<std::vector<double>> ReadValuesFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError(StrCat("cannot open: ", path));
  std::vector<double> values;
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    double value = 0.0;
    if (!ParseDouble(stripped, &value)) {
      return Status::IoError(StrCat(path, ": bad value '", line, "'"));
    }
    values.push_back(value);
  }
  return values;
}

Result<std::vector<NodeId>> ParseSeeds(const std::string& spec) {
  std::vector<NodeId> seeds;
  for (const std::string& field : Split(spec, ',')) {
    int64_t id = 0;
    if (!ParseInt64(field, &id)) {
      return Status::InvalidArgument(StrCat("bad seed '", field, "'"));
    }
    seeds.push_back(static_cast<NodeId>(id));
  }
  return seeds;
}

int RunOrDie(const Flags& flags) {
  // Every exit-2 rule lives in ValidateRankFlags (shared with
  // tests/flags_test.cc), and it runs before the potentially large graph
  // load so a typo'd invocation fails in microseconds, not minutes.
  const Status valid = ValidateRankFlags(flags);
  if (!valid.ok()) return UsageError(valid.ToString().c_str());

  const std::string graph_path = flags.GetString("graph");
  // All re-extractions below succeed: ValidateRankFlags already parsed
  // and range-checked every value it accepts.
  auto directed = flags.GetBool("directed", false);
  auto weighted = flags.GetBool("weighted", false);
  auto p = flags.GetDouble("p", 0.0);
  auto alpha = flags.GetDouble("alpha", 0.85);
  auto beta = flags.GetDouble("beta", 0.0);
  auto top = flags.GetInt("top", 20);
  auto top_k = flags.GetInt("top-k", 0);
  auto threads = flags.GetInt("threads", 1);
  auto repeat = flags.GetInt("repeat", 1);
  auto shards = flags.GetInt("shards", 1);
  const bool partitioned = flags.Has("partition");
  PartitionScheme partition_scheme = PartitionScheme::kRange;
  if (partitioned) {
    partition_scheme = *ParsePartitionScheme(flags.GetString("partition"));
  }
  auto cache_mode = ParseCacheMode(flags.GetString("cache-mode"));
  auto method = ParseRankMethod(flags.GetString("method"));
  std::vector<NodeId> seeds;
  if (flags.Has("seeds")) {
    auto parsed = ParseSeeds(flags.GetString("seeds"));
    if (!parsed.ok()) return UsageError(parsed.status().ToString().c_str());
    seeds = std::move(parsed).value();
  }

  auto graph = ReadEdgeListText(
      graph_path, *directed ? GraphKind::kDirected : GraphKind::kUndirected,
      *weighted);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "loaded %s: %d nodes, %lld edges\n",
               graph_path.c_str(), graph->num_nodes(),
               static_cast<long long>(graph->num_edges()));

  if (flags.Has("stats")) {
    const GraphStats stats = ComputeGraphStats(*graph);
    std::printf("nodes                 %d\n", stats.num_nodes);
    std::printf("edges                 %lld\n",
                static_cast<long long>(stats.num_edges));
    std::printf("avg degree            %.3f\n", stats.avg_degree);
    std::printf("stddev degree         %.3f\n", stats.stddev_degree);
    std::printf("median nbr-deg stddev %.3f\n",
                stats.median_neighbor_degree_stddev);
    std::printf("dangling nodes        %d\n", stats.num_dangling);
    if (!graph->directed()) {
      std::printf("avg clustering        %.4f\n",
                  AverageClusteringCoefficient(*graph));
      std::printf("degree assortativity  %+.4f\n",
                  DegreeAssortativity(*graph));
    }
    return 0;
  }

  RankRequest request;
  request.p = *p;
  request.alpha = *alpha;
  request.beta = *beta;
  request.method = *method;
  request.top_k = *top_k;

  EngineOptions engine_options;
  if (flags.Has("cache-dir")) {
    engine_options.cache_dir = flags.GetString("cache-dir");
    engine_options.persist_mode = *cache_mode;
  }

  // One engine serves the whole invocation: when --tune runs first, the
  // final ranking's transition matrix is typically already cached from
  // the best probe.
  D2prEngine engine = D2prEngine::Borrowing(*graph, engine_options);

  if (flags.Has("tune")) {
    auto significance = ReadValuesFile(flags.GetString("significance"));
    if (!significance.ok()) {
      std::fprintf(stderr, "%s\n",
                   significance.status().ToString().c_str());
      return 1;
    }
    TuneOptions tune_options;
    tune_options.base.alpha = request.alpha;
    tune_options.base.beta = request.beta;
    auto tuned = TuneDecouplingWeight(engine, *significance, tune_options);
    if (!tuned.ok()) {
      std::fprintf(stderr, "%s\n", tuned.status().ToString().c_str());
      return 1;
    }
    std::printf("tuned p = %+.3f  (Spearman %.4f over %zu evaluations)\n",
                tuned->best_p, tuned->best_correlation,
                tuned->evaluated.size());
    request.p = tuned->best_p;
    // The tuner's last probe converged at (or within a grid cell of)
    // best_p under this tag; the final solve starts from it.
    request.warm_start_tag = kTuneWarmStartTag;
  }

  request.seeds = std::move(seeds);

  // Transition accounting printed for every path — single engine, pooled
  // runtime, and partitioned router alike — so runs are comparable no
  // matter how they were served. The router path fills this from its
  // shared resolver; every other path reads the one engine after the
  // solve.
  struct TransitionReport {
    int64_t builds = 0;
    int64_t cache_hits = 0;
    int64_t cache_lookups = 0;
    int64_t store_loads = 0;
    int64_t store_saves = 0;

    void Accumulate(const D2prEngine& from) {
      const EngineStats snapshot = from.stats();
      builds += snapshot.transition_builds;
      const TransitionResolver& resolver = from.transition_resolver();
      cache_hits += resolver.cache_lookup_hits();
      cache_lookups +=
          resolver.cache_lookup_hits() + resolver.cache_lookup_misses();
      store_loads += snapshot.transition_store_loads;
      store_saves += snapshot.transition_store_saves;
    }
  };
  TransitionReport transition_report;

  // One throughput report for every serving configuration; the runtime
  // path reports as one shard.
  auto report_throughput = [](size_t served, size_t num_shards,
                              size_t num_threads, double elapsed_ms,
                              const ScoreCacheStats& cache) {
    std::fprintf(
        stderr,
        "served %zu request(s) on %zu shard(s) x %zu thread(s) in "
        "%.1f ms (%.0f req/s, score-cache hits %lld/%lld lookups)\n",
        served, num_shards, num_threads, elapsed_ms,
        elapsed_ms > 0.0 ? served / (elapsed_ms / 1e3) : 0.0,
        static_cast<long long>(cache.hits),
        static_cast<long long>(cache.hits + cache.misses));
  };

  Result<RankResponse> ranked = [&]() -> Result<RankResponse> {
    if (*threads == 1 && *repeat == 1 && !partitioned) {
      return engine.Rank(request);
    }
    // Serving path: K identical queries as one batch. The warm-start tag
    // is dropped — repeats are independent queries, not one trajectory —
    // so the batch exercises the pool and the score cache the way
    // serving traffic would.
    RankRequest query = request;
    query.warm_start_tag.clear();
    std::vector<RankRequest> batch(static_cast<size_t>(*repeat), query);

    if (partitioned) {
      RouterOptions router_options;
      router_options.num_shards = static_cast<size_t>(*shards);
      router_options.partition_scheme = partition_scheme;
      router_options.score_cache_capacity = 256;
      // The router resolves matrices through the same persistent store;
      // the outer engine already fingerprinted the graph, so reuse it.
      router_options.engine_options = engine_options;
      if (engine.persistent_store_enabled()) {
        router_options.engine_options.precomputed_graph_fingerprint =
            engine.graph_fingerprint();
      }
      // An explicit --threads (even 1: a single-threaded baseline) sizes
      // the pool; unset defaults to one worker per shard.
      if (flags.Has("threads")) {
        router_options.worker_threads = static_cast<size_t>(*threads);
      }
      // The router shares the engine's already-loaded graph handle.
      EngineRouter router(engine.graph_ptr(), router_options);
      std::fprintf(stderr, "%s\n", router.partition().ToString().c_str());
      Timer timer;
      auto responses = router.RankBatch(batch);
      if (!responses.ok()) return responses.status();
      report_throughput(batch.size(), router.num_shards(),
                        router.num_worker_threads(), timer.ElapsedMillis(),
                        router.score_cache().stats());
      // The router's shared transition cache and store counters are the
      // whole accounting of this path.
      const TransitionResolver& resolver = router.transition_resolver();
      transition_report.builds += resolver.builds();
      transition_report.cache_hits += resolver.cache_lookup_hits();
      transition_report.cache_lookups +=
          resolver.cache_lookup_hits() + resolver.cache_lookup_misses();
      transition_report.store_loads += resolver.store_loads();
      transition_report.store_saves += resolver.store_saves();
      return std::move(responses->front());
    }

    ServingOptions serve_options;
    serve_options.num_threads = static_cast<size_t>(*threads);
    ServingRuntime runtime = ServingRuntime::Borrowing(engine, serve_options);
    Timer timer;
    auto responses = runtime.RankBatch(batch);
    if (!responses.ok()) return responses.status();
    report_throughput(batch.size(), 1, runtime.num_threads(),
                      timer.ElapsedMillis(), runtime.score_cache().stats());
    return std::move(responses->front());
  }();
  if (!ranked.ok()) {
    std::fprintf(stderr, "%s\n", ranked.status().ToString().c_str());
    return 1;
  }
  // Every other path (single query, repeated queries, pooled runtime)
  // served through this one engine.
  if (!partitioned) transition_report.Accumulate(engine);
  std::fprintf(
      stderr,
      "transition stats: %lld build(s), cache hits %lld/%lld lookups, "
      "store loads %lld, store saves %lld\n",
      static_cast<long long>(transition_report.builds),
      static_cast<long long>(transition_report.cache_hits),
      static_cast<long long>(transition_report.cache_lookups),
      static_cast<long long>(transition_report.store_loads),
      static_cast<long long>(transition_report.store_saves));
  if (ranked->method == SolverMethod::kForwardPush) {
    std::fprintf(stderr,
                 "solved with %s in %lld pushes (completed: %s)\n",
                 SolverMethodName(ranked->method),
                 static_cast<long long>(ranked->pushes),
                 ranked->converged ? "yes" : "no");
  } else {
    std::fprintf(
        stderr,
        "solved with %s in %d iterations (converged: %s, cached "
        "transition: %s, persisted transition: %s)\n",
        SolverMethodName(ranked->method), ranked->iterations,
        ranked->converged ? "yes" : "no",
        ranked->transition_cache_hit ? "yes" : "no",
        ranked->transition_store_hit ? "yes" : "no");
  }

  const std::string out_path = flags.GetString("scores-out");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    for (double score : ranked->scores) {
      out << FormatGeneral(score, 17) << '\n';
    }
    if (!out) {
      std::fprintf(stderr, "failed writing %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu scores to %s\n", ranked->scores.size(),
                 out_path.c_str());
  }

  if (ranked->truncated) {
    // Truncated serving: the response IS the top list; print it with its
    // certification column instead of re-ranking a score vector.
    std::fprintf(stderr, "top-k uncertainty gap: %.3e\n",
                 ranked->uncertainty_gap);
    std::printf("rank  node  score         certified\n");
    for (size_t i = 0; i < ranked->top.size(); ++i) {
      std::printf("%4zu  %4d  %.6e  %s\n", i + 1, ranked->top[i].node,
                  ranked->top[i].score,
                  ranked->top[i].certified ? "yes" : "no");
    }
    return 0;
  }

  std::printf("rank  node  score\n");
  const std::vector<NodeId> best =
      TopK(ranked->scores, static_cast<size_t>(*top));
  for (size_t i = 0; i < best.size(); ++i) {
    std::printf("%4zu  %4d  %.6e\n", i + 1, best[i],
                ranked->scores[static_cast<size_t>(best[i])]);
  }
  return 0;
}

}  // namespace
}  // namespace d2pr

int main(int argc, char** argv) {
  auto flags = d2pr::Flags::Parse(argc - 1, argv + 1);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  return d2pr::RunOrDie(*flags);
}
