#include "core/block_solver.h"

#include <algorithm>
#include <vector>

#include "common/string_util.h"
#include "linalg/vec_ops.h"

namespace d2pr {

namespace {

/// The single-graph solvers' shared option/teleport validation plus the
/// slice shape contract: a transition over the partition's nodes, and
/// arc weights covering every in-arc when the β blend is on.
Status ValidateBlockSliceInputs(const TransitionSlices& slices,
                                const GraphPartition& partition,
                                std::span<const double> teleport,
                                const PagerankOptions& options) {
  D2PR_RETURN_NOT_OK(ValidatePagerankOptions(options));
  if (slices.transition == nullptr) {
    return Status::InvalidArgument("transition slices hold no transition");
  }
  if (slices.num_nodes() != partition.num_nodes()) {
    return Status::InvalidArgument(
        StrCat("partition covers ", partition.num_nodes(),
               " nodes but transition slices cover ", slices.num_nodes()));
  }
  if (slices.transition->factors().has_blend()) {
    EdgeIndex arcs = 0;
    for (size_t s = 0; s < partition.num_shards(); ++s) {
      arcs += partition.shard(s).num_in_arcs();
    }
    if (slices.arc_weights.size() != static_cast<size_t>(arcs)) {
      return Status::InvalidArgument(
          StrCat("the beta blend needs the weights of all ", arcs,
                 " arcs, slices carry ", slices.arc_weights.size()));
    }
  }
  return ValidateTeleportVector(teleport, slices.num_nodes());
}

/// The in-process index space: a shard's rows and sources are global
/// node ids, and both iterates are full vectors.
struct GlobalIndex {
  const PartitionShard& shard;
  const TransitionMatrix& transition;
  std::span<const double> arc_weights;

  size_t dst(size_t k) const { return static_cast<size_t>(shard.owned[k]); }
  size_t source(size_t idx) const {
    return static_cast<size_t>(shard.in_sources[idx]);
  }
  double weight(size_t idx) const {
    return arc_weights[static_cast<size_t>(shard.in_arc_index[idx])];
  }
  bool dangling(size_t k) const {
    return transition.IsDangling(shard.owned[k]);
  }
  // Interior sources read the live (in-sweep updated) iterate, boundary
  // sources the frozen exchange copy; the precomputed flag keeps
  // ownership resolution out of the inner loop.
  double live(size_t idx, std::span<const double> next,
              std::span<const double> x) const {
    return shard.in_interior[idx] ? next[source(idx)] : x[source(idx)];
  }
};

/// Both in-process block solves: RunBlockIteration with a round that
/// sweeps every shard of `partition` through `parallel_for`.
Result<PagerankResult> SolveBlockInProcess(
    bool gauss_seidel, const TransitionSlices& slices,
    const GraphPartition& partition, std::span<const double> teleport,
    const PagerankOptions& options, const BlockParallelFor& parallel_for) {
  D2PR_RETURN_NOT_OK(
      ValidateBlockSliceInputs(slices, partition, teleport, options));
  if (gauss_seidel) {
    D2PR_RETURN_NOT_OK(ValidateBlockGaussSeidelPolicy(options.dangling));
  }
  const TransitionMatrix& transition = *slices.transition;
  const TransitionFactors& factors = transition.factors();
  const std::vector<NodeId> dangling = transition.DanglingNodes();
  SourceProducts products;
  BlockSweepParams params;
  params.gauss_seidel = gauss_seidel;
  params.dangling = options.dangling;
  params.alpha = options.alpha;
  params.teleport = teleport;

  const auto round = [&](const BlockRound& r,
                         std::span<const double> current,
                         std::span<double> next) {
    params.dangling_mass = r.dangling_mass;
    if (gauss_seidel) {
      // Exchange step: `current` is the frozen copy every shard reads
      // remote values from (block Jacobi across shards), while each
      // shard sweeps its own slice of `next` in place (Gauss-Seidel
      // within a shard).
      std::copy(current.begin(), current.end(), next.begin());
    } else {
      // y = c∘x of the previous iterate, once for every shard's reads.
      products.Compute(factors, current);
    }
    // One block sweep. Shards write disjoint owned slices of `next` and
    // read nothing another shard writes, so the sweeps compose in any
    // order (or concurrently) without changing a bit.
    const auto sweep = [&](size_t s) {
      const GlobalIndex index{partition.shard(s), transition,
                              slices.arc_weights};
      BlockSweep(factors, index.shard, index, params, products, current,
                 next, /*partials=*/nullptr);
    };
    if (parallel_for) {
      parallel_for(partition.num_shards(), sweep);
    } else {
      for (size_t s = 0; s < partition.num_shards(); ++s) sweep(s);
    }
    return Status::OK();
  };
  return RunBlockIteration(gauss_seidel, dangling, teleport, options, round);
}

}  // namespace

Status ValidateBlockGaussSeidelPolicy(DanglingPolicy dangling) {
  if (dangling == DanglingPolicy::kRenormalize) {
    // The renormalized Gauss-Seidel fixed point is sweep-order dependent
    // whenever dangling mass is dropped (see the header); a block sweep
    // cannot reproduce the single-graph order, so fail loudly instead of
    // serving a silently different solution.
    return Status::InvalidArgument(
        "block Gauss-Seidel does not support DanglingPolicy::kRenormalize "
        "(its fixed point depends on the sweep order); use kTeleport or "
        "power iteration");
  }
  return Status::OK();
}

Result<PagerankResult> RunBlockIteration(bool gauss_seidel,
                                         std::span<const NodeId> dangling,
                                         std::span<const double> teleport,
                                         const PagerankOptions& options,
                                         const BlockRoundFn& round) {
  PagerankResult result;
  if (teleport.empty()) {
    result.converged = true;
    return result;
  }
  // The single-graph solvers' initial iterates: power normalizes its
  // teleport copy defensively, Gauss-Seidel starts from the raw one.
  std::vector<double> current(teleport.begin(), teleport.end());
  if (!gauss_seidel) NormalizeL1(current);
  std::vector<double> next(current.size(), 0.0);
  const bool normalize =
      gauss_seidel || options.dangling == DanglingPolicy::kRenormalize;

  BlockRound r;
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    // Dangling mass of the previous iterate, folded over the ascending
    // dangling list exactly as the reference solvers do (lagged, for
    // Gauss-Seidel). Known before the sweeps start, so each shard can
    // finish its owned slice end-to-end.
    r.iteration = iter;
    r.dangling_mass = 0.0;
    for (NodeId v : dangling) {
      r.dangling_mass += current[static_cast<size_t>(v)];
    }
    D2PR_RETURN_NOT_OK(round(r, current, next));
    r.prev_norm = normalize ? NormalizeL1(next) : 0.0;

    result.iterations = iter;
    result.residual = DiffL1(next, current);
    current.swap(next);
    if (result.residual < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.scores = std::move(current);
  return result;
}

Result<PagerankResult> SolvePagerankPartitioned(
    const TransitionSlices& slices, const GraphPartition& partition,
    std::span<const double> teleport, const PagerankOptions& options,
    const BlockParallelFor& parallel_for) {
  return SolveBlockInProcess(/*gauss_seidel=*/false, slices, partition,
                             teleport, options, parallel_for);
}

Result<PagerankResult> SolveGaussSeidelPartitioned(
    const TransitionSlices& slices, const GraphPartition& partition,
    std::span<const double> teleport, const PagerankOptions& options,
    const BlockParallelFor& parallel_for) {
  return SolveBlockInProcess(/*gauss_seidel=*/true, slices, partition,
                             teleport, options, parallel_for);
}

}  // namespace d2pr
