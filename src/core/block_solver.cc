#include "core/block_solver.h"

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
  const NodeId* owned;
  const NodeId* in_sources;
  const EdgeIndex* in_arc_index;
  const double* arc_weights;  // every arc's, by global arc index
  const uint8_t* node_dangling;  // by node id

  GlobalIndex(const PartitionShard& shard, const TransitionMatrix& transition,
              std::span<const double> weights)
      : owned(shard.owned.data()),
        in_sources(shard.in_sources.data()),
        in_arc_index(shard.in_arc_index.data()),
        arc_weights(weights.data()),
        node_dangling(transition.dangling().data()) {}

  size_t dst(size_t k) const { return static_cast<size_t>(owned[k]); }
  const NodeId* sources() const { return in_sources; }
  double weight(size_t idx) const {
    return arc_weights[static_cast<size_t>(in_arc_index[idx])];
  }
  bool dangling(size_t k) const { return node_dangling[owned[k]] != 0; }
};

}  // namespace

Status ValidateBlockGaussSeidelPolicy(DanglingPolicy dangling) {
  if (dangling == DanglingPolicy::kRenormalize) {
    // The renormalized Gauss-Seidel fixed point is sweep-order dependent
    // whenever dangling mass is dropped (see the header); a block sweep
    // over several shards cannot reproduce the single-graph order, so
    // fail loudly instead of serving a silently different solution.
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
  // The initial iterates: power normalizes its teleport copy defensively
  // (as SolvePagerank does), Gauss-Seidel starts from the raw one.
  std::vector<double> current(teleport.begin(), teleport.end());
  if (!gauss_seidel) NormalizeL1(current);
  std::vector<double> next(current.size(), 0.0);
  const bool normalize =
      gauss_seidel || options.dangling == DanglingPolicy::kRenormalize;

  BlockRound r;
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    // Dangling mass of the previous iterate, folded over the ascending
    // dangling list exactly as SolvePagerank does (lagged, for
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
  D2PR_RETURN_NOT_OK(
      ValidateBlockSliceInputs(slices, partition, teleport, options));
  const TransitionMatrix& transition = *slices.transition;
  const TransitionFactors& factors = transition.factors();
  const std::vector<NodeId> dangling = transition.DanglingNodes();
  SourceProducts products;
  BlockSweepParams params;
  params.dangling = options.dangling;
  params.alpha = options.alpha;
  params.teleport = teleport;

  const auto round = [&](const BlockRound& r,
                         std::span<const double> current,
                         std::span<double> next) {
    params.dangling_mass = r.dangling_mass;
    // y = c∘x of the previous iterate, once for every shard's reads.
    products.Compute(factors, current);
    // One block sweep. Shards write disjoint owned slices of `next` and
    // read nothing another shard writes, so the sweeps compose in any
    // order (or concurrently) without changing a bit.
    const auto sweep = [&](size_t s) {
      const PartitionShard& shard = partition.shard(s);
      BlockSweep(factors, shard.in_offsets,
                 GlobalIndex(shard, transition, slices.arc_weights), params,
                 products, current, next, /*partials=*/nullptr);
    };
    if (parallel_for) {
      parallel_for(partition.num_shards(), sweep);
    } else {
      for (size_t s = 0; s < partition.num_shards(); ++s) sweep(s);
    }
    return Status::OK();
  };
  return RunBlockIteration(/*gauss_seidel=*/false, dangling, teleport,
                           options, round);
}

}  // namespace d2pr
