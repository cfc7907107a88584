#include "core/block_solver.h"

#include <vector>

#include "common/string_util.h"
#include "core/transition_kernel.h"
#include "linalg/vec_ops.h"

namespace d2pr {

namespace {

/// Runs fn(0) .. fn(count - 1): through `parallel_for` when provided,
/// sequentially inline otherwise.
void RunShards(const BlockParallelFor& parallel_for, size_t count,
               const std::function<void(size_t)>& fn) {
  if (parallel_for) {
    parallel_for(count, fn);
    return;
  }
  for (size_t i = 0; i < count; ++i) fn(i);
}

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

Result<PagerankResult> SolvePagerankPartitioned(
    const TransitionSlices& slices, const GraphPartition& partition,
    std::span<const double> teleport, const PagerankOptions& options,
    const BlockParallelFor& parallel_for) {
  D2PR_RETURN_NOT_OK(
      ValidateBlockSliceInputs(slices, partition, teleport, options));
  const NodeId n = slices.num_nodes();

  PagerankResult result;
  if (n == 0) {
    result.converged = true;
    return result;
  }

  const TransitionMatrix& transition = *slices.transition;
  const TransitionFactors& factors = transition.factors();
  const std::vector<NodeId> dangling = transition.DanglingNodes();
  SourceProducts products;
  std::vector<double> current(teleport.begin(), teleport.end());
  NormalizeL1(current);  // mirrors the reference's defensive normalize
  std::vector<double> next(static_cast<size_t>(n), 0.0);

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    // Dangling mass of the previous iterate, folded over the ascending
    // dangling list exactly as the reference does. Known before the
    // sweeps start, so each shard can finish its owned slice end-to-end.
    double dangling_mass = 0.0;
    for (NodeId v : dangling) {
      dangling_mass += current[static_cast<size_t>(v)];
    }
    // y = c∘x of the previous iterate, once for every shard's reads.
    products.Compute(factors, current);

    // One block sweep: every shard gathers y along each owned
    // destination's in-row in ascending global source order — the
    // accumulation order TransitionMatrix::Multiply scatters in — then
    // applies the u∘ pass, the dangling policy and the teleport blend
    // element-wise. Shards write disjoint owned slices of `next` and read
    // only the frozen products, so the sweeps compose in any order (or
    // concurrently) without changing a bit.
    RunShards(parallel_for, partition.num_shards(), [&](size_t s) {
      const PartitionShard& shard = partition.shard(s);
      const auto source = [&](size_t idx) {
        return static_cast<size_t>(shard.in_sources[idx]);
      };
      const auto weight = [&](size_t idx) {
        return slices.arc_weights[static_cast<size_t>(
            shard.in_arc_index[idx])];
      };
      for (size_t k = 0; k < shard.owned.size(); ++k) {
        const NodeId dst = shard.owned[k];
        double value = PullProducts(
            factors, products, static_cast<size_t>(dst),
            static_cast<size_t>(shard.in_offsets[k]),
            static_cast<size_t>(shard.in_offsets[k + 1]), source, weight);
        switch (options.dangling) {
          case DanglingPolicy::kTeleport:
            if (dangling_mass > 0.0) {
              value += dangling_mass * teleport[static_cast<size_t>(dst)];
            }
            break;
          case DanglingPolicy::kSelfLoop:
            if (transition.IsDangling(dst)) {
              value += current[static_cast<size_t>(dst)];
            }
            break;
          case DanglingPolicy::kRenormalize:
            break;
        }
        next[static_cast<size_t>(dst)] =
            options.alpha * value +
            (1.0 - options.alpha) * teleport[static_cast<size_t>(dst)];
      }
    });
    if (options.dangling == DanglingPolicy::kRenormalize) {
      NormalizeL1(next);
    }

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

Result<PagerankResult> SolveGaussSeidelPartitioned(
    const TransitionSlices& slices, const GraphPartition& partition,
    std::span<const double> teleport, const PagerankOptions& options,
    const BlockParallelFor& parallel_for) {
  D2PR_RETURN_NOT_OK(
      ValidateBlockSliceInputs(slices, partition, teleport, options));
  D2PR_RETURN_NOT_OK(ValidateBlockGaussSeidelPolicy(options.dangling));
  const NodeId n = slices.num_nodes();

  PagerankResult result;
  if (n == 0) {
    result.converged = true;
    return result;
  }

  const TransitionMatrix& transition = *slices.transition;
  const TransitionFactors& factors = transition.factors();
  const std::vector<NodeId> dangling = transition.DanglingNodes();
  std::vector<double> x(teleport.begin(), teleport.end());
  std::vector<double> frozen(x);
  std::vector<double> previous(x);

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    // Lagged dangling mass, as in the single-graph Gauss-Seidel sweep.
    double dangling_mass = 0.0;
    for (NodeId v : dangling) {
      dangling_mass += x[static_cast<size_t>(v)];
    }

    // Exchange step: publish the whole iterate; each shard reads remote
    // slices from this frozen copy (block Jacobi across shards) while
    // sweeping its own slice Gauss-Seidel style (owned sources read the
    // in-place updated values).
    frozen = x;
    RunShards(parallel_for, partition.num_shards(), [&](size_t s) {
      const PartitionShard& shard = partition.shard(s);
      const auto source = [&](size_t idx) {
        return static_cast<size_t>(shard.in_sources[idx]);
      };
      // Interior sources read the live (in-sweep updated) iterate,
      // boundary sources the frozen exchange copy; the precomputed flag
      // keeps ownership resolution out of the inner loop.
      const auto value_of = [&](size_t idx) {
        return shard.in_interior[idx] ? x[source(idx)] : frozen[source(idx)];
      };
      const auto weight = [&](size_t idx) {
        return slices.arc_weights[static_cast<size_t>(
            shard.in_arc_index[idx])];
      };
      for (size_t k = 0; k < shard.owned.size(); ++k) {
        const NodeId dst = shard.owned[k];
        const double incoming = PullLive(
            factors, static_cast<size_t>(dst),
            static_cast<size_t>(shard.in_offsets[k]),
            static_cast<size_t>(shard.in_offsets[k + 1]), source, value_of,
            weight);
        double value = options.alpha * incoming +
                       (1.0 - options.alpha) *
                           teleport[static_cast<size_t>(dst)];
        switch (options.dangling) {
          case DanglingPolicy::kTeleport:
            value += options.alpha * dangling_mass *
                     teleport[static_cast<size_t>(dst)];
            break;
          case DanglingPolicy::kSelfLoop:
            if (transition.IsDangling(dst)) {
              value /= (1.0 - options.alpha);
            }
            break;
          case DanglingPolicy::kRenormalize:
            break;
        }
        x[static_cast<size_t>(dst)] = value;
      }
    });
    NormalizeL1(x);

    result.iterations = iter;
    result.residual = DiffL1(x, previous);
    previous = x;
    if (result.residual < options.tolerance) {
      result.converged = true;
      break;
    }
  }

  result.scores = std::move(x);
  return result;
}

}  // namespace d2pr
