// Block-iterative PageRank solvers over a vertex-partitioned graph.
//
// Both solvers iterate each shard's owned slice against the factored
// transition (core/transition_slices.h) and exchange boundary mass
// between sweeps; dangling mass and teleportation are handled
// *globally*, exactly matching the
// single-graph solvers in core/pagerank.h and core/gauss_seidel.h (which
// themselves match core/teleport.h semantics). In-process, the "exchange"
// is each shard publishing its owned slice of the iterate and pulling
// remote values through the partition's boundary in-arc index — the data
// flow a multi-machine deployment would put on the wire.
//
// Every block solve — the two in-process solvers and the shard fleet's
// DistributedCoordinator (dist/coordinator.h) — runs one loop,
// RunBlockIteration, which owns the initial iterate, the global folds
// and the convergence check; only its sweep round differs. Every round
// sweeps a shard's rows with one BlockSweep: in-process over global node
// ids, on a shard worker (dist/shard_worker.h) over its
// [owned | boundary] slots.
//
// Parity contracts (enforced by tests/partition_parity_test.cc,
// tests/partition_fuzz_test.cc and tests/dist_parity_test.cc):
//
//   * SolvePagerankPartitioned is BIT-IDENTICAL to SolvePagerank for any
//     partition (any scheme, any shard count), including iteration counts
//     and residuals. This is by construction, not by tolerance: both run
//     the one kernel of core/transition_kernel.h over the same factors.
//     The per-source products y = c∘x are the same single multiplies;
//     the whole-graph solve gathers each destination's y terms along the
//     graph's in-rows in ascending global source order (left-associated,
//     from +0.0), and the partition's in-CSR gathers each owned
//     destination's terms in exactly that order; both end in the same
//     u∘ pass (FinishDestination). Dangling mass folds over the same
//     ascending dangling list, the teleport blend is element-wise, and
//     the residual is the same full-vector DiffL1 — so every float the
//     reference computes, the block solve recomputes. The factors are
//     literally the TransitionMatrix's (a share of it, or the
//     shard-local builder's bitwise-equal recomputation).
//   * SolveGaussSeidelPartitioned is a genuine *block* method — classic
//     Gauss-Seidel within a shard, Jacobi across shards (remote values
//     frozen at sweep start) — so its iterate path differs from the
//     single-graph Gauss-Seidel sweep, but both contract to the same
//     fixed point: with tolerance <= 1e-11 the solutions agree within
//     1e-9 (the bound the partition suites assert).
//   * The distributed solve is BIT-IDENTICAL to its in-process form, for
//     power and block Gauss-Seidel alike (scores, iteration count,
//     residual): same loop, same sweep, same folds.
//
// Shard sweeps write disjoint owned slices and read the frozen previous
// iterate, so they are data-race free and order-independent; pass a
// `parallel_for` to run them concurrently (serve/engine_router.h passes
// its worker pool). The global folds (dangling mass, normalization, residual)
// stay sequential on the calling thread — they are O(n) and their
// summation order is part of the bit-parity contract.
//
// Each power sweep computes y = c∘x once (O(|V|), on the calling thread)
// and every shard gathers it along its in-CSR: no per-arc probability
// exists. A caller holding a whole-graph TransitionMatrix shares it
// (BuildTransitionSlices); the shard fleet builds its factors from cuts.

#ifndef D2PR_CORE_BLOCK_SOLVER_H_
#define D2PR_CORE_BLOCK_SOLVER_H_

#include <cmath>
#include <functional>
#include <span>

#include "common/result.h"
#include "core/pagerank.h"
#include "core/transition_kernel.h"
#include "core/transition_slices.h"
#include "graph/partition.h"

namespace d2pr {

/// \brief Optional shard-sweep executor: invoke fn(0) .. fn(count - 1),
/// returning only when all invocations finished. The invocations are
/// independent (disjoint writes) and may run concurrently. An empty
/// function runs them sequentially inline.
using BlockParallelFor =
    std::function<void(size_t count, const std::function<void(size_t)>& fn)>;

/// \brief The per-sweep constants of a BlockSweep.
struct BlockSweepParams {
  bool gauss_seidel = false;
  DanglingPolicy dangling = DanglingPolicy::kTeleport;
  double alpha = 0.85;
  /// Dangling mass of the previous iterate (BlockRound::dangling_mass).
  double dangling_mass = 0.0;
  /// The teleport vector, indexed by Index::dst.
  std::span<const double> teleport;
};

/// \brief Sums over a sweep's rows, folded in ascending row order.
struct BlockSweepPartials {
  double dangling = 0.0;  ///< New values of the dangling rows.
  double residual = 0.0;  ///< |new - old| over every row.
};

/// \brief One power or Gauss-Seidel sweep over `shard`'s owned rows,
/// writing row k's new value to next[index.dst(k)].
///
/// `index` maps rows into the caller's index space: dst(k) indexes the
/// destination factors, the teleport and both iterates; source(idx)
/// indexes the source factors, the products and both iterates;
/// weight(idx) is in-arc idx's weight; dangling(k) flags a row without
/// out-arcs; live(idx, next, x) is the value a Gauss-Seidel row reads
/// for in-arc idx. Power reads `products` (y = c∘x) and `x`; Gauss-Seidel
/// updates `next` in place, so `next` must enter holding x's values at
/// this shard's rows (it may be `x` itself). `partials`, unless null,
/// receives the sweep's sums.
template <typename Index>
void BlockSweep(const TransitionFactors& f, const PartitionShard& shard,
                const Index& index, const BlockSweepParams& params,
                const SourceProducts& products, std::span<const double> x,
                std::span<double> next, BlockSweepPartials* partials) {
  const double alpha = params.alpha;
  const double dangling_mass = params.dangling_mass;
  const auto source = [&](size_t idx) { return index.source(idx); };
  const auto weight = [&](size_t idx) { return index.weight(idx); };
  // The row loop, instantiated once per method's update rule.
  const auto sweep = [&](auto update) {
    double dangling_sum = 0.0;
    double residual_sum = 0.0;
    for (size_t k = 0; k < shard.owned.size(); ++k) {
      const size_t dst = index.dst(k);
      const double value =
          update(k, dst, static_cast<size_t>(shard.in_offsets[k]),
                 static_cast<size_t>(shard.in_offsets[k + 1]));
      if (partials != nullptr) {
        if (index.dangling(k)) dangling_sum += value;
        residual_sum += std::abs(value - x[dst]);
      }
      next[dst] = value;
    }
    if (partials != nullptr) *partials = {dangling_sum, residual_sum};
  };
  if (!params.gauss_seidel) {
    sweep([&](size_t k, size_t dst, size_t begin, size_t end) {
      double value =
          PullProducts(f, products, dst, begin, end, source, weight);
      switch (params.dangling) {
        case DanglingPolicy::kTeleport:
          if (dangling_mass > 0.0) {
            value += dangling_mass * params.teleport[dst];
          }
          break;
        case DanglingPolicy::kSelfLoop:
          if (index.dangling(k)) value += x[dst];
          break;
        case DanglingPolicy::kRenormalize:
          break;
      }
      return alpha * value + (1.0 - alpha) * params.teleport[dst];
    });
  } else {
    const auto live = [&](size_t idx) { return index.live(idx, next, x); };
    sweep([&](size_t k, size_t dst, size_t begin, size_t end) {
      const double teleport = params.teleport[dst];
      double value =
          alpha * PullLive(f, dst, begin, end, source, live, weight) +
          (1.0 - alpha) * teleport;
      switch (params.dangling) {
        case DanglingPolicy::kTeleport:
          value += alpha * dangling_mass * teleport;
          break;
        case DanglingPolicy::kSelfLoop:
          if (index.dangling(k)) value /= (1.0 - alpha);
          break;
        case DanglingPolicy::kRenormalize:
          break;
      }
      return value;
    });
  }
}

/// \brief One iteration's inputs to a sweep round.
struct BlockRound {
  int iteration = 0;  ///< 1-based.
  /// Dangling mass of `current`, folded over the ascending dangling list.
  double dangling_mass = 0.0;
  /// The norm the previous iteration's NormalizeL1 divided `current` by,
  /// 0 if it did not normalize. A shard keeping its slice across rounds
  /// replays that exact multiply by 1.0 / prev_norm.
  double prev_norm = 0.0;
};

/// \brief One sweep round: writes every node of `next` from `current`.
using BlockRoundFn =
    std::function<Status(const BlockRound& round,
                         std::span<const double> current,
                         std::span<double> next)>;

/// \brief The loop every block solve runs. Starts from the teleport
/// (L1-normalized for power, raw for Gauss-Seidel); each iteration folds
/// the iterate's dangling mass over `dangling` (ascending ids), runs one
/// `round`, L1-normalizes the new iterate (every iteration for
/// Gauss-Seidel, for power only under kRenormalize), and stops once the
/// DiffL1 residual is below the tolerance. A failed round ends the solve
/// with its Status. The caller validates `teleport` and `options`.
Result<PagerankResult> RunBlockIteration(bool gauss_seidel,
                                         std::span<const NodeId> dangling,
                                         std::span<const double> teleport,
                                         const PagerankOptions& options,
                                         const BlockRoundFn& round);

/// \brief OK iff block Gauss-Seidel supports `dangling`; the
/// kRenormalize rejection (with its explanation) otherwise. Exposed so
/// serving layers can refuse the combination before paying a transition
/// build — there is exactly one copy of this contract.
Status ValidateBlockGaussSeidelPolicy(DanglingPolicy dangling);

/// \brief Block power iteration: bit-identical to
/// SolvePagerank(graph, transition, teleport, options) for any partition
/// of the same graph, when `slices` holds that transition.
///
/// Requirements mirror SolvePagerank (alpha in [0, 1), tolerance > 0,
/// max_iterations >= 1, teleport a distribution over the nodes), plus
/// `slices` shaped for `partition`: a transition over its nodes, and the
/// weights of every arc under the beta blend (InvalidArgument otherwise;
/// both builders in core/transition_slices.h guarantee this).
Result<PagerankResult> SolvePagerankPartitioned(
    const TransitionSlices& slices, const GraphPartition& partition,
    std::span<const double> teleport, const PagerankOptions& options,
    const BlockParallelFor& parallel_for = {});

/// \brief Block Gauss-Seidel: per-shard Gauss-Seidel sweeps with remote
/// values frozen at sweep start (block Jacobi across shards). Converges
/// to the same fixed point as SolvePagerankGaussSeidel; agreement is
/// within solver tolerance, not bitwise.
///
/// DanglingPolicy::kRenormalize is rejected (InvalidArgument): when the
/// renormalization constant c differs from 1 (i.e. dangling mass is
/// being dropped), the Gauss-Seidel fixed point satisfies
/// c·x_v = α·Σ_{u sweeps before v} p·c·x_u + α·Σ_{u after v} p·x_u +
/// (1-α)t_v — it depends on the sweep order, which a block sweep cannot
/// reproduce. Solutions would silently drift O(α·dropped-mass) from the
/// single-graph reference (observed ~1e-3), so the combination fails
/// loudly instead. Use kTeleport (identical when no node dangles) or
/// block power iteration, whose kRenormalize parity is bitwise.
Result<PagerankResult> SolveGaussSeidelPartitioned(
    const TransitionSlices& slices, const GraphPartition& partition,
    std::span<const double> teleport, const PagerankOptions& options,
    const BlockParallelFor& parallel_for = {});

}  // namespace d2pr

#endif  // D2PR_CORE_BLOCK_SOLVER_H_
