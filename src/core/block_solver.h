// Block-iterative PageRank solvers: the one loop and the one sweep every
// Gauss-Seidel solve and every block power solve runs.
//
// RunBlockIteration owns the initial iterate, the global folds (dangling
// mass, normalization, residual) and the convergence check; only its
// sweep round differs between callers. Every round sweeps its rows with
// one BlockSweep:
//
//   * SolvePagerankPartitioned — block power over a partition's shards,
//     in process, over global node ids;
//   * SolvePagerankGaussSeidel (core/gauss_seidel.h) — the whole graph
//     as one block, along the graph's in-rows;
//   * the shard fleet's DistributedCoordinator (dist/coordinator.h),
//     whose rounds run on shard workers (dist/shard_worker.h), each
//     sweeping its [owned | boundary] slots: block power, or block
//     Gauss-Seidel — Gauss-Seidel within a shard, Jacobi across shards
//     (remote values frozen at sweep start).
//
// Dangling mass and teleportation are handled *globally*, exactly
// matching the single-graph solvers (core/pagerank.h, core/teleport.h).
//
// Parity contracts (enforced by tests/partition_parity_test.cc,
// tests/partition_fuzz_test.cc, tests/dist_parity_test.cc and
// tests/dist_server_test.cc):
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
//     u∘ multiply and blend add. Dangling mass folds over the same
//     ascending dangling list, the teleport blend is element-wise, and
//     the residual is the same full-vector DiffL1 — so every float the
//     reference computes, the block solve recomputes. The factors are
//     the shard-local builder's bitwise-equal recomputation of the
//     TransitionMatrix's (core/transition_slices.h).
//   * Block Gauss-Seidel over ONE shard is BIT-IDENTICAL to
//     SolvePagerankGaussSeidel: the same loop sweeping the same rows in
//     the same order. Over several shards its iterate path differs, but
//     both contract to the same fixed point: with tolerance <= 1e-11 the
//     solutions agree within 1e-9.
//   * The distributed power solve is BIT-IDENTICAL to
//     SolvePagerankPartitioned (scores, iteration count, residual): same
//     loop, same sweep, same folds. Either method over sockets is
//     bitwise the same fleet over in-process channels.
//
// In-process shard sweeps write disjoint owned slices and read the
// frozen previous iterate, so they are data-race free and
// order-independent; pass a `parallel_for` to run them concurrently or
// to time each sweep (bench/e2e/cluster_workload.cc passes a timing
// one). The global folds stay sequential on the calling thread — they
// are O(n) and their summation order is part of the bit-parity contract.
//
// Each power sweep computes y = c∘x once (O(|V|), on the calling thread)
// and every shard gathers it along its in-CSR: no per-arc probability
// exists. BlockSweep makes each decision that is fixed for a call once —
// power or Gauss-Seidel, the sink and blend terms, the dangling policy,
// whether partials are folded — and runs one row loop compiled for that
// combination, reading the factor, product and index arrays through
// pointers taken once per call. Tested per row, those decisions cost
// 11–18% of a 10k-node block power solve and ~9% of a Gauss-Seidel
// solve on one pinned core of a 4-vCPU Xeon VM (results/partition_bench.md).
// A power sweep then pulls its rows four at a time (PullRows): a row's
// in-arc loop ends at a count the branch predictor cannot know, and on
// a Barabási–Albert shard those exits, one per row, cost about a third
// of the sweep. Gauss-Seidel rows may read the row before them, so they
// pull one at a time.

#ifndef D2PR_CORE_BLOCK_SOLVER_H_
#define D2PR_CORE_BLOCK_SOLVER_H_

#include <cmath>
#include <functional>
#include <span>
#include <type_traits>

#include "common/dispatch.h"
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

/// \brief Returns fn(std::integral_constant<DanglingPolicy, policy>{}):
/// the policy as a type, for a loop that tests it at compile time
/// (common/dispatch.h).
template <typename Fn>
decltype(auto) WithPolicy(DanglingPolicy policy, Fn&& fn) {
  using enum DanglingPolicy;
  switch (policy) {
    case kSelfLoop:
      return fn(std::integral_constant<DanglingPolicy, kSelfLoop>{});
    case kRenormalize:
      return fn(std::integral_constant<DanglingPolicy, kRenormalize>{});
    case kTeleport:
      break;
  }
  return fn(std::integral_constant<DanglingPolicy, kTeleport>{});
}

/// \brief One power or Gauss-Seidel sweep over the rows whose in-arcs
/// `in_offsets` bounds (size rows + 1), writing row k's new value to
/// next[index.dst(k)].
///
/// `index` maps rows into the caller's index space: dst(k) indexes the
/// destination factors, the teleport and both iterates; sources()[idx]
/// (an array of any integer type) indexes the source factors, the
/// products and both iterates; weight(idx) is in-arc idx's weight;
/// dangling(k) flags a row without out-arcs. Power reads `products`
/// (y = c∘x) and `x`. Gauss-Seidel
/// updates `next` in place and reads every source from it, so `next`
/// must enter holding the values each source should read — x's values,
/// and on a shard worker the frozen exchange copy at its boundary slots
/// (`next` may be `x` itself). `partials`, unless null, receives the
/// sweep's sums.
///
/// Every decision fixed for the call — the method, the sink and blend
/// terms, the dangling policy, and whether partials are folded — is made
/// here once; the one row loop below is compiled per combination and
/// tests none of them per row. Power rows are pulled in groups of four
/// and finished in ascending order, so every value, sum and partial has
/// the bits of the row-at-a-time loop.
template <typename Index>
void BlockSweep(const TransitionFactors& f,
                std::span<const EdgeIndex> in_offsets, const Index& index,
                const BlockSweepParams& params,
                const SourceProducts& products, std::span<const double> x,
                std::span<double> next, BlockSweepPartials* partials) {
  const auto rows = [&](auto gauss_seidel, auto sink, auto blend,
                        auto dangling, auto fold) {
    constexpr bool kGaussSeidel = decltype(gauss_seidel)::value;
    constexpr bool kFold = decltype(fold)::value;
    constexpr DanglingPolicy kDangling = decltype(dangling)::value;
    const EdgeIndex* offsets = in_offsets.data();
    const size_t num_rows = in_offsets.size() - 1;
    const auto* sources = index.sources();
    const double* old = x.data();
    double* out = next.data();
    const double* teleport = params.teleport.data();
    const double alpha = params.alpha;
    const double dangling_mass = params.dangling_mass;
    const PullArrays in = kGaussSeidel ? PullArrays::Live(f, out)
                                       : PullArrays::Products(f, products);
    const auto weight = [&](size_t idx) { return index.weight(idx); };
    double dangling_sum = 0.0;
    double residual_sum = 0.0;
    // Rows [k, k + W): pulled together, then finished in ascending order.
    const auto group = [&](auto width, size_t k) {
      constexpr size_t W = decltype(width)::value;
      size_t dst[W];
      for (size_t r = 0; r < W; ++r) dst[r] = index.dst(k + r);
      double pulled[W];
      PullRows<W, decltype(sink)::value, decltype(blend)::value, kGaussSeidel>(
          in, dst, offsets + k, sources, weight, pulled);
      for (size_t r = 0; r < W; ++r) {
        double value;
        if constexpr (!kGaussSeidel) {
          value = pulled[r];
          if constexpr (kDangling == DanglingPolicy::kTeleport) {
            if (dangling_mass > 0.0) value += dangling_mass * teleport[dst[r]];
          } else if constexpr (kDangling == DanglingPolicy::kSelfLoop) {
            if (index.dangling(k + r)) value += old[dst[r]];
          }
          value = alpha * value + (1.0 - alpha) * teleport[dst[r]];
        } else {
          const double t = teleport[dst[r]];
          value = alpha * pulled[r] + (1.0 - alpha) * t;
          if constexpr (kDangling == DanglingPolicy::kTeleport) {
            value += alpha * dangling_mass * t;
          } else if constexpr (kDangling == DanglingPolicy::kSelfLoop) {
            if (index.dangling(k + r)) value /= (1.0 - alpha);
          }
        }
        if constexpr (kFold) {
          if (index.dangling(k + r)) dangling_sum += value;
          residual_sum += std::abs(value - old[dst[r]]);
        }
        out[dst[r]] = value;
      }
    };
    // Power rows read only the frozen products, so four pull at once;
    // a Gauss-Seidel row may read the row before it, so rows pull alone.
    constexpr size_t kWidth = kGaussSeidel ? 1 : 4;
    size_t k = 0;
    for (; k + kWidth <= num_rows; k += kWidth) {
      group(std::integral_constant<size_t, kWidth>{}, k);
    }
    for (; k < num_rows; ++k) group(std::integral_constant<size_t, 1>{}, k);
    if constexpr (kFold) *partials = {dangling_sum, residual_sum};
  };
  WithFlag(params.gauss_seidel, [&](auto gauss_seidel) {
    WithTerms(f, [&](auto sink, auto blend) {
      WithPolicy(params.dangling, [&](auto dangling) {
        WithFlag(partials != nullptr, [&](auto fold) {
          rows(gauss_seidel, sink, blend, dangling, fold);
        });
      });
    });
  });
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

/// \brief The loop every Gauss-Seidel and block power solve runs.
/// Starts from the teleport (L1-normalized for power, raw for
/// Gauss-Seidel); each iteration folds the iterate's dangling mass over
/// `dangling` (ascending ids), runs one `round`, L1-normalizes the new
/// iterate (every iteration for Gauss-Seidel, for power only under
/// kRenormalize), and stops once the DiffL1 residual is below the
/// tolerance. A failed round ends the solve with its Status. The caller
/// validates `teleport` and `options`.
Result<PagerankResult> RunBlockIteration(bool gauss_seidel,
                                         std::span<const NodeId> dangling,
                                         std::span<const double> teleport,
                                         const PagerankOptions& options,
                                         const BlockRoundFn& round);

/// \brief OK iff block Gauss-Seidel over several shards supports
/// `dangling`; the kRenormalize rejection (with its explanation)
/// otherwise. Exposed so serving layers can refuse the combination
/// before paying a transition build — there is exactly one copy of this
/// contract.
///
/// When the renormalization constant c differs from 1 (i.e. dangling
/// mass is being dropped), the Gauss-Seidel fixed point satisfies
/// c·x_v = α·Σ_{u sweeps before v} p·c·x_u + α·Σ_{u after v} p·x_u +
/// (1-α)t_v — it depends on the sweep order, which a block sweep cannot
/// reproduce. Solutions would silently drift O(α·dropped-mass) from the
/// single-graph reference (observed ~1e-3), so the combination fails
/// loudly instead. Use kTeleport (identical when no node dangles) or
/// block power iteration, whose kRenormalize parity is bitwise.
Status ValidateBlockGaussSeidelPolicy(DanglingPolicy dangling);

/// \brief Block power iteration: bit-identical to
/// SolvePagerank(graph, transition, teleport, options) for any partition
/// of the same graph, when `slices` holds that transition.
///
/// Requirements mirror SolvePagerank (alpha in [0, 1), tolerance > 0,
/// max_iterations >= 1, teleport a distribution over the nodes), plus
/// `slices` shaped for `partition`: a transition over its nodes, and the
/// weights of every arc under the beta blend (InvalidArgument otherwise;
/// BuildTransitionSlicesLocal guarantees this).
Result<PagerankResult> SolvePagerankPartitioned(
    const TransitionSlices& slices, const GraphPartition& partition,
    std::span<const double> teleport, const PagerankOptions& options,
    const BlockParallelFor& parallel_for = {});

}  // namespace d2pr

#endif  // D2PR_CORE_BLOCK_SOLVER_H_
