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
// Parity contracts (enforced by tests/partition_parity_test.cc and
// tests/partition_fuzz_test.cc):
//
//   * SolvePagerankPartitioned is BIT-IDENTICAL to SolvePagerank for any
//     partition (any scheme, any shard count), including iteration counts
//     and residuals. This is by construction, not by tolerance: both run
//     the one kernel of core/transition_kernel.h over the same factors.
//     The per-source products y = c∘x are the same single multiplies;
//     the reference Multiply scatters y into out[j] in ascending global
//     source order (left-associated, from +0.0), and the partition's
//     in-CSR gathers each owned destination's y terms in exactly that
//     order; both end in the same u∘ pass (FinishDestination). Dangling
//     mass folds over the same ascending dangling list, the teleport
//     blend is element-wise, and the residual is the same full-vector
//     DiffL1 — so every float the reference computes, the block solve
//     recomputes. The factors are literally the TransitionMatrix's (a
//     share of it, or the shard-local builder's bitwise-equal
//     recomputation).
//   * SolveGaussSeidelPartitioned is a genuine *block* method — classic
//     Gauss-Seidel within a shard, Jacobi across shards (remote values
//     frozen at sweep start) — so its iterate path differs from the
//     single-graph Gauss-Seidel sweep, but both contract to the same
//     fixed point: with tolerance <= 1e-11 the solutions agree within
//     1e-9 (the bound the parity suite asserts).
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

#include <functional>
#include <span>

#include "common/result.h"
#include "core/pagerank.h"
#include "core/transition_slices.h"
#include "graph/partition.h"

namespace d2pr {

/// \brief Optional shard-sweep executor: invoke fn(0) .. fn(count - 1),
/// returning only when all invocations finished. The invocations are
/// independent (disjoint writes) and may run concurrently. An empty
/// function runs them sequentially inline.
using BlockParallelFor =
    std::function<void(size_t count, const std::function<void(size_t)>& fn)>;

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
