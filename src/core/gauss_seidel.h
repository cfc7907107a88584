// Gauss-Seidel PageRank solver (ablation alternative to power iteration).
//
// Solves the same fixed point  x = α·T·x + (1-α)·t  by sweeping nodes in
// order and using already-updated values within the sweep. On typical
// graphs this roughly halves the iteration count versus Jacobi-style power
// iteration at identical per-sweep cost; the library keeps power iteration
// as the default because its iterates remain exact probability
// distributions mid-solve. The bench perf_solver_ablation quantifies the
// trade-off.
//
// The solve is the one-block case of the block iteration
// (core/block_solver.h): RunBlockIteration with a round that runs one
// BlockSweep over the whole graph's in-rows. An undirected graph's
// out-rows are its in-rows, so only a directed graph is transposed. A
// one-shard fleet (dist/coordinator.h) runs bitwise this solve.

#ifndef D2PR_CORE_GAUSS_SEIDEL_H_
#define D2PR_CORE_GAUSS_SEIDEL_H_

#include <span>

#include "common/result.h"
#include "core/pagerank.h"
#include "core/transition.h"
#include "graph/csr_graph.h"

namespace d2pr {

/// \brief Runs Gauss-Seidel sweeps until the L1 change between consecutive
/// iterates drops below options.tolerance.
///
/// Requirements mirror SolvePagerank. Dangling handling follows
/// options.dangling (kRenormalize included: one block sweeps in the
/// reference order), evaluated against the previous iterate's dangling
/// mass (a half-lagged approximation that preserves the fixed point).
/// The returned scores are L1-normalized.
Result<PagerankResult> SolvePagerankGaussSeidel(
    const CsrGraph& graph, const TransitionMatrix& transition,
    std::span<const double> teleport, const PagerankOptions& options);

/// \brief Overload with the uniform teleport vector.
Result<PagerankResult> SolvePagerankGaussSeidel(
    const CsrGraph& graph, const TransitionMatrix& transition,
    const PagerankOptions& options = {});

}  // namespace d2pr

#endif  // D2PR_CORE_GAUSS_SEIDEL_H_
