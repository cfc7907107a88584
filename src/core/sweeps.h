// Parameter sweeps: evaluate D2PR across grids of p, alpha, or beta.
//
// The paper's entire evaluation is sweeps of this form (p from -4 to 4 in
// steps of 0.5, alpha in {0.5, 0.7, 0.85, 0.9}, beta in {0, .25, .5, .75,
// 1}); these helpers centralize the loop so benches and applications share
// one implementation.

#ifndef D2PR_CORE_SWEEPS_H_
#define D2PR_CORE_SWEEPS_H_

#include <vector>

#include "common/result.h"
#include "core/d2pr.h"
#include "graph/csr_graph.h"

namespace d2pr {

class D2prEngine;

/// \brief Inclusive arithmetic grid lo, lo+step, ..., hi (hi included when
/// it falls on the grid within 1e-9).
std::vector<double> LinearGrid(double lo, double hi, double step);

/// \brief The paper's default p grid: -4 to 4 in steps of 0.5.
std::vector<double> PaperPGrid();

/// \brief The paper's alpha values: {0.5, 0.7, 0.85, 0.9}.
std::vector<double> PaperAlphaGrid();

/// \brief The paper's beta values: {0, 0.25, 0.5, 0.75, 1}.
std::vector<double> PaperBetaGrid();

/// \brief One evaluated grid point.
struct SweepPoint {
  double parameter = 0.0;       ///< The swept value (p, alpha, or beta).
  PagerankResult result;        ///< Full solver output at that value.
};

/// \brief Computes D2PR for every p in `p_values` (other knobs from
/// `base`). Fails fast on the first invalid configuration.
Result<std::vector<SweepPoint>> SweepP(const CsrGraph& graph,
                                       const std::vector<double>& p_values,
                                       const D2prOptions& base = {});

/// \brief Sweeps alpha with p (and the rest) fixed in `base`.
Result<std::vector<SweepPoint>> SweepAlpha(
    const CsrGraph& graph, const std::vector<double>& alpha_values,
    const D2prOptions& base = {});

/// \brief Sweeps beta with p fixed (weighted graphs).
Result<std::vector<SweepPoint>> SweepBeta(
    const CsrGraph& graph, const std::vector<double>& beta_values,
    const D2prOptions& base = {});

// Engine-routed variants: reuse the engine's transition cache across calls
// and solve the grid through D2prEngine::RankBatch, which runs up to
// kMaxBatchColumns points per pass over the arcs (SolvePagerankBatch).
// Every point is bit-identical to its own cold solve. The free functions
// above are thin wrappers running these on a call-scoped engine; pass a
// long-lived engine to amortize transition builds across repeated sweeps
// and tuner probes on the same graph.

Result<std::vector<SweepPoint>> SweepP(D2prEngine& engine,
                                       const std::vector<double>& p_values,
                                       const D2prOptions& base = {});

Result<std::vector<SweepPoint>> SweepAlpha(
    D2prEngine& engine, const std::vector<double>& alpha_values,
    const D2prOptions& base = {});

Result<std::vector<SweepPoint>> SweepBeta(
    D2prEngine& engine, const std::vector<double>& beta_values,
    const D2prOptions& base = {});

}  // namespace d2pr

#endif  // D2PR_CORE_SWEEPS_H_
