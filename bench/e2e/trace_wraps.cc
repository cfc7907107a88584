// Link-time seams of the traced binary. e2e_bench_trace links with
// --wrap=<symbol> for the three functions below (see CMakeLists.txt), so
// every call that crosses a translation unit into them — the transition
// resolver's build, the engine's cold and warm-started power solves —
// lands in the __wrap_ definition, which times the call and forwards to
// the __real_ one. The library itself is compiled unchanged. The labels
// are the Itanium-ABI names of the current signatures; a signature change
// turns into a link error of this binary only.

#include "core/pagerank.h"
#include "core/transition.h"
#include "trace.h"

namespace d2pr {

Result<TransitionMatrix> RealBuild(const CsrGraph& graph,
                                   const TransitionConfig& config) __asm__(
    "__real__ZN4d2pr16TransitionMatrix5BuildERKNS_8CsrGraphERKNS_"
    "16TransitionConfigE");
Result<TransitionMatrix> WrapBuild(const CsrGraph& graph,
                                   const TransitionConfig& config) __asm__(
    "__wrap__ZN4d2pr16TransitionMatrix5BuildERKNS_8CsrGraphERKNS_"
    "16TransitionConfigE");

Result<PagerankResult> RealSolve(const CsrGraph& graph,
                                 const TransitionMatrix& transition,
                                 std::span<const double> teleport,
                                 const PagerankOptions& options) __asm__(
    "__real__ZN4d2pr13SolvePagerankERKNS_8CsrGraphERKNS_16TransitionMatrixESt"
    "4spanIKdLm18446744073709551615EERKNS_15PagerankOptionsE");
Result<PagerankResult> WrapSolve(const CsrGraph& graph,
                                 const TransitionMatrix& transition,
                                 std::span<const double> teleport,
                                 const PagerankOptions& options) __asm__(
    "__wrap__ZN4d2pr13SolvePagerankERKNS_8CsrGraphERKNS_16TransitionMatrixESt"
    "4spanIKdLm18446744073709551615EERKNS_15PagerankOptionsE");

Result<PagerankResult> RealSolveFrom(const CsrGraph& graph,
                                     const TransitionMatrix& transition,
                                     std::span<const double> teleport,
                                     std::span<const double> initial,
                                     const PagerankOptions& options) __asm__(
    "__real__ZN4d2pr17SolvePagerankFromERKNS_8CsrGraphERKNS_16TransitionMatri"
    "xESt4spanIKdLm18446744073709551615EES8_RKNS_15PagerankOptionsE");
Result<PagerankResult> WrapSolveFrom(const CsrGraph& graph,
                                     const TransitionMatrix& transition,
                                     std::span<const double> teleport,
                                     std::span<const double> initial,
                                     const PagerankOptions& options) __asm__(
    "__wrap__ZN4d2pr17SolvePagerankFromERKNS_8CsrGraphERKNS_16TransitionMatri"
    "xESt4spanIKdLm18446744073709551615EES8_RKNS_15PagerankOptionsE");

Result<TransitionMatrix> WrapBuild(const CsrGraph& graph,
                                   const TransitionConfig& config) {
  e2e::ScopedSpan span("TransitionMatrix::Build", "core",
                       e2e::GlobalTracer().root());
  return RealBuild(graph, config);
}

Result<PagerankResult> WrapSolve(const CsrGraph& graph,
                                 const TransitionMatrix& transition,
                                 std::span<const double> teleport,
                                 const PagerankOptions& options) {
  e2e::ScopedSpan span("SolvePagerank", "core", e2e::GlobalTracer().root());
  Result<PagerankResult> result =
      RealSolve(graph, transition, teleport, options);
  if (result.ok()) span.set_arg(result->iterations);
  return result;
}

Result<PagerankResult> WrapSolveFrom(const CsrGraph& graph,
                                     const TransitionMatrix& transition,
                                     std::span<const double> teleport,
                                     std::span<const double> initial,
                                     const PagerankOptions& options) {
  // Same span name as the cold solve: both are one power solve, the
  // warm start only changes where it begins.
  e2e::ScopedSpan span("SolvePagerank", "core", e2e::GlobalTracer().root());
  Result<PagerankResult> result =
      RealSolveFrom(graph, transition, teleport, initial, options);
  if (result.ok()) span.set_arg(result->iterations);
  return result;
}

}  // namespace d2pr
