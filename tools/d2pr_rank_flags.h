// Flag vocabulary and combination rules of the d2pr_rank CLI, split out
// of the binary so tests/flags_test.cc can assert every accepted and
// rejected combination without spawning processes.
//
// ValidateRankFlags performs every check that maps to exit code 2 (usage
// error): unknown flags, missing required flags, numeric ranges, and the
// cross-flag rules (--route requires --shards, --partition requires
// --shards, --tune excludes --seeds/--shards, ...). The binary calls it
// once after parsing and before any I/O, so a typo'd invocation fails in
// microseconds; value extraction stays in the binary.

#ifndef D2PR_TOOLS_D2PR_RANK_FLAGS_H_
#define D2PR_TOOLS_D2PR_RANK_FLAGS_H_

#include <string>

#include "api/engine.h"
#include "api/rank_request.h"
#include "common/flags.h"
#include "common/result.h"
#include "graph/partition.h"
#include "serve/engine_router.h"

namespace d2pr {

/// \brief Parses a --partition value ("range" or "hash").
Result<PartitionScheme> ParsePartitionScheme(const std::string& name);

/// \brief Parses a --method value; empty means the default (power).
Result<SolverMethod> ParseRankMethod(const std::string& name);

/// \brief Parses a --cache-mode value; empty means the default (rw).
Result<PersistMode> ParseCacheMode(const std::string& name);

/// \brief Routing policy + strategy named by one --route value.
struct RouteSpec {
  RoutingPolicy policy = RoutingPolicy::kReplicated;
  ReplicaStrategy strategy = ReplicaStrategy::kRoundRobin;
};

/// \brief Parses a --route value ("replicated", "least-loaded",
/// "partitioned"); empty means the default (replicated round-robin).
Result<RouteSpec> ParseRoute(const std::string& name);

/// \brief Validates the full flag set of d2pr_rank: flag names, value
/// vocabularies (method/route/cache-mode/partition), numeric ranges, and
/// combination rules. OK means the invocation is well-formed; any error
/// corresponds to exit code 2 in the binary.
Status ValidateRankFlags(const Flags& flags);

}  // namespace d2pr

#endif  // D2PR_TOOLS_D2PR_RANK_FLAGS_H_
