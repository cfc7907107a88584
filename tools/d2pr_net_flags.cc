#include "d2pr_net_flags.h"

#include <set>
#include <string>

#include "common/string_util.h"

namespace d2pr {
namespace {

Status CheckKnown(const Flags& flags, const std::set<std::string>& known) {
  for (const std::string& name : flags.FlagNames()) {
    if (!known.contains(name)) {
      return Status::InvalidArgument(StrCat("unknown flag --", name));
    }
  }
  if (!flags.positional().empty()) {
    return Status::InvalidArgument(
        StrCat("unexpected argument '", flags.positional().front(), "'"));
  }
  return Status::OK();
}

/// --port: the server may bind 0 (ephemeral); the loadgen must aim at a
/// real port, so its minimum is 1.
Status CheckPort(const Flags& flags, int64_t minimum) {
  const auto port = flags.GetInt("port", minimum);
  if (!port.ok()) return port.status();
  if (*port < minimum || *port > 65535) {
    return Status::InvalidArgument(
        StrCat("--port must lie in [", minimum, ", 65535]"));
  }
  return Status::OK();
}

Status CheckDeadline(const Flags& flags) {
  const auto deadline = flags.GetInt("deadline-ms", 1);
  if (!deadline.ok()) return deadline.status();
  if (*deadline < 1) {
    return Status::InvalidArgument(
        "--deadline-ms must be >= 1 (omit the flag for no deadline; a "
        "zero deadline would expire every request unserved)");
  }
  return Status::OK();
}

}  // namespace

namespace {

/// Graph-source rules shared by the server (both roles) and the cluster
/// launcher: --graph excludes the synthetic knobs, --directed/--weighted
/// require --graph.
Status CheckGraphFlags(const Flags& flags) {
  const auto nodes = flags.GetInt("nodes", 10000);
  const auto edges_per_node = flags.GetInt("edges-per-node", 8);
  const auto gen_seed = flags.GetInt("gen-seed", 42);
  const auto directed = flags.GetBool("directed", false);
  const auto weighted = flags.GetBool("weighted", false);
  if (!nodes.ok() || !edges_per_node.ok() || !gen_seed.ok()) {
    return Status::InvalidArgument("bad numeric flag");
  }
  if (!directed.ok() || !weighted.ok()) {
    return Status::InvalidArgument("bad boolean flag");
  }
  if (*nodes < 2) return Status::InvalidArgument("--nodes must be >= 2");
  if (*edges_per_node < 1) {
    return Status::InvalidArgument("--edges-per-node must be >= 1");
  }
  if (flags.Has("graph")) {
    if (flags.GetString("graph").empty()) {
      return Status::InvalidArgument("--graph requires a file path");
    }
    if (flags.Has("nodes") || flags.Has("edges-per-node") ||
        flags.Has("gen-seed")) {
      return Status::InvalidArgument(
          "--graph excludes the synthetic-graph flags "
          "(--nodes/--edges-per-node/--gen-seed)");
    }
  } else if (flags.Has("directed") || flags.Has("weighted")) {
    return Status::InvalidArgument(
        "--directed/--weighted only apply to --graph files (the "
        "synthetic generator fixes its own graph kind)");
  }
  return Status::OK();
}

/// Transition-model knobs shared by the shard role and the cluster
/// launcher (the solving tiers' vocabulary: p finite, beta in [0, 1]).
Status CheckTransitionFlags(const Flags& flags) {
  const auto p = flags.GetDouble("p", 0.5);
  const auto beta = flags.GetDouble("beta", 0.0);
  if (!p.ok() || !beta.ok()) {
    return Status::InvalidArgument("bad numeric flag");
  }
  if (*beta < 0.0 || *beta > 1.0) {
    return Status::InvalidArgument("--beta must lie in [0, 1]");
  }
  return Status::OK();
}

Status CheckScheme(const Flags& flags) {
  const std::string scheme = flags.GetString("scheme");
  if (!scheme.empty() && scheme != "range" && scheme != "hash") {
    return Status::InvalidArgument(
        StrCat("unknown --scheme '", scheme, "' (expected range or hash)"));
  }
  return Status::OK();
}

}  // namespace

Status ValidateServerFlags(const Flags& flags) {
  static const std::set<std::string> kKnown = {
      "port",    "threads",        "shards",   "max-queue",
      "coalesce", "graph",         "directed", "weighted",
      "nodes",   "edges-per-node", "gen-seed",
      "shard-role", "shard-id",    "shard-count", "scheme", "p", "beta",
      "shard-file",
  };
  D2PR_RETURN_NOT_OK(CheckKnown(flags, kKnown));
  D2PR_RETURN_NOT_OK(CheckPort(flags, /*minimum=*/0));

  const auto shard_role = flags.GetBool("shard-role", false);
  if (!shard_role.ok()) return Status::InvalidArgument("bad boolean flag");
  if (*shard_role) {
    // Shard role: one partition shard behind the v2 wire. The serving
    // policy flags belong to the front-door role only.
    for (const char* excluded :
         {"shards", "max-queue", "coalesce", "threads"}) {
      if (flags.Has(excluded)) {
        return Status::InvalidArgument(
            StrCat("--", excluded, " does not apply to --shard-role"));
      }
    }
    if (flags.Has("shard-file")) {
      // Pre-cut path: shard id, count, scheme, and graph identity all
      // come from the cut file's validated metadata — passing any of
      // them here could only contradict the file, so they are rejected
      // rather than silently ignored. Only the transition model stays
      // the command line's to choose.
      if (flags.GetString("shard-file").empty()) {
        return Status::InvalidArgument("--shard-file requires a file path");
      }
      for (const char* excluded :
           {"shard-id", "shard-count", "scheme", "graph", "directed",
            "weighted", "nodes", "edges-per-node", "gen-seed"}) {
        if (flags.Has(excluded)) {
          return Status::InvalidArgument(StrCat(
              "--", excluded,
              " does not apply to --shard-file (the cut file's metadata "
              "fixes the shard topology and the graph)"));
        }
      }
      return CheckTransitionFlags(flags);
    }
    const auto shard_id = flags.GetInt("shard-id", 0);
    const auto shard_count = flags.GetInt("shard-count", 1);
    if (!shard_id.ok() || !shard_count.ok()) {
      return Status::InvalidArgument("bad numeric flag");
    }
    if (*shard_count < 1) {
      return Status::InvalidArgument("--shard-count must be >= 1");
    }
    if (*shard_id < 0 || *shard_id >= *shard_count) {
      return Status::InvalidArgument(
          "--shard-id must lie in [0, shard-count)");
    }
    D2PR_RETURN_NOT_OK(CheckScheme(flags));
    D2PR_RETURN_NOT_OK(CheckTransitionFlags(flags));
    return CheckGraphFlags(flags);
  }
  for (const char* shard_only :
       {"shard-id", "shard-count", "scheme", "p", "beta", "shard-file"}) {
    if (flags.Has(shard_only)) {
      return Status::InvalidArgument(
          StrCat("--", shard_only, " requires --shard-role"));
    }
  }

  const auto threads = flags.GetInt("threads", 4);
  const auto shards = flags.GetInt("shards", 1);
  const auto max_queue = flags.GetInt("max-queue", 256);
  const auto coalesce = flags.GetBool("coalesce", true);
  if (!threads.ok() || !shards.ok() || !max_queue.ok()) {
    return Status::InvalidArgument("bad numeric flag");
  }
  if (!coalesce.ok()) return Status::InvalidArgument("bad boolean flag");
  if (*threads < 1) return Status::InvalidArgument("--threads must be >= 1");
  if (*shards < 1) return Status::InvalidArgument("--shards must be >= 1");
  if (*max_queue < 1) {
    return Status::InvalidArgument(
        "--max-queue must be >= 1 (a zero bound would shed every request)");
  }
  return CheckGraphFlags(flags);
}

Status ValidateLoadGenFlags(const Flags& flags) {
  static const std::set<std::string> kKnown = {
      "port", "host",   "connections",     "requests", "zipf-s",
      "zipf-n", "global-fraction", "deadline-ms", "seed",
      "p",    "alpha",  "method", "top-k",
  };
  D2PR_RETURN_NOT_OK(CheckKnown(flags, kKnown));
  if (!flags.Has("port")) {
    return Status::InvalidArgument("--port=N is required (no server to find)");
  }
  D2PR_RETURN_NOT_OK(CheckPort(flags, /*minimum=*/1));
  if (flags.Has("deadline-ms")) D2PR_RETURN_NOT_OK(CheckDeadline(flags));

  const auto connections = flags.GetInt("connections", 4);
  const auto requests = flags.GetInt("requests", 100);
  const auto zipf_s = flags.GetDouble("zipf-s", 1.1);
  const auto zipf_n = flags.GetInt("zipf-n", 0);
  const auto global_fraction = flags.GetDouble("global-fraction", 0.0);
  const auto seed = flags.GetInt("seed", 1);
  const auto p = flags.GetDouble("p", 0.5);
  const auto alpha = flags.GetDouble("alpha", 0.85);
  const auto top_k = flags.GetInt("top-k", 0);
  if (!connections.ok() || !requests.ok() || !zipf_s.ok() || !zipf_n.ok() ||
      !global_fraction.ok() || !seed.ok() || !p.ok() || !alpha.ok() ||
      !top_k.ok()) {
    return Status::InvalidArgument("bad numeric flag");
  }
  if (flags.Has("top-k") && *top_k < 1) {
    return Status::InvalidArgument("--top-k must be >= 1");
  }
  if (*connections < 1) {
    return Status::InvalidArgument("--connections must be >= 1");
  }
  if (*requests < 1) return Status::InvalidArgument("--requests must be >= 1");
  if (*zipf_s <= 0.0 || *zipf_s > kMaxZipfExponent) {
    return Status::InvalidArgument(
        StrCat("--zipf-s must lie in (0, ", kMaxZipfExponent,
               "] (the Zipf exponent of the query-popularity mix)"));
  }
  if (*zipf_n < 0) return Status::InvalidArgument("--zipf-n must be >= 0");
  if (*global_fraction < 0.0 || *global_fraction > 1.0) {
    return Status::InvalidArgument("--global-fraction must lie in [0, 1]");
  }
  if (*alpha < 0.0 || *alpha >= 1.0) {
    return Status::InvalidArgument("--alpha must lie in [0, 1)");
  }
  const std::string method = flags.GetString("method");
  if (!method.empty() && method != "power" && method != "gauss-seidel" &&
      method != "forward-push") {
    return Status::InvalidArgument(StrCat("unknown --method '", method, "'"));
  }
  return Status::OK();
}

Status ValidateClusterFlags(const Flags& flags) {
  static const std::set<std::string> kKnown = {
      "shard-ports", "host",     "scheme",  "method",    "dangling",
      "p",           "beta",     "alpha",   "tolerance", "max-iterations",
      "deadline-ms", "retries",  "compare", "graph",     "directed",
      "weighted",    "nodes",    "edges-per-node",       "gen-seed",
      "cut-dir",
  };
  D2PR_RETURN_NOT_OK(CheckKnown(flags, kKnown));
  if (!flags.Has("shard-ports")) {
    return Status::InvalidArgument(
        "--shard-ports=P1,P2,... is required (one port per shard, "
        "shard id = list position)");
  }
  if (flags.GetString("shard-ports").empty()) {
    return Status::InvalidArgument("--shard-ports must list at least one port");
  }
  if (flags.Has("cut-dir") && flags.GetString("cut-dir").empty()) {
    return Status::InvalidArgument("--cut-dir requires a directory path");
  }
  D2PR_RETURN_NOT_OK(CheckScheme(flags));
  D2PR_RETURN_NOT_OK(CheckTransitionFlags(flags));
  D2PR_RETURN_NOT_OK(CheckGraphFlags(flags));
  if (flags.Has("deadline-ms")) D2PR_RETURN_NOT_OK(CheckDeadline(flags));

  const auto alpha = flags.GetDouble("alpha", 0.85);
  const auto tolerance = flags.GetDouble("tolerance", 1e-10);
  const auto max_iterations = flags.GetInt("max-iterations", 200);
  const auto retries = flags.GetInt("retries", 2);
  const auto compare = flags.GetBool("compare", true);
  if (!alpha.ok() || !tolerance.ok() || !max_iterations.ok() ||
      !retries.ok()) {
    return Status::InvalidArgument("bad numeric flag");
  }
  if (!compare.ok()) return Status::InvalidArgument("bad boolean flag");
  if (*alpha < 0.0 || *alpha >= 1.0) {
    return Status::InvalidArgument("--alpha must lie in [0, 1)");
  }
  if (*tolerance <= 0.0) {
    return Status::InvalidArgument("--tolerance must be > 0");
  }
  if (*max_iterations < 1) {
    return Status::InvalidArgument("--max-iterations must be >= 1");
  }
  if (*retries < 0) return Status::InvalidArgument("--retries must be >= 0");

  const std::string method = flags.GetString("method");
  if (!method.empty() && method != "power" && method != "gauss-seidel") {
    return Status::InvalidArgument(
        StrCat("unknown --method '", method,
               "' (the distributed block solve supports power and "
               "gauss-seidel)"));
  }
  const std::string dangling = flags.GetString("dangling");
  if (!dangling.empty() && dangling != "teleport" &&
      dangling != "self-loop" && dangling != "renormalize") {
    return Status::InvalidArgument(
        StrCat("unknown --dangling '", dangling,
               "' (expected teleport, self-loop, or renormalize)"));
  }
  if (dangling == "renormalize" && method == "gauss-seidel") {
    return Status::InvalidArgument(
        "--dangling=renormalize is incompatible with "
        "--method=gauss-seidel (the block Gauss-Seidel fixed point would "
        "depend on sweep order)");
  }
  return Status::OK();
}

Status ValidatePartitionCutFlags(const Flags& flags) {
  static const std::set<std::string> kKnown = {
      "out-dir", "shards", "scheme",         "graph",    "directed",
      "weighted", "nodes", "edges-per-node", "gen-seed",
  };
  D2PR_RETURN_NOT_OK(CheckKnown(flags, kKnown));
  if (!flags.Has("out-dir") || flags.GetString("out-dir").empty()) {
    return Status::InvalidArgument(
        "--out-dir=DIR is required (where the cut files go)");
  }
  const auto shards = flags.GetInt("shards", 2);
  if (!shards.ok()) return Status::InvalidArgument("bad numeric flag");
  if (*shards < 1) return Status::InvalidArgument("--shards must be >= 1");
  D2PR_RETURN_NOT_OK(CheckScheme(flags));
  return CheckGraphFlags(flags);
}

}  // namespace d2pr
