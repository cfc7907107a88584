#include "d2pr_rank_flags.h"

#include <set>

#include "common/string_util.h"

namespace d2pr {

Result<SolverMethod> ParseRankMethod(const std::string& name) {
  if (name.empty() || name == "power") return SolverMethod::kPower;
  if (name == "gauss-seidel") return SolverMethod::kGaussSeidel;
  if (name == "forward-push") return SolverMethod::kForwardPush;
  return Status::InvalidArgument(StrCat("unknown --method '", name, "'"));
}

Result<PersistMode> ParseCacheMode(const std::string& name) {
  if (name.empty() || name == "rw") return PersistMode::kReadWrite;
  if (name == "off") return PersistMode::kOff;
  if (name == "read") return PersistMode::kReadOnly;
  if (name == "write") return PersistMode::kWriteOnly;
  return Status::InvalidArgument(StrCat("unknown --cache-mode '", name, "'"));
}

Status ValidateRankFlags(const Flags& flags) {
  // Every flag the tool understands; anything else is a typo the user
  // should hear about instead of a silently ignored option.
  static const std::set<std::string> kKnown = {
      "graph",  "directed",   "weighted",   "p",
      "alpha",  "beta",       "top",        "top-k",
      "method", "seeds",      "scores-out", "tune",
      "significance",         "stats",      "threads",
      "repeat", "cache-dir",  "cache-mode",
  };
  for (const std::string& name : flags.FlagNames()) {
    if (!kKnown.contains(name)) {
      return Status::InvalidArgument(StrCat("unknown flag --", name));
    }
  }
  if (!flags.positional().empty()) {
    return Status::InvalidArgument(
        StrCat("unexpected argument '", flags.positional().front(), "'"));
  }

  if (flags.GetString("graph").empty()) {
    return Status::InvalidArgument("--graph=EDGELIST is required");
  }
  if (flags.Has("tune") && flags.GetString("significance").empty()) {
    return Status::InvalidArgument("--tune requires --significance=FILE");
  }
  if (flags.Has("significance") && !flags.Has("tune")) {
    return Status::InvalidArgument(
        "--significance is only meaningful with --tune");
  }
  if (flags.Has("tune") && flags.Has("seeds")) {
    return Status::InvalidArgument(
        "--seeds cannot be combined with --tune (tuning maximizes a "
        "global ranking's correlation; personalize after tuning)");
  }

  const auto directed = flags.GetBool("directed", false);
  if (!directed.ok()) return directed.status();
  const auto weighted = flags.GetBool("weighted", false);
  if (!weighted.ok()) return weighted.status();
  const auto p = flags.GetDouble("p", 0.0);
  const auto alpha = flags.GetDouble("alpha", 0.85);
  const auto beta = flags.GetDouble("beta", 0.0);
  const auto top = flags.GetInt("top", 20);
  const auto top_k = flags.GetInt("top-k", 0);
  const auto threads = flags.GetInt("threads", 1);
  const auto repeat = flags.GetInt("repeat", 1);
  if (!p.ok() || !alpha.ok() || !beta.ok() || !top.ok() || !top_k.ok() ||
      !threads.ok() || !repeat.ok()) {
    return Status::InvalidArgument("bad numeric flag");
  }
  if (*threads < 1) return Status::InvalidArgument("--threads must be >= 1");
  if (*repeat < 1) return Status::InvalidArgument("--repeat must be >= 1");

  // --- truncated serving (--top-k) ---
  if (flags.Has("top-k")) {
    if (*top_k < 1) {
      return Status::InvalidArgument("--top-k must be >= 1");
    }
    if (flags.Has("tune")) {
      return Status::InvalidArgument(
          "--top-k cannot be combined with --tune (tuning correlates the "
          "FULL ranking against significance; tune first, truncate after)");
    }
    if (flags.Has("scores-out")) {
      return Status::InvalidArgument(
          "--scores-out needs the full score vector, which a --top-k "
          "response does not carry");
    }
    if (flags.Has("top")) {
      return Status::InvalidArgument(
          "--top and --top-k are mutually exclusive (--top-k already "
          "bounds the served and printed entries)");
    }
  }

  // Value vocabularies: every named option must parse, so a typo'd value
  // is exit 2 here rather than surprise behavior later.
  const auto method = ParseRankMethod(flags.GetString("method"));
  if (!method.ok()) return method.status();
  const auto cache_mode = ParseCacheMode(flags.GetString("cache-mode"));
  if (!cache_mode.ok()) return cache_mode.status();

  if (flags.Has("cache-mode") && !flags.Has("cache-dir")) {
    return Status::InvalidArgument("--cache-mode requires --cache-dir");
  }
  if (flags.Has("cache-dir") && flags.GetString("cache-dir").empty()) {
    return Status::InvalidArgument("--cache-dir requires a directory path");
  }
  return Status::OK();
}

}  // namespace d2pr
