#include "common/flags.h"

#include <gtest/gtest.h>

#include "d2pr_rank_flags.h"

namespace d2pr {
namespace {

Flags ParseOrDie(std::vector<const char*> args) {
  auto flags = Flags::Parse(static_cast<int>(args.size()), args.data());
  EXPECT_TRUE(flags.ok()) << flags.status().ToString();
  return std::move(flags).value();
}

TEST(FlagsTest, EqualsSyntax) {
  Flags flags = ParseOrDie({"--p=0.5", "--graph=edges.txt"});
  EXPECT_TRUE(flags.Has("p"));
  EXPECT_EQ(flags.GetString("graph"), "edges.txt");
  EXPECT_DOUBLE_EQ(flags.GetDouble("p", 0.0).value(), 0.5);
}

TEST(FlagsTest, SpaceSyntax) {
  Flags flags = ParseOrDie({"--alpha", "0.9", "--top", "5"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0.0).value(), 0.9);
  EXPECT_EQ(flags.GetInt("top", 0).value(), 5);
}

TEST(FlagsTest, BareBooleanFlags) {
  Flags flags = ParseOrDie({"--directed", "--weighted=false", "--stats"});
  EXPECT_TRUE(flags.GetBool("directed", false).value());
  EXPECT_FALSE(flags.GetBool("weighted", true).value());
  EXPECT_TRUE(flags.Has("stats"));
  EXPECT_FALSE(flags.GetBool("absent", false).value());
  EXPECT_TRUE(flags.GetBool("absent", true).value());
}

TEST(FlagsTest, PositionalArguments) {
  Flags flags = ParseOrDie({"input.txt", "--p=1", "output.txt"});
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"input.txt", "output.txt"}));
}

TEST(FlagsTest, FallbacksWhenAbsent) {
  Flags flags = ParseOrDie({});
  EXPECT_EQ(flags.GetString("missing", "default"), "default");
  EXPECT_DOUBLE_EQ(flags.GetDouble("missing", 2.5).value(), 2.5);
  EXPECT_EQ(flags.GetInt("missing", -3).value(), -3);
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagsTest, BadNumbersAreErrors) {
  Flags flags = ParseOrDie({"--p=abc", "--n=1.5", "--b=maybe"});
  EXPECT_FALSE(flags.GetDouble("p", 0.0).ok());
  EXPECT_FALSE(flags.GetInt("n", 0).ok());
  EXPECT_FALSE(flags.GetBool("b", false).ok());
}

TEST(FlagsTest, MalformedFlagRejected) {
  std::vector<const char*> args{"--=value"};
  auto flags = Flags::Parse(1, args.data());
  EXPECT_FALSE(flags.ok());
}

TEST(FlagsTest, LastValueWins) {
  Flags flags = ParseOrDie({"--p=1", "--p=2"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("p", 0.0).value(), 2.0);
}

TEST(FlagsTest, NegativeNumberAsSeparateValue) {
  // "--p -1" treats "-1" as the value (does not start with "--").
  Flags flags = ParseOrDie({"--p", "-1.5"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("p", 0.0).value(), -1.5);
}

TEST(FlagsTest, FlagNamesEnumerated) {
  Flags flags = ParseOrDie({"--b=1", "--a=2"});
  EXPECT_EQ(flags.FlagNames(), (std::vector<std::string>{"a", "b"}));
}

// ---------------------------------------------------------------------
// d2pr_rank flag-combination rules (ValidateRankFlags). Every rejection
// here is exit code 2 in the binary; every acceptance proceeds to run.
// ---------------------------------------------------------------------

Status ValidateArgs(std::vector<const char*> args) {
  auto flags = Flags::Parse(static_cast<int>(args.size()), args.data());
  EXPECT_TRUE(flags.ok()) << flags.status().ToString();
  return ValidateRankFlags(*flags);
}

TEST(RankFlagsTest, MinimalInvocationAccepted) {
  EXPECT_TRUE(ValidateArgs({"--graph=g.txt"}).ok());
}

TEST(RankFlagsTest, GraphIsRequired) {
  EXPECT_FALSE(ValidateArgs({"--p=0.5"}).ok());
}

TEST(RankFlagsTest, UnknownFlagRejected) {
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--partiton=range"}).ok());
  // The partitioned router always slices the resolved matrix; the old
  // slice-construction switch is gone.
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--partition=range",
                             "--shards=4", "--slices=matrix"})
                   .ok());
}

TEST(RankFlagsTest, PartitionRequiresShards) {
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--partition=range"}).ok());
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--partition=hash"}).ok());
  EXPECT_TRUE(
      ValidateArgs({"--graph=g.txt", "--partition=range", "--shards=4"})
          .ok());
  EXPECT_TRUE(
      ValidateArgs({"--graph=g.txt", "--partition=hash", "--shards=1"})
          .ok());
}

TEST(RankFlagsTopKTest, AcceptedAndRejectedCombinations) {
  EXPECT_TRUE(ValidateArgs({"--graph=g.txt", "--top-k=10"}).ok());
  EXPECT_TRUE(ValidateArgs({"--graph=g.txt", "--top-k=1",
                            "--method=forward-push", "--seeds=3"})
                  .ok());
  EXPECT_TRUE(ValidateArgs({"--graph=g.txt", "--top-k=10", "--shards=2",
                            "--route=partitioned"})
                  .ok());

  // k must be a positive count; 0 would silently mean "exact", so it is
  // rejected rather than reinterpreted.
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--top-k=0"}).ok());
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--top-k=-5"}).ok());
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--top-k=ten"}).ok());
}

TEST(RankFlagsTopKTest, ExcludesTuneAndPartitionAndFullVectorOutputs) {
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--top-k=10", "--tune",
                             "--significance=s.txt"})
                   .ok());
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--top-k=10",
                             "--partition=range", "--shards=2"})
                   .ok());
  EXPECT_FALSE(
      ValidateArgs({"--graph=g.txt", "--top-k=10", "--scores-out=s.bin"})
          .ok());
  EXPECT_FALSE(
      ValidateArgs({"--graph=g.txt", "--top-k=10", "--top=20"}).ok());
}

TEST(RankFlagsTest, PartitionSchemeNamesValidated) {
  EXPECT_FALSE(
      ValidateArgs({"--graph=g.txt", "--partition=modulo", "--shards=2"})
          .ok());
  EXPECT_FALSE(
      ValidateArgs({"--graph=g.txt", "--partition", "--shards=2"}).ok());
  EXPECT_FALSE(ParsePartitionScheme("").ok());
  EXPECT_TRUE(ParsePartitionScheme("range").ok());
  EXPECT_EQ(ParsePartitionScheme("hash").value(), PartitionScheme::kHash);
}

TEST(RankFlagsTest, PartitionExcludesRoute) {
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--partition=range",
                             "--shards=2", "--route=replicated"})
                   .ok());
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--partition=hash",
                             "--shards=2", "--route=partitioned"})
                   .ok());
}

TEST(RankFlagsTest, PartitionExcludesForwardPush) {
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--partition=range",
                             "--shards=2", "--method=forward-push"})
                   .ok());
  EXPECT_TRUE(ValidateArgs({"--graph=g.txt", "--partition=range",
                            "--shards=2", "--method=gauss-seidel"})
                  .ok());
  EXPECT_TRUE(ValidateArgs({"--graph=g.txt", "--partition=range",
                            "--shards=2", "--method=power"})
                  .ok());
}

TEST(RankFlagsTest, PartitionExcludesTuneViaShardsRule) {
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--partition=range",
                             "--shards=2", "--tune",
                             "--significance=s.txt"})
                   .ok());
}

TEST(RankFlagsTest, PartitionComposesWithServingAndCacheFlags) {
  EXPECT_TRUE(ValidateArgs({"--graph=g.txt", "--partition=hash",
                            "--shards=4", "--threads=4", "--repeat=16",
                            "--cache-dir=/tmp/store", "--cache-mode=rw",
                            "--seeds=1,2,3"})
                  .ok());
}

TEST(RankFlagsTest, ValueVocabulariesValidated) {
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--method=jacobi"}).ok());
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--shards=2",
                             "--route=scatter"})
                   .ok());
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--cache-dir=/tmp/s",
                             "--cache-mode=sometimes"})
                   .ok());
  EXPECT_TRUE(ValidateArgs({"--graph=g.txt", "--method=gauss-seidel",
                            "--shards=2", "--route=least-loaded",
                            "--cache-dir=/tmp/s", "--cache-mode=read"})
                  .ok());
  EXPECT_EQ(ParseRankMethod("forward-push").value(),
            SolverMethod::kForwardPush);
  EXPECT_EQ(ParseCacheMode("write").value(), PersistMode::kWriteOnly);
  EXPECT_EQ(ParseRoute("partitioned").value().policy,
            RoutingPolicy::kPartitionedTeleport);
  EXPECT_EQ(ParseRoute("").value().strategy, ReplicaStrategy::kRoundRobin);
}

TEST(RankFlagsTest, ExistingCombinationRulesStillEnforced) {
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--route=replicated"}).ok());
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--cache-mode=rw"}).ok());
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--tune"}).ok());
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--significance=s.txt"}).ok());
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--tune",
                             "--significance=s.txt", "--seeds=1"})
                   .ok());
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--tune",
                             "--significance=s.txt", "--shards=2"})
                   .ok());
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--shards=0"}).ok());
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--threads=-1"}).ok());
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--repeat=0"}).ok());
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "--p=abc"}).ok());
  EXPECT_FALSE(ValidateArgs({"--graph=g.txt", "stray-positional"}).ok());
}

}  // namespace
}  // namespace d2pr
