// Flag validation of the network CLIs (d2pr_server, d2pr_loadgen): every
// accepted and rejected combination, without spawning processes. A
// rejection here is exit code 2 in the binary.

#include "d2pr_net_flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace d2pr {
namespace {

Flags ParseOrDie(std::vector<const char*> args) {
  auto flags = Flags::Parse(static_cast<int>(args.size()), args.data());
  EXPECT_TRUE(flags.ok()) << flags.status().ToString();
  return std::move(flags).value();
}

Status Server(std::vector<const char*> args) {
  return ValidateServerFlags(ParseOrDie(std::move(args)));
}

Status LoadGen(std::vector<const char*> args) {
  return ValidateLoadGenFlags(ParseOrDie(std::move(args)));
}

// ---------------------------------------------------------------- server

TEST(NetFlagsTest, ServerDefaultsAreValid) {
  EXPECT_TRUE(Server({}).ok());
}

TEST(NetFlagsTest, ServerAcceptsFullSyntheticConfiguration) {
  EXPECT_TRUE(Server({"--port=8080", "--threads=8", "--max-queue=64",
                      "--coalesce=false", "--nodes=5000",
                      "--edges-per-node=4", "--gen-seed=7"})
                  .ok());
}

TEST(NetFlagsTest, ServerAcceptsGraphFileWithOrientationFlags) {
  EXPECT_TRUE(
      Server({"--graph=edges.txt", "--directed", "--weighted"}).ok());
}

TEST(NetFlagsTest, ServerRejectsShardCountAsUnknownFlag) {
  // The front door serves one whole-graph engine; a partitioned graph is
  // served by the shard fleet (--shard-role workers under d2pr_cluster).
  for (const char* shards : {"--shards=1", "--shards=2", "--shards=8"}) {
    SCOPED_TRACE(shards);
    const Status status = Server({shards});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(), "unknown flag --shards");
  }
}

TEST(NetFlagsTest, ServerRejectsUnknownFlagAndPositionals) {
  EXPECT_FALSE(Server({"--bogus=1"}).ok());
  EXPECT_FALSE(Server({"stray"}).ok());
}

TEST(NetFlagsTest, ServerRejectsBadPort) {
  EXPECT_FALSE(Server({"--port=70000"}).ok());
  EXPECT_FALSE(Server({"--port=-1"}).ok());
  EXPECT_FALSE(Server({"--port=abc"}).ok());
  EXPECT_TRUE(Server({"--port=0"}).ok());  // ephemeral is legal here
  EXPECT_TRUE(Server({"--port=65535"}).ok());
}

TEST(NetFlagsTest, ServerRejectsOutOfRangeNumerics) {
  EXPECT_FALSE(Server({"--threads=0"}).ok());
  EXPECT_FALSE(Server({"--max-queue=0"}).ok());
  EXPECT_FALSE(Server({"--nodes=1"}).ok());
  EXPECT_FALSE(Server({"--edges-per-node=0"}).ok());
  EXPECT_FALSE(Server({"--threads=two"}).ok());
  EXPECT_FALSE(Server({"--coalesce=maybe"}).ok());
}

TEST(NetFlagsTest, ServerRejectsGraphSourceConflicts) {
  EXPECT_FALSE(Server({"--graph="}).ok());
  EXPECT_FALSE(Server({"--graph=edges.txt", "--nodes=100"}).ok());
  EXPECT_FALSE(Server({"--graph=edges.txt", "--edges-per-node=2"}).ok());
  EXPECT_FALSE(Server({"--graph=edges.txt", "--gen-seed=1"}).ok());
  // Orientation flags describe a file; meaningless for the generator.
  EXPECT_FALSE(Server({"--directed"}).ok());
  EXPECT_FALSE(Server({"--weighted", "--nodes=100"}).ok());
}

// --------------------------------------------------------------- loadgen

TEST(NetFlagsTest, LoadGenRequiresPort) {
  EXPECT_FALSE(LoadGen({}).ok());
  EXPECT_FALSE(LoadGen({"--connections=2"}).ok());
  EXPECT_TRUE(LoadGen({"--port=9000"}).ok());
}

TEST(NetFlagsTest, LoadGenAcceptsFullConfiguration) {
  EXPECT_TRUE(LoadGen({"--port=9000", "--host=127.0.0.1",
                       "--connections=8", "--requests=500", "--zipf-s=0.9",
                       "--zipf-n=100000", "--global-fraction=0.1",
                       "--deadline-ms=250", "--seed=3", "--p=1.5",
                       "--alpha=0.9", "--method=forward-push"})
                  .ok());
}

TEST(NetFlagsTest, LoadGenRejectsUnknownFlagAndPositionals) {
  EXPECT_FALSE(LoadGen({"--port=9000", "--zipf=1.1"}).ok());
  EXPECT_FALSE(LoadGen({"--port=9000", "run"}).ok());
}

TEST(NetFlagsTest, LoadGenRejectsBadPort) {
  // Unlike the server, the loadgen cannot aim at port 0.
  EXPECT_FALSE(LoadGen({"--port=0"}).ok());
  EXPECT_FALSE(LoadGen({"--port=70000"}).ok());
  EXPECT_FALSE(LoadGen({"--port=-5"}).ok());
  EXPECT_FALSE(LoadGen({"--port=localhost"}).ok());
}

TEST(NetFlagsTest, LoadGenRejectsZeroDeadline) {
  // deadline 0 means "no deadline" on the wire; as an explicit flag it
  // would silently disable what the user asked for, so it is an error.
  EXPECT_FALSE(LoadGen({"--port=9000", "--deadline-ms=0"}).ok());
  EXPECT_FALSE(LoadGen({"--port=9000", "--deadline-ms=-1"}).ok());
  EXPECT_TRUE(LoadGen({"--port=9000", "--deadline-ms=1"}).ok());
}

TEST(NetFlagsTest, LoadGenRejectsZipfOutOfRange) {
  EXPECT_FALSE(LoadGen({"--port=9000", "--zipf-s=0"}).ok());
  EXPECT_FALSE(LoadGen({"--port=9000", "--zipf-s=-1"}).ok());
  EXPECT_FALSE(LoadGen({"--port=9000", "--zipf-s=8.5"}).ok());
  EXPECT_TRUE(LoadGen({"--port=9000", "--zipf-s=8"}).ok());
  EXPECT_FALSE(LoadGen({"--port=9000", "--zipf-n=-1"}).ok());
}

TEST(NetFlagsTest, LoadGenRejectsOutOfRangeNumerics) {
  EXPECT_FALSE(LoadGen({"--port=9000", "--connections=0"}).ok());
  EXPECT_FALSE(LoadGen({"--port=9000", "--requests=0"}).ok());
  EXPECT_FALSE(LoadGen({"--port=9000", "--global-fraction=1.5"}).ok());
  EXPECT_FALSE(LoadGen({"--port=9000", "--global-fraction=-0.1"}).ok());
  EXPECT_FALSE(LoadGen({"--port=9000", "--alpha=1.0"}).ok());
  EXPECT_FALSE(LoadGen({"--port=9000", "--alpha=-0.2"}).ok());
  EXPECT_FALSE(LoadGen({"--port=9000", "--requests=many"}).ok());
}

TEST(NetFlagsTopKTest, LoadGenAcceptsPositiveRejectsNonPositive) {
  EXPECT_TRUE(LoadGen({"--port=9000", "--top-k=10"}).ok());
  EXPECT_TRUE(LoadGen({"--port=9000", "--top-k=1",
                       "--method=forward-push"})
                  .ok());
  EXPECT_FALSE(LoadGen({"--port=9000", "--top-k=0"}).ok());
  EXPECT_FALSE(LoadGen({"--port=9000", "--top-k=-3"}).ok());
  EXPECT_FALSE(LoadGen({"--port=9000", "--top-k=many"}).ok());
  // The server has no such flag: it serves whatever the requests ask.
  EXPECT_FALSE(Server({"--top-k=10"}).ok());
}

TEST(NetFlagsTest, LoadGenRejectsUnknownMethod) {
  EXPECT_FALSE(LoadGen({"--port=9000", "--method=jacobi"}).ok());
  for (const char* method : {"power", "gauss-seidel", "forward-push"}) {
    SCOPED_TRACE(method);
    EXPECT_TRUE(
        LoadGen({"--port=9000",
                 (std::string("--method=") + method).c_str()})
            .ok());
  }
}

// ------------------------------------------------------------ shard role

Status Cluster(std::vector<const char*> args) {
  return ValidateClusterFlags(ParseOrDie(std::move(args)));
}

TEST(NetFlagsDistTest, ShardRoleAcceptsFullConfiguration) {
  EXPECT_TRUE(Server({"--shard-role", "--shard-id=1", "--shard-count=4",
                      "--scheme=hash", "--p=0.75", "--beta=0.5",
                      "--port=9100", "--nodes=5000"})
                  .ok());
  EXPECT_TRUE(Server({"--shard-role"}).ok());  // defaults: shard 0 of 1
}

TEST(NetFlagsDistTest, ShardRoleRejectsIdOutsideCount) {
  EXPECT_FALSE(Server({"--shard-role", "--shard-id=2", "--shard-count=2"})
                   .ok());
  EXPECT_FALSE(Server({"--shard-role", "--shard-id=-1"}).ok());
  EXPECT_FALSE(Server({"--shard-role", "--shard-count=0"}).ok());
  EXPECT_TRUE(Server({"--shard-role", "--shard-id=1", "--shard-count=2"})
                  .ok());
}

TEST(NetFlagsDistTest, ShardRoleRejectsServingPolicyFlags) {
  // A shard process is not the front door: the serving knobs have
  // nothing to configure and silently ignoring them would mislead.
  EXPECT_FALSE(Server({"--shard-role", "--shards=2"}).ok());
  EXPECT_FALSE(Server({"--shard-role", "--max-queue=10"}).ok());
  EXPECT_FALSE(Server({"--shard-role", "--coalesce=true"}).ok());
  EXPECT_FALSE(Server({"--shard-role", "--threads=4"}).ok());
}

TEST(NetFlagsDistTest, ShardFlagsRequireShardRole) {
  EXPECT_FALSE(Server({"--shard-id=1"}).ok());
  EXPECT_FALSE(Server({"--shard-count=2"}).ok());
  EXPECT_FALSE(Server({"--scheme=hash"}).ok());
  EXPECT_FALSE(Server({"--p=0.5"}).ok());
  EXPECT_FALSE(Server({"--beta=0.1"}).ok());
}

TEST(NetFlagsDistTest, ShardRoleRejectsBadSchemeAndTransition) {
  EXPECT_FALSE(Server({"--shard-role", "--scheme=diagonal"}).ok());
  EXPECT_FALSE(Server({"--shard-role", "--beta=1.5"}).ok());
  EXPECT_FALSE(Server({"--shard-role", "--beta=-0.1"}).ok());
  EXPECT_TRUE(Server({"--shard-role", "--scheme=range", "--beta=1"}).ok());
}

// --------------------------------------------------------------- cluster

TEST(NetFlagsDistTest, ClusterRequiresShardPorts) {
  EXPECT_FALSE(Cluster({}).ok());
  EXPECT_FALSE(Cluster({"--method=power"}).ok());
  EXPECT_TRUE(Cluster({"--shard-ports=9100,9101"}).ok());
  EXPECT_TRUE(Cluster({"--shard-ports=9100"}).ok());
}

TEST(NetFlagsDistTest, ClusterAcceptsFullConfiguration) {
  EXPECT_TRUE(Cluster({"--shard-ports=9100,9101,9102,9103",
                       "--host=127.0.0.1", "--scheme=hash",
                       "--method=gauss-seidel", "--dangling=self-loop",
                       "--p=0.75", "--beta=0.25", "--alpha=0.9",
                       "--tolerance=1e-9", "--max-iterations=500",
                       "--deadline-ms=2000", "--retries=5",
                       "--compare=false", "--nodes=5000",
                       "--edges-per-node=4", "--gen-seed=7"})
                  .ok());
}

TEST(NetFlagsDistTest, ClusterRejectsUnknownFlagAndPositionals) {
  EXPECT_FALSE(Cluster({"--shard-ports=9100", "--bogus=1"}).ok());
  EXPECT_FALSE(Cluster({"--shard-ports=9100", "stray"}).ok());
  // Front-door serving flags mean nothing to the cluster launcher.
  EXPECT_FALSE(Cluster({"--shard-ports=9100", "--shards=2"}).ok());
  EXPECT_FALSE(Cluster({"--shard-ports=9100", "--port=9000"}).ok());
}

TEST(NetFlagsDistTest, ClusterRejectsBadSolverKnobs) {
  EXPECT_FALSE(Cluster({"--shard-ports=9100", "--alpha=1.0"}).ok());
  EXPECT_FALSE(Cluster({"--shard-ports=9100", "--alpha=-0.1"}).ok());
  EXPECT_FALSE(Cluster({"--shard-ports=9100", "--tolerance=0"}).ok());
  EXPECT_FALSE(Cluster({"--shard-ports=9100", "--max-iterations=0"}).ok());
  EXPECT_FALSE(Cluster({"--shard-ports=9100", "--retries=-1"}).ok());
  EXPECT_FALSE(Cluster({"--shard-ports=9100", "--compare=maybe"}).ok());
  EXPECT_FALSE(Cluster({"--shard-ports=9100", "--method=jacobi"}).ok());
  EXPECT_FALSE(Cluster({"--shard-ports=9100", "--dangling=ignore"}).ok());
  EXPECT_FALSE(Cluster({"--shard-ports=9100", "--scheme=diagonal"}).ok());
}

TEST(NetFlagsDistTest, ClusterRejectsRenormalizeUnderGaussSeidel) {
  // The same contract ValidateBlockGaussSeidelPolicy enforces in the
  // solver, surfaced at flag time so the operator hears it before the
  // fleet spins up.
  EXPECT_FALSE(Cluster({"--shard-ports=9100", "--method=gauss-seidel",
                        "--dangling=renormalize"})
                   .ok());
  EXPECT_TRUE(Cluster({"--shard-ports=9100", "--method=power",
                       "--dangling=renormalize"})
                  .ok());
  EXPECT_TRUE(Cluster({"--shard-ports=9100", "--method=gauss-seidel",
                       "--dangling=teleport"})
                  .ok());
}

TEST(NetFlagsDistTest, ClusterFollowsServerGraphRules) {
  EXPECT_TRUE(
      Cluster({"--shard-ports=9100", "--graph=edges.txt", "--directed"})
          .ok());
  EXPECT_FALSE(
      Cluster({"--shard-ports=9100", "--graph=edges.txt", "--nodes=100"})
          .ok());
  EXPECT_FALSE(Cluster({"--shard-ports=9100", "--directed"}).ok());
  EXPECT_FALSE(Cluster({"--shard-ports=9100", "--nodes=1"}).ok());
}

// ------------------------------------------------------ pre-cut shards

TEST(NetFlagsDistTest, ShardFileAcceptsMinimalConfiguration) {
  EXPECT_TRUE(
      Server({"--shard-role", "--shard-file=/cuts/s0.d2psc"}).ok());
  EXPECT_TRUE(Server({"--shard-role", "--shard-file=/cuts/s0.d2psc",
                      "--port=9100", "--p=0.75", "--beta=0.5"})
                  .ok());
}

TEST(NetFlagsDistTest, ShardFileRequiresShardRole) {
  EXPECT_FALSE(Server({"--shard-file=/cuts/s0.d2psc"}).ok());
}

TEST(NetFlagsDistTest, ShardFileRejectsEmptyPath) {
  EXPECT_FALSE(Server({"--shard-role", "--shard-file="}).ok());
}

TEST(NetFlagsDistTest, ShardFileExcludesTopologyAndGraphFlags) {
  // The cut file's metadata fixes the shard topology AND the graph;
  // contradicting flags are rejected, not silently ignored.
  const std::vector<const char*> conflicts[] = {
      {"--shard-role", "--shard-file=/c/s0.d2psc", "--shard-id=0"},
      {"--shard-role", "--shard-file=/c/s0.d2psc", "--shard-count=2"},
      {"--shard-role", "--shard-file=/c/s0.d2psc", "--scheme=range"},
      {"--shard-role", "--shard-file=/c/s0.d2psc", "--graph=edges.txt"},
      {"--shard-role", "--shard-file=/c/s0.d2psc", "--directed"},
      {"--shard-role", "--shard-file=/c/s0.d2psc", "--weighted"},
      {"--shard-role", "--shard-file=/c/s0.d2psc", "--nodes=100"},
      {"--shard-role", "--shard-file=/c/s0.d2psc", "--edges-per-node=4"},
      {"--shard-role", "--shard-file=/c/s0.d2psc", "--gen-seed=7"},
  };
  for (const auto& args : conflicts) {
    const Status status = Server(args);
    EXPECT_FALSE(status.ok()) << args[2];
    EXPECT_NE(status.message().find("does not apply to --shard-file"),
              std::string::npos)
        << status.ToString();
  }
}

TEST(NetFlagsDistTest, ClusterAcceptsCutDirAndRejectsEmptyPath) {
  EXPECT_TRUE(
      Cluster({"--shard-ports=9100,9101", "--cut-dir=/cuts"}).ok());
  EXPECT_FALSE(Cluster({"--shard-ports=9100", "--cut-dir="}).ok());
}

// --------------------------------------------------------- partition cut

Status PartitionCut(std::vector<const char*> args) {
  return ValidatePartitionCutFlags(ParseOrDie(std::move(args)));
}

TEST(NetFlagsDistTest, PartitionCutRequiresOutDir) {
  EXPECT_FALSE(PartitionCut({}).ok());
  EXPECT_FALSE(PartitionCut({"--shards=2"}).ok());
  EXPECT_TRUE(PartitionCut({"--out-dir=/cuts"}).ok());
}

TEST(NetFlagsDistTest, PartitionCutAcceptsFullConfiguration) {
  EXPECT_TRUE(PartitionCut({"--out-dir=/cuts", "--shards=8",
                            "--scheme=hash", "--nodes=5000",
                            "--edges-per-node=4", "--gen-seed=7"})
                  .ok());
  EXPECT_TRUE(PartitionCut({"--out-dir=/cuts", "--graph=edges.txt",
                            "--directed", "--weighted"})
                  .ok());
}

TEST(NetFlagsDistTest, PartitionCutRejectsBadValues) {
  EXPECT_FALSE(PartitionCut({"--out-dir=/cuts", "--shards=0"}).ok());
  EXPECT_FALSE(PartitionCut({"--out-dir=/cuts", "--shards=-1"}).ok());
  EXPECT_FALSE(PartitionCut({"--out-dir=/cuts", "--scheme=diagonal"}).ok());
  EXPECT_FALSE(PartitionCut({"--out-dir=/cuts", "--graph=e.txt",
                             "--nodes=100"})
                   .ok());
  EXPECT_FALSE(PartitionCut({"--out-dir=/cuts", "--bogus=1"}).ok());
  EXPECT_FALSE(PartitionCut({"--out-dir="}).ok());
}

}  // namespace
}  // namespace d2pr
