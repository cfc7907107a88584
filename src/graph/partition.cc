#include "graph/partition.h"

namespace d2pr {

const char* PartitionSchemeName(PartitionScheme scheme) {
  switch (scheme) {
    case PartitionScheme::kRange:
      return "range";
    case PartitionScheme::kHash:
      return "hash";
  }
  return "unknown";
}

size_t PartitionOwnerOf(PartitionScheme scheme, NodeId node, NodeId num_nodes,
                        size_t num_shards) {
  D2PR_DCHECK(num_shards > 0);
  D2PR_DCHECK(node >= 0 && node < num_nodes);
  if (scheme == PartitionScheme::kHash) {
    return static_cast<size_t>(static_cast<uint32_t>(node)) % num_shards;
  }
  // Range, closed-form: the first `extra` shards hold base + 1 nodes
  // (covering ids below the pivot), the rest hold base. When base == 0
  // (more shards than nodes) every node sits below the pivot.
  const NodeId base = num_nodes / static_cast<NodeId>(num_shards);
  const NodeId extra = num_nodes % static_cast<NodeId>(num_shards);
  const NodeId pivot = extra * (base + 1);
  if (node < pivot) {
    return static_cast<size_t>(node / (base + 1));
  }
  return static_cast<size_t>(extra + (node - pivot) / base);
}

std::vector<NodeId> BoundarySources(const PartitionShard& shard,
                                    NodeId num_nodes) {
  // A bitmap and one ascending scan: O(|V| + in-arcs), no sort.
  std::vector<uint8_t> seen(static_cast<size_t>(num_nodes), 0);
  for (size_t idx = 0; idx < shard.in_sources.size(); ++idx) {
    if (!shard.in_interior[idx]) {
      seen[static_cast<size_t>(shard.in_sources[idx])] = 1;
    }
  }
  std::vector<NodeId> boundary;
  for (NodeId v = 0; v < num_nodes; ++v) {
    if (seen[static_cast<size_t>(v)]) boundary.push_back(v);
  }
  return boundary;
}

Result<GraphPartition> GraphPartition::Build(const CsrGraph& graph,
                                             const PartitionOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("partition shard count must be >= 1");
  }
  const NodeId n = graph.num_nodes();
  const size_t num_shards = options.num_shards;

  GraphPartition partition;
  partition.scheme_ = options.scheme;
  partition.num_nodes_ = n;
  partition.shards_.resize(num_shards);

  // Owner of every node, and each owner's local index for the in-CSR
  // scatter below.
  std::vector<size_t> owner(static_cast<size_t>(n));
  std::vector<EdgeIndex> local_index(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    const size_t s = partition.OwnerOf(v);
    owner[static_cast<size_t>(v)] = s;
    PartitionShard& shard = partition.shards_[s];
    local_index[static_cast<size_t>(v)] =
        static_cast<EdgeIndex>(shard.owned.size());
    shard.owned.push_back(v);
  }

  // --- out-CSR of owned rows + push-side boundary counts. ---
  const auto targets = graph.targets();
  for (PartitionShard& shard : partition.shards_) {
    EdgeIndex out_arcs = 0;
    for (NodeId v : shard.owned) out_arcs += graph.OutDegree(v);
    shard.out_offsets.reserve(shard.owned.size() + 1);
    shard.out_targets.reserve(static_cast<size_t>(out_arcs));
    shard.out_arc_begin.reserve(shard.owned.size());
    shard.out_offsets.push_back(0);
    for (NodeId v : shard.owned) {
      if (graph.OutDegree(v) == 0) shard.dangling_owned.push_back(v);
      for (NodeId target : graph.OutNeighbors(v)) {
        if (owner[static_cast<size_t>(target)] !=
            owner[static_cast<size_t>(v)]) {
          ++shard.boundary_out_arcs;
        }
      }
      shard.out_arc_begin.push_back(graph.ArcBegin(v));
      const auto row = graph.OutNeighbors(v);
      shard.out_targets.insert(shard.out_targets.end(), row.begin(),
                               row.end());
      shard.out_offsets.push_back(
          static_cast<EdgeIndex>(shard.out_targets.size()));
    }
  }

  // --- in-CSR of owned destinations. ---
  // Two passes over the global arc array. Pass 1 counts each destination's
  // in-degree; pass 2 scatters (source, arc index) pairs. The outer loop
  // ascends over sources and rows keep targets unique, so every in-row
  // comes out strictly ascending by source — the fold order the block
  // power solver's bit-parity contract depends on.
  std::vector<EdgeIndex> in_degree(static_cast<size_t>(n), 0);
  for (EdgeIndex e = 0; e < graph.num_arcs(); ++e) {
    ++in_degree[static_cast<size_t>(targets[static_cast<size_t>(e)])];
  }
  for (PartitionShard& shard : partition.shards_) {
    shard.in_offsets.resize(shard.owned.size() + 1, 0);
    for (size_t k = 0; k < shard.owned.size(); ++k) {
      shard.in_offsets[k + 1] =
          shard.in_offsets[k] +
          in_degree[static_cast<size_t>(shard.owned[k])];
    }
    const size_t total = static_cast<size_t>(shard.in_offsets.back());
    shard.in_sources.resize(total);
    shard.in_arc_index.resize(total);
    shard.in_interior.resize(total);
  }
  // Per-destination write cursors, initialized to each row's start.
  std::vector<EdgeIndex> cursor(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    const PartitionShard& shard = partition.shards_[owner[static_cast<size_t>(v)]];
    cursor[static_cast<size_t>(v)] =
        shard.in_offsets[static_cast<size_t>(local_index[static_cast<size_t>(v)])];
  }
  for (NodeId src = 0; src < n; ++src) {
    const EdgeIndex begin = graph.ArcBegin(src);
    const EdgeIndex end = begin + graph.OutDegree(src);
    for (EdgeIndex e = begin; e < end; ++e) {
      const NodeId dst = targets[static_cast<size_t>(e)];
      PartitionShard& shard = partition.shards_[owner[static_cast<size_t>(dst)]];
      const EdgeIndex slot = cursor[static_cast<size_t>(dst)]++;
      const bool interior =
          owner[static_cast<size_t>(src)] == owner[static_cast<size_t>(dst)];
      shard.in_sources[static_cast<size_t>(slot)] = src;
      shard.in_arc_index[static_cast<size_t>(slot)] = e;
      shard.in_interior[static_cast<size_t>(slot)] = interior ? 1 : 0;
      if (!interior) ++shard.boundary_in_arcs;
    }
  }

  for (const PartitionShard& shard : partition.shards_) {
    partition.boundary_arcs_ += shard.boundary_in_arcs;
  }
  return partition;
}

size_t GraphPartition::OwnerOf(NodeId node) const {
  return PartitionOwnerOf(scheme_, node, num_nodes_, num_shards());
}

double GraphPartition::BoundaryFraction() const {
  // Totaled over the in-CSR; both sides sum to the graph's arc count.
  EdgeIndex total = 0;
  for (const PartitionShard& shard : shards_) total += shard.num_in_arcs();
  if (total == 0) return 0.0;
  return static_cast<double>(boundary_arcs_) / static_cast<double>(total);
}

}  // namespace d2pr
