#include "graph/graph_builder.h"

#include <algorithm>
#include <atomic>

#include "common/string_util.h"

namespace d2pr {

namespace {

/// Successful whole-graph freezes (see BuildCount()).
std::atomic<uint64_t> g_build_count{0};

}  // namespace

GraphBuilder::GraphBuilder(NodeId num_nodes, GraphKind kind, bool weighted)
    : num_nodes_(num_nodes), kind_(kind), weighted_(weighted) {
  D2PR_CHECK_GE(num_nodes, 0);
}

Status GraphBuilder::AddEdge(NodeId u, NodeId v, double weight) {
  if (u < 0 || u >= num_nodes_ || v < 0 || v >= num_nodes_) {
    return Status::InvalidArgument(
        StrCat("edge (", u, ", ", v, ") outside node range [0, ",
               num_nodes_, ")"));
  }
  if (!weighted_ && weight != 1.0) {
    return Status::InvalidArgument(
        StrCat("weight ", weight, " on unweighted graph (expect 1.0)"));
  }
  if (weighted_ && !(weight > 0.0)) {
    return Status::InvalidArgument(
        StrCat("non-positive weight ", weight, " on edge (", u, ", ", v,
               "); transition probabilities require positive weights"));
  }
  srcs_.push_back(u);
  dsts_.push_back(v);
  weights_.push_back(weight);
  if (kind_ == GraphKind::kUndirected && u != v) {
    srcs_.push_back(v);
    dsts_.push_back(u);
    weights_.push_back(weight);
  }
  return Status::OK();
}

Result<CsrGraph> GraphBuilder::Build(DuplicatePolicy policy) {
  const size_t arc_count = srcs_.size();
  // Order arc indices by (src, dst) so duplicates become adjacent and CSR
  // rows come out sorted: a counting sort by source, then a sort of each
  // source's arcs by target. Ties keep the insertion order, so duplicates
  // merge in the order they were added: kKeepFirst keeps the first
  // weight, and both arcs of an undirected edge fold their duplicates'
  // weights in the same order, which keeps ArcWeight(u, v) and
  // ArcWeight(v, u) bitwise equal.
  std::vector<size_t> row_begin(static_cast<size_t>(num_nodes_) + 1, 0);
  for (NodeId src : srcs_) ++row_begin[static_cast<size_t>(src) + 1];
  for (size_t v = 0; v < static_cast<size_t>(num_nodes_); ++v) {
    row_begin[v + 1] += row_begin[v];
  }
  std::vector<size_t> order(arc_count);
  {
    std::vector<size_t> cursor(row_begin.begin(), row_begin.end() - 1);
    for (size_t i = 0; i < arc_count; ++i) {
      order[cursor[static_cast<size_t>(srcs_[i])]++] = i;
    }
  }
  for (size_t v = 0; v < static_cast<size_t>(num_nodes_); ++v) {
    std::sort(order.begin() + static_cast<std::ptrdiff_t>(row_begin[v]),
              order.begin() + static_cast<std::ptrdiff_t>(row_begin[v + 1]),
              [this](size_t a, size_t b) {
                if (dsts_[a] != dsts_[b]) return dsts_[a] < dsts_[b];
                return a < b;
              });
  }

  std::vector<EdgeIndex> offsets(static_cast<size_t>(num_nodes_) + 1, 0);
  std::vector<NodeId> targets;
  std::vector<double> weights;
  targets.reserve(arc_count);
  if (weighted_) weights.reserve(arc_count);

  for (size_t i = 0; i < arc_count;) {
    const size_t idx = order[i];
    const NodeId src = srcs_[idx];
    const NodeId dst = dsts_[idx];
    double weight = weights_[idx];
    size_t j = i + 1;
    while (j < arc_count && srcs_[order[j]] == src &&
           dsts_[order[j]] == dst) {
      switch (policy) {
        case DuplicatePolicy::kSum:
          weight += weights_[order[j]];
          break;
        case DuplicatePolicy::kKeepFirst:
          break;
        case DuplicatePolicy::kError:
          return Status::InvalidArgument(
              StrCat("duplicate edge (", src, ", ", dst, ")"));
      }
      ++j;
    }
    targets.push_back(dst);
    if (weighted_) weights.push_back(weight);
    ++offsets[static_cast<size_t>(src) + 1];
    i = j;
  }
  for (NodeId v = 0; v < num_nodes_; ++v) {
    offsets[static_cast<size_t>(v) + 1] += offsets[v];
  }

  srcs_.clear();
  dsts_.clear();
  weights_.clear();
  g_build_count.fetch_add(1, std::memory_order_relaxed);
  return CsrGraph(std::move(offsets), std::move(targets), std::move(weights),
                  kind_);
}

uint64_t GraphBuilder::BuildCount() {
  return g_build_count.load(std::memory_order_relaxed);
}

}  // namespace d2pr
