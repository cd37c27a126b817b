// Test-only reference FM bisection refiner: the plain full-scan variant.
//
// Every step rescans all nodes for the unlocked, balance-eligible move with
// the highest gain (lowest id on ties) and recomputes each neighbor's gain
// from scratch. It is O(n^2) per pass and allocates per call, which is why it
// lives here and not in src/: it is the oracle the production gain-bucket
// refiner (partition/refine.cpp) must match bit for bit — same move sequence,
// same rollback, same part vector, same returned cut.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "graph/weighted_graph.hpp"
#include "partition/metrics.hpp"

namespace sc::partition::testing {

inline double fm_refine_bisection_oracle(const graph::WeightedGraph& g, std::vector<int>& part,
                                         double target0, double eps,
                                         std::size_t max_passes = 8) {
  using graph::NodeId;
  const std::size_t n = g.num_nodes();
  const double total = g.total_node_weight();
  const double target1 = total - target0;
  // Strict caps define which prefixes may be committed; exploratory caps let
  // a pass walk through temporarily imbalanced states (classic FM behaviour —
  // without this, a balanced-but-poor start has no legal first move).
  double max_node_w = 0.0;
  for (NodeId v = 0; v < n; ++v) max_node_w = std::max(max_node_w, g.node_weight(v));
  const double cap0 = (1.0 + eps) * std::max(target0, 1e-12);
  const double cap1 = (1.0 + eps) * std::max(target1, 1e-12);
  const double explore0 = std::max(cap0, target0 + max_node_w);
  const double explore1 = std::max(cap1, target1 + max_node_w);

  double side_w[2] = {0.0, 0.0};
  for (NodeId v = 0; v < n; ++v) side_w[part[v]] += g.node_weight(v);

  double cut = cut_weight(g, part);

  // gain[v] = cut reduction if v switches sides.
  std::vector<double> gain(n, 0.0);
  const auto recompute_gain = [&](NodeId v) {
    double gv = 0.0;
    for (const graph::EdgeId e : g.incident(v)) {
      const NodeId u = g.other(e, v);
      gv += (part[u] != part[v]) ? g.edge(e).weight : -g.edge(e).weight;
    }
    gain[v] = gv;
  };

  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    for (NodeId v = 0; v < n; ++v) recompute_gain(v);
    std::vector<bool> locked(n, false);
    std::vector<NodeId> moves;
    double best_cut = cut;
    std::size_t best_prefix = 0;
    double running = cut;

    for (std::size_t step = 0; step < n; ++step) {
      // Best unlocked node whose move keeps the destination side within the
      // exploratory bound.
      NodeId pick = graph::kInvalidNode;
      double pick_gain = -std::numeric_limits<double>::infinity();
      for (NodeId v = 0; v < n; ++v) {
        if (locked[v]) continue;
        const int to = 1 - part[v];
        const double new_w = side_w[to] + g.node_weight(v);
        if ((to == 0 ? new_w > explore0 : new_w > explore1)) continue;
        if (gain[v] > pick_gain) {
          pick_gain = gain[v];
          pick = v;
        }
      }
      if (pick == graph::kInvalidNode) break;

      // Tentatively move (FM allows negative-gain moves, rolled back later).
      const int from = part[pick];
      const int to = 1 - from;
      side_w[from] -= g.node_weight(pick);
      side_w[to] += g.node_weight(pick);
      part[pick] = to;
      locked[pick] = true;
      running -= pick_gain;
      moves.push_back(pick);
      for (const graph::EdgeId e : g.incident(pick)) recompute_gain(g.other(e, pick));
      // Only prefixes satisfying the strict balance caps may be committed.
      const bool feasible = side_w[0] <= cap0 + 1e-12 && side_w[1] <= cap1 + 1e-12;
      if (feasible && running < best_cut - 1e-12) {
        best_cut = running;
        best_prefix = moves.size();
      }
    }

    // Roll back moves beyond the best prefix.
    for (std::size_t i = moves.size(); i > best_prefix; --i) {
      const NodeId v = moves[i - 1];
      const int from = part[v];
      const int to = 1 - from;
      side_w[from] -= g.node_weight(v);
      side_w[to] += g.node_weight(v);
      part[v] = to;
    }

    if (best_cut >= cut - 1e-12) {
      cut = best_cut;
      break;  // no improvement this pass
    }
    cut = best_cut;
  }
  return cut;
}

}  // namespace sc::partition::testing
