// Partition refinement: Fiduccia–Mattheyses bisection refinement with
// rollback, and greedy k-way boundary refinement.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/weighted_graph.hpp"

namespace sc::partition {

/// One FM pass (repeated up to `max_passes`) on a 2-way partition.
/// `target0` is the desired weight of part 0; moves keep each side within
/// (1 + eps) of its target. Mutates `part` in place; returns the final cut.
double fm_refine_bisection(const graph::WeightedGraph& g, std::vector<int>& part,
                           double target0, double eps, std::size_t max_passes = 8);

/// Scoped performance hint: while a binding is alive, fm_refine_bisection()
/// calls on `g` from this thread reuse one flattened copy of its adjacency
/// instead of rebuilding it per call (the bisection trial loop refines the
/// same graph several times). `g` must stay alive and unchanged for the
/// binding's lifetime; calls on any other graph build their own adjacency.
/// The binding ends with the scope, so a later graph that happens to reuse
/// `g`'s address is never mistaken for it.
class FmBinding {
public:
  explicit FmBinding(const graph::WeightedGraph& g);
  ~FmBinding();
  FmBinding(const FmBinding&) = delete;
  FmBinding& operator=(const FmBinding&) = delete;
};

/// Greedy boundary refinement on a k-way partition under the balance
/// constraint max part weight <= (1 + eps) * total / k. Returns the final cut.
double greedy_kway_refine(const graph::WeightedGraph& g, std::vector<int>& part,
                          std::size_t k, double eps, std::size_t max_passes = 8);

/// Heterogeneous variant: part q may hold at most (1 + eps) * targets[q]
/// weight (targets in absolute node-weight units; they should sum to the
/// total node weight). Returns the final cut.
double greedy_kway_refine(const graph::WeightedGraph& g, std::vector<int>& part,
                          const std::vector<double>& targets, double eps,
                          std::size_t max_passes = 8);

}  // namespace sc::partition
