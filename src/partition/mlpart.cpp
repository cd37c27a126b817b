#include "partition/mlpart.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <utility>

#include "analysis/validate.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "partition/matching.hpp"
#include "partition/metrics.hpp"
#include "partition/refine.hpp"
#include "partition/workspace.hpp"

namespace sc::partition {

namespace {

using graph::kInvalidNode;
using graph::NodeId;
using graph::WeightedEdge;
using graph::WeightedGraph;

std::atomic<bool> g_parallel_bisection{true};
std::atomic<ThreadPool*> g_bisection_pool{nullptr};

ThreadPool& bisection_pool() {
  ThreadPool* pool = g_bisection_pool.load(std::memory_order_acquire);
  return pool != nullptr ? *pool : ThreadPool::global();
}

/// Induced subgraph over `keep` (in order); returns graph + fine ids.
struct SubGraph {
  WeightedGraph g;
  std::vector<NodeId> to_parent;
};

SubGraph induce(const WeightedGraph& g, const std::vector<NodeId>& keep) {
  SC_ASSERT(!keep.empty(), "cannot induce an empty subgraph");
  std::vector<NodeId> to_sub(g.num_nodes(), kInvalidNode);
  std::vector<double> weights;
  weights.reserve(keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    // i < keep.size() <= num_nodes, already inside the 32-bit id space.
    to_sub[keep[i]] = static_cast<NodeId>(i);  // sc-lint: allow(unchecked-id-narrowing)
    weights.push_back(g.node_weight(keep[i]));
  }
  std::vector<WeightedEdge> edges;
  for (const WeightedEdge& e : g.edges()) {
    const NodeId a = to_sub[e.a];
    const NodeId b = to_sub[e.b];
    if (a == kInvalidNode || b == kInvalidNode) continue;
    edges.push_back(WeightedEdge{a, b, e.weight});
  }
  return SubGraph{WeightedGraph(std::move(weights), edges), keep};
}

/// Greedy region growing: grows part 0 from a random seed toward target0,
/// preferring nodes most strongly connected to the grown region.
std::vector<int> grow_bisection(const WeightedGraph& g, double target0, Rng& rng) {
  const std::size_t n = g.num_nodes();
  std::vector<int> part(n, 1);
  std::vector<double> conn(n, 0.0);  // connectivity to part 0
  std::vector<bool> in0(n, false);

  double w0 = 0.0;
  // rng.index(n) < n, already inside the 32-bit id space.
  NodeId seed = static_cast<NodeId>(rng.index(n));  // sc-lint: allow(unchecked-id-narrowing)
  for (;;) {
    // Add `seed` (or the best boundary candidate) to part 0.
    part[seed] = 0;
    in0[seed] = true;
    w0 += g.node_weight(seed);
    if (w0 >= target0) break;
    for (const graph::EdgeId e : g.incident(seed)) {
      const NodeId u = g.other(e, seed);
      if (!in0[u]) conn[u] += g.edge(e).weight;
    }
    // Pick the most-connected unassigned node; fall back to any unassigned
    // node (disconnected component) if the frontier is empty.
    NodeId best = kInvalidNode;
    double best_conn = -1.0;
    for (NodeId v = 0; v < n; ++v) {
      if (in0[v]) continue;
      if (conn[v] > best_conn) {
        best_conn = conn[v];
        best = v;
      }
    }
    if (best == kInvalidNode) break;  // everything assigned
    seed = best;
  }
  return part;
}

std::vector<int> bisect(const WeightedGraph& g, double target0, double eps,
                        std::size_t trials, std::size_t refine_passes, Rng& rng) {
  std::vector<int> best;
  double best_cut = std::numeric_limits<double>::infinity();
  double best_bal = std::numeric_limits<double>::infinity();
  for (std::size_t t = 0; t < std::max<std::size_t>(1, trials); ++t) {
    std::vector<int> part = grow_bisection(g, target0, rng);
    const double cut = fm_refine_bisection(g, part, target0, eps, refine_passes);
    // Prefer lower cut; break ties toward balance against target0.
    const auto w = part_weights(g, part, 2);
    const double bal = std::abs(w[0] - target0);
    if (cut < best_cut - 1e-12 || (std::abs(cut - best_cut) <= 1e-12 && bal < best_bal)) {
      best_cut = cut;
      best_bal = bal;
      best = std::move(part);
    }
  }
  return best;
}

/// Recursive bisection into parts labelled [label_base, label_base +
/// fractions.size()), with part weights proportional to `fractions`.
///
/// `rng` is taken by value: each subtree consumes a private stream, and the
/// two child streams are split() off the parent's after this node's draws.
/// The draw sequence of any subtree therefore depends only on its path from
/// the root — never on how its siblings are traversed or scheduled — which is
/// what lets the workspace path fan subtrees out over a thread pool without
/// changing results.
void recursive_bisect(const WeightedGraph& g, const std::vector<double>& fractions,
                      int label_base, double eps, std::size_t trials,
                      std::size_t refine_passes, Rng rng,
                      const std::vector<NodeId>& to_parent, std::vector<int>& out) {
  const std::size_t k = fractions.size();
  if (k <= 1) {
    for (const NodeId v : to_parent) out[v] = label_base;
    return;
  }
  const std::size_t k1 = k / 2;
  double frac_total = 0.0, frac_first = 0.0;
  for (std::size_t q = 0; q < k; ++q) {
    frac_total += fractions[q];
    if (q < k1) frac_first += fractions[q];
  }
  const double target0 = g.total_node_weight() * frac_first / frac_total;

  std::vector<int> part = bisect(g, target0, eps, trials, refine_passes, rng);

  std::vector<NodeId> side0, side1;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    (part[v] == 0 ? side0 : side1).push_back(v);
  }
  // Degenerate split (tiny graphs): fall back to round-robin.
  if (side0.empty() || side1.empty()) {
    for (std::size_t i = 0; i < g.num_nodes(); ++i) {
      out[to_parent[i]] = label_base + static_cast<int>(i % k);
    }
    return;
  }

  SubGraph s0 = induce(g, side0);
  SubGraph s1 = induce(g, side1);
  // Lift sub ids back to the parent's id space for the recursion output.
  std::vector<NodeId> lift0(s0.to_parent.size()), lift1(s1.to_parent.size());
  for (std::size_t i = 0; i < s0.to_parent.size(); ++i) lift0[i] = to_parent[s0.to_parent[i]];
  for (std::size_t i = 0; i < s1.to_parent.size(); ++i) lift1[i] = to_parent[s1.to_parent[i]];

  const std::vector<double> frac0(fractions.begin(), fractions.begin() + static_cast<long>(k1));
  const std::vector<double> frac1(fractions.begin() + static_cast<long>(k1), fractions.end());
  Rng rng0 = rng.split();
  Rng rng1 = rng.split();
  recursive_bisect(s0.g, frac0, label_base, eps, trials, refine_passes, rng0, lift0, out);
  recursive_bisect(s1.g, frac1, label_base + static_cast<int>(k1), eps, trials,
                   refine_passes, rng1, lift1, out);
}

// ---------------------------------------------------------------------------
// Workspace path (DESIGN.md §5.4): the same multilevel algorithm with every
// intermediate (coarsening levels, bisection frames, induced subgraphs,
// uncoarsening double buffer) reused from a per-thread PartitionWorkspace.
// Bit-identical to the legacy path: same RNG draw sequence, same FP
// accumulation orders, same tie-breaking.
// ---------------------------------------------------------------------------

/// induce() without the temporaries: builds `out` from the kept nodes via
/// WeightedGraph::rebuild (bit-identical to the legacy constructor).
// sc-lint: hot-path
void induce_into(const WeightedGraph& g, const std::vector<NodeId>& keep,
                 PartitionWorkspace& ws, WeightedGraph& out) {
  SC_ASSERT(!keep.empty(), "cannot induce an empty subgraph");
  ws.to_sub.assign(g.num_nodes(), kInvalidNode);
  ws.weight_buf.clear();
  if (ws.weight_buf.capacity() < keep.size()) ws.weight_buf.reserve(keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    // i < keep.size() <= num_nodes, already inside the 32-bit id space.
    ws.to_sub[keep[i]] = static_cast<NodeId>(i);  // sc-lint: allow(unchecked-id-narrowing)
    ws.weight_buf.push_back(g.node_weight(keep[i]));
  }
  ws.edge_buf.clear();
  if (ws.edge_buf.capacity() < g.num_edges()) ws.edge_buf.reserve(g.num_edges());
  for (const WeightedEdge& e : g.edges()) {
    const NodeId a = ws.to_sub[e.a];
    const NodeId b = ws.to_sub[e.b];
    if (a == kInvalidNode || b == kInvalidNode) continue;
    ws.edge_buf.push_back(WeightedEdge{a, b, e.weight});
  }
  out.rebuild(ws.weight_buf, ws.edge_buf, ws.dedup);
}

/// grow_bisection() with identical RNG draws and identical picks, but the
/// per-add O(n) selection scan replaced by a lazy max-heap over
/// (connectivity, node id). Connectivity only grows and every increase
/// pushes a fresh heap entry, so the freshest entry for a node always
/// surfaces before its stale ones; stale or already-assigned entries are
/// discarded on pop. The heap's (conn desc, id asc) order equals the legacy
/// scan's first-wins (max conn, lowest id) choice, so the grown region —
/// and everything downstream — is bit-identical.
// sc-lint: hot-path
void grow_bisection_ws(const WeightedGraph& g, double target0, Rng& rng,
                       std::vector<int>& part, BisectFrame& f) {
  const std::size_t n = g.num_nodes();
  part.assign(n, 1);
  f.conn.assign(n, 0.0);
  f.in0.assign(n, 0);

  // (conn, id) max-heap over FRONTIER candidates only: higher conn first,
  // lower id first among equals. Non-frontier unassigned nodes all share
  // conn == 0 and lose to any frontier node (edge weights are positive), so
  // the legacy scan only ever falls back to them when the frontier is empty
  // — and then it picks the lowest unassigned id, which the monotone
  // `fallback` cursor yields exactly.
  const auto lower_priority = [](const std::pair<double, NodeId>& a,
                                 const std::pair<double, NodeId>& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;
  };
  f.grow_heap.clear();
  NodeId fallback = 0;

  double w0 = 0.0;
  // rng.index(n) < n, already inside the 32-bit id space.
  NodeId seed = static_cast<NodeId>(rng.index(n));  // sc-lint: allow(unchecked-id-narrowing)
  for (;;) {
    part[seed] = 0;
    f.in0[seed] = 1;
    w0 += g.node_weight(seed);
    if (w0 >= target0) break;
    for (const graph::EdgeId e : g.incident(seed)) {
      const NodeId u = g.other(e, seed);
      if (f.in0[u] == 0) {
        f.conn[u] += g.edge(e).weight;
        f.grow_heap.emplace_back(f.conn[u], u);
        std::push_heap(f.grow_heap.begin(), f.grow_heap.end(), lower_priority);
      }
    }
    NodeId best = kInvalidNode;
    while (!f.grow_heap.empty()) {
      const auto [c, v] = f.grow_heap.front();
      // A frontier entry with conn 0 would tie with non-frontier nodes under
      // the legacy scan; route it through the lowest-id fallback instead of
      // trusting heap order. (Possible only with zero-weight edges.)
      if (c == 0.0) break;
      std::pop_heap(f.grow_heap.begin(), f.grow_heap.end(), lower_priority);
      f.grow_heap.pop_back();
      if (f.in0[v] != 0 || c != f.conn[v]) continue;  // assigned or stale
      best = v;
      break;
    }
    if (best == kInvalidNode) {
      // Frontier empty (disconnected remainder or zero-weight ties): lowest
      // unassigned id, exactly the legacy scan's choice among all-zero conn.
      while (fallback < n && f.in0[fallback] != 0) ++fallback;
      if (fallback >= n) break;  // everything assigned
      best = fallback;  // already a NodeId; no narrowing
    }
    seed = best;
  }
}

/// bisect() with the winner kept in f.part via buffer swap. The balance
/// tie-break inlines part_weights()[0]: node weights accumulated in node
/// order into a single accumulator — the same additions in the same order.
// sc-lint: hot-path
void bisect_ws(const WeightedGraph& g, double target0, double eps, std::size_t trials,
               std::size_t refine_passes, Rng& rng, BisectFrame& f) {
  double best_cut = std::numeric_limits<double>::infinity();
  double best_bal = std::numeric_limits<double>::infinity();
  const FmBinding binding(g);  // every trial refines the same graph
  for (std::size_t t = 0; t < std::max<std::size_t>(1, trials); ++t) {
    grow_bisection_ws(g, target0, rng, f.trial, f);
    const double cut = fm_refine_bisection(g, f.trial, target0, eps, refine_passes);
    double w0 = 0.0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (f.trial[v] == 0) w0 += g.node_weight(v);
    }
    const double bal = std::abs(w0 - target0);
    if (cut < best_cut - 1e-12 || (std::abs(cut - best_cut) <= 1e-12 && bal < best_bal)) {
      best_cut = cut;
      best_bal = bal;
      std::swap(f.part, f.trial);
    }
  }
}

/// recursive_bisect() over frame-owned storage. Frames are indexed by depth:
/// the two sibling recursions at depth+1 reuse the same frame sequentially,
/// while this depth's subgraphs stay alive in its own frame. Same per-subtree
/// split() RNG streams as the legacy recursion, so the two stay bit-identical.
void recursive_bisect_ws(const WeightedGraph& g, std::span<const double> fractions,
                         int label_base, double eps, std::size_t trials,
                         std::size_t refine_passes, Rng rng,
                         std::span<const NodeId> to_parent, std::vector<int>& out,
                         PartitionWorkspace& ws, std::size_t depth) {
  const std::size_t k = fractions.size();
  if (k <= 1) {
    for (const NodeId v : to_parent) out[v] = label_base;
    return;
  }
  BisectFrame& f = ws.frame(depth);
  const std::size_t k1 = k / 2;
  double frac_total = 0.0, frac_first = 0.0;
  for (std::size_t q = 0; q < k; ++q) {
    frac_total += fractions[q];
    if (q < k1) frac_first += fractions[q];
  }
  const double target0 = g.total_node_weight() * frac_first / frac_total;

  bisect_ws(g, target0, eps, trials, refine_passes, rng, f);

  f.side0.clear();
  f.side1.clear();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    (f.part[v] == 0 ? f.side0 : f.side1).push_back(v);
  }
  // Degenerate split (tiny graphs): fall back to round-robin.
  if (f.side0.empty() || f.side1.empty()) {
    for (std::size_t i = 0; i < g.num_nodes(); ++i) {
      out[to_parent[i]] = label_base + static_cast<int>(i % k);
    }
    return;
  }

  induce_into(g, f.side0, ws, f.g0);
  induce_into(g, f.side1, ws, f.g1);
  f.lift0.resize(f.side0.size());
  f.lift1.resize(f.side1.size());
  for (std::size_t i = 0; i < f.side0.size(); ++i) f.lift0[i] = to_parent[f.side0[i]];
  for (std::size_t i = 0; i < f.side1.size(); ++i) f.lift1[i] = to_parent[f.side1[i]];

  Rng rng0 = rng.split();
  Rng rng1 = rng.split();
  recursive_bisect_ws(f.g0, fractions.first(k1), label_base, eps, trials, refine_passes,
                      rng0, f.lift0, out, ws, depth + 1);
  recursive_bisect_ws(f.g1, fractions.subspan(k1), label_base + static_cast<int>(k1),
                      eps, trials, refine_passes, rng1, f.lift1, out, ws, depth + 1);
}

// ---------------------------------------------------------------------------
// Parallel recursive bisection (DESIGN.md §5.5): once a node has been bisected,
// its two subtrees are fully independent — disjoint node sets, disjoint label
// ranges, and private split() RNG streams — so each level of the bisection
// tree can fan out over the thread pool. Jobs own their induced subgraphs (the
// frame-per-depth scheme of the serial recursion cannot be shared between
// concurrent siblings); all other scratch comes from the executing worker's
// thread-local PartitionWorkspace / FmScratch. Output writes touch only the
// job's own to_parent ids, so no two jobs ever store to the same element.
// ---------------------------------------------------------------------------

struct SubtreeJob {
  WeightedGraph owned;                  ///< induced subtree graph (root: unused)
  const WeightedGraph* root = nullptr;  ///< set only on the root job
  std::vector<NodeId> to_parent;        ///< subtree node -> coarsest-graph node
  std::size_t frac_lo = 0;              ///< [frac_lo, frac_hi) of the fractions
  std::size_t frac_hi = 0;
  int label_base = 0;
  Rng rng;                              ///< this subtree's private stream

  const WeightedGraph& graph() const { return root != nullptr ? *root : owned; }
};

/// One bisection step of `jb`, appending its child jobs to `children` (none
/// for leaves and degenerate splits). Identical arithmetic, tie-breaking and
/// RNG draws to what the serial recursion performs at this node.
void process_subtree(SubtreeJob& jb, std::span<const double> fractions, double eps,
                     std::size_t trials, std::size_t refine_passes, std::vector<int>& out,
                     std::vector<SubtreeJob>& children) {
  const WeightedGraph& g = jb.graph();
  const std::size_t k = jb.frac_hi - jb.frac_lo;
  if (k <= 1) {
    for (const NodeId v : jb.to_parent) out[v] = jb.label_base;
    return;
  }
  PartitionWorkspace& ws = PartitionWorkspace::local();
  BisectFrame& f = ws.frame(0);  // depth-indexed frames are a serial-recursion concept
  const std::size_t k1 = k / 2;
  double frac_total = 0.0, frac_first = 0.0;
  for (std::size_t q = 0; q < k; ++q) {
    frac_total += fractions[jb.frac_lo + q];
    if (q < k1) frac_first += fractions[jb.frac_lo + q];
  }
  const double target0 = g.total_node_weight() * frac_first / frac_total;

  bisect_ws(g, target0, eps, trials, refine_passes, jb.rng, f);

  f.side0.clear();
  f.side1.clear();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    (f.part[v] == 0 ? f.side0 : f.side1).push_back(v);
  }
  // Degenerate split (tiny graphs): fall back to round-robin.
  if (f.side0.empty() || f.side1.empty()) {
    for (std::size_t i = 0; i < g.num_nodes(); ++i) {
      out[jb.to_parent[i]] = jb.label_base + static_cast<int>(i % k);
    }
    return;
  }

  Rng rng0 = jb.rng.split();
  Rng rng1 = jb.rng.split();

  children.resize(2);
  SubtreeJob& c0 = children[0];
  induce_into(g, f.side0, ws, c0.owned);
  c0.to_parent.resize(f.side0.size());
  for (std::size_t i = 0; i < f.side0.size(); ++i) {
    c0.to_parent[i] = jb.to_parent[f.side0[i]];
  }
  c0.frac_lo = jb.frac_lo;
  c0.frac_hi = jb.frac_lo + k1;
  c0.label_base = jb.label_base;
  c0.rng = rng0;

  SubtreeJob& c1 = children[1];
  induce_into(g, f.side1, ws, c1.owned);
  c1.to_parent.resize(f.side1.size());
  for (std::size_t i = 0; i < f.side1.size(); ++i) {
    c1.to_parent[i] = jb.to_parent[f.side1[i]];
  }
  c1.frac_lo = jb.frac_lo + k1;
  c1.frac_hi = jb.frac_hi;
  c1.label_base = jb.label_base + static_cast<int>(k1);
  c1.rng = rng1;
}

/// Level-synchronous BFS over the bisection tree: each frontier fans out via
/// parallel_for (which itself degrades to serial execution for a single job,
/// a one-worker pool, or when already on a pool worker). Bit-identical to
/// recursive_bisect_ws for any pool size, including the serial fallback.
void recursive_bisect_parallel(ThreadPool& pool, const WeightedGraph& g,
                               std::span<const double> fractions, double eps,
                               std::size_t trials, std::size_t refine_passes, Rng rng,
                               std::span<const NodeId> to_parent, std::vector<int>& out) {
  std::vector<SubtreeJob> frontier(1);
  frontier[0].root = &g;
  frontier[0].to_parent.assign(to_parent.begin(), to_parent.end());
  frontier[0].frac_hi = fractions.size();
  frontier[0].rng = rng;

  while (!frontier.empty()) {
    std::vector<std::vector<SubtreeJob>> next(frontier.size());
    pool.parallel_for(frontier.size(), [&](std::size_t i) {
      process_subtree(frontier[i], fractions, eps, trials, refine_passes, out, next[i]);
    });
    std::size_t total = 0;
    for (const std::vector<SubtreeJob>& c : next) total += c.size();
    std::vector<SubtreeJob> merged;
    merged.reserve(total);
    for (std::vector<SubtreeJob>& c : next) {
      for (SubtreeJob& jb : c) merged.push_back(std::move(jb));
    }
    frontier = std::move(merged);
  }
}

/// partition_attempt() over workspace storage; the result lives in ws.part_a
/// (double-buffered against ws.part_b during uncoarsening).
// sc-lint: hot-path
const std::vector<int>& partition_attempt_ws(const WeightedGraph& g,
                                             const std::vector<double>& fractions,
                                             std::uint64_t seed,
                                             const PartitionOptions& opts,
                                             PartitionWorkspace& ws) {
  const std::size_t k = fractions.size();

  Rng rng(seed);
  const std::size_t stop =
      opts.coarsen_until > 0 ? opts.coarsen_until : std::max<std::size_t>(30, 8 * k);

  // Cap matched-pair weight at 3x the average final coarse node so a heavy
  // supernode cannot snowball level after level (see heavy_edge_matching).
  const double match_cap = 3.0 * g.total_node_weight() / static_cast<double>(stop);

  // ---- Coarsening (levels retained in the workspace) ----------------------
  std::size_t num_levels = 0;
  const WeightedGraph* cur = &g;
  while (cur->num_nodes() > stop) {
    heavy_edge_matching_ws(*cur, rng, ws.match, match_cap);
    PartitionWorkspace::Level& lvl = ws.level(num_levels);
    contract_matching_ws(*cur, ws.match.match, ws.weight_buf, ws.edge_buf, ws.dedup,
                         lvl.map, lvl.coarse);
    // Stop if matching no longer shrinks the graph meaningfully.
    if (lvl.coarse.num_nodes() >= cur->num_nodes() * 95 / 100) break;
    cur = &lvl.coarse;
    ++num_levels;
  }

  // Per-part absolute weight targets for refinement (capacity-proportional).
  double frac_total = 0.0;
  for (const double f : fractions) frac_total += f;
  const auto targets_for = [&](const WeightedGraph& wg) -> const std::vector<double>& {
    ws.targets.resize(k);
    for (std::size_t q = 0; q < k; ++q) {
      ws.targets[q] = wg.total_node_weight() * fractions[q] / frac_total;
    }
    return ws.targets;
  };

  // ---- Initial partition on the coarsest graph ----------------------------
  ws.part_a.assign(cur->num_nodes(), 0);
  {
    ws.identity.resize(cur->num_nodes());
    std::iota(ws.identity.begin(), ws.identity.end(), NodeId{0});
    // Both drivers receive the same split-off stream, and the parallel one is
    // bit-identical by construction, so the toggle never changes results. The
    // BFS driver is only engaged where it can actually fan out (off a worker
    // thread, pool with >1 workers): the serial recursion reuses frames
    // instead of allocating per-subtree jobs.
    Rng init_rng = rng.split();
    if (parallel_bisection_enabled() && !ThreadPool::in_worker() &&
        bisection_pool().size() > 1) {
      // The BFS driver allocates per-frontier job buffers — the price of
      // fanning subtrees out across the pool; the serial path stays clean.
      recursive_bisect_parallel(bisection_pool(), *cur, std::span<const double>(fractions),  // sc-lint: allow(transitive-alloc)
                                opts.imbalance_eps, opts.bisection_trials,
                                opts.refine_passes, init_rng, ws.identity, ws.part_a);
    } else {
      recursive_bisect_ws(*cur, std::span<const double>(fractions), 0, opts.imbalance_eps,
                          opts.bisection_trials, opts.refine_passes, init_rng, ws.identity,
                          ws.part_a, ws, 0);
    }
    greedy_kway_refine(*cur, ws.part_a, targets_for(*cur), opts.imbalance_eps,
                       opts.refine_passes);
  }

  // ---- Uncoarsening with refinement ---------------------------------------
  for (std::size_t lvl = num_levels; lvl > 0; --lvl) {
    const PartitionWorkspace::Level& c = *ws.levels[lvl - 1];
    const WeightedGraph& fine = (lvl == 1) ? g : ws.levels[lvl - 2]->coarse;
    ws.part_b.resize(fine.num_nodes());
    for (NodeId v = 0; v < fine.num_nodes(); ++v) ws.part_b[v] = ws.part_a[c.map[v]];
    greedy_kway_refine(fine, ws.part_b, targets_for(fine), opts.imbalance_eps,
                       opts.refine_passes);
    std::swap(ws.part_a, ws.part_b);
  }
  return ws.part_a;
}

/// partition() restarts loop over the workspace. The returned vector is the
/// one API-boundary allocation (documented in DESIGN.md §5.4).
std::vector<int> partition_ws(const WeightedGraph& g, const std::vector<double>& fractions,
                              const PartitionOptions& opts) {
  PartitionWorkspace& ws = PartitionWorkspace::local();
  const std::size_t k = fractions.size();
  double best_cut = std::numeric_limits<double>::infinity();
  double best_imb = std::numeric_limits<double>::infinity();
  const std::size_t restarts = std::max<std::size_t>(1, opts.restarts);
  for (std::size_t r = 0; r < restarts; ++r) {
    const std::vector<int>& part =
        partition_attempt_ws(g, fractions, opts.seed + r * 7919, opts, ws);
    const double cut = cut_weight(g, part);
    // imbalance() without its part_weights() temporary: same accumulation
    // order, max_element over the same values.
    ws.part_w.assign(k, 0.0);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ws.part_w[static_cast<std::size_t>(part[v])] += g.node_weight(v);
    }
    const double avg = g.total_node_weight() / static_cast<double>(k);
    const double imb =
        avg <= 0.0 ? 1.0 : *std::max_element(ws.part_w.begin(), ws.part_w.end()) / avg;
    if (cut < best_cut - 1e-12 ||
        (std::abs(cut - best_cut) <= 1e-12 && imb < best_imb)) {
      best_cut = cut;
      best_imb = imb;
      ws.best_part.assign(part.begin(), part.end());
    }
  }
  // Checked-build contract: every node assigned to an existing part.
  SC_VALIDATE_AT(Deep,
                 analysis::validate_partition(ws.best_part, g.num_nodes(), fractions.size()));
  return std::vector<int>(ws.best_part.begin(), ws.best_part.end());
}

}  // namespace

bool set_parallel_bisection(bool enabled) {
  return g_parallel_bisection.exchange(enabled, std::memory_order_relaxed);
}

bool parallel_bisection_enabled() {
  return g_parallel_bisection.load(std::memory_order_relaxed);
}

ThreadPool* set_parallel_bisection_pool(ThreadPool* pool) {
  return g_bisection_pool.exchange(pool, std::memory_order_acq_rel);
}

std::vector<int> MultilevelPartitioner::partition(const WeightedGraph& g,
                                                  std::size_t k) const {
  SC_CHECK(k >= 1, "k must be positive");
  if (workspace::enabled()) {
    // Reuse the workspace's fraction buffer for the uniform fractions (nothing
    // below mutates it).
    PartitionWorkspace& ws = PartitionWorkspace::local();
    ws.fractions.assign(k, 1.0);
    return partition(g, ws.fractions);
  }
  return partition(g, std::vector<double>(k, 1.0));
}

std::vector<int> MultilevelPartitioner::partition(
    const WeightedGraph& g, const std::vector<double>& fractions) const {
  SC_CHECK(!fractions.empty(), "need at least one part");
  for (const double f : fractions) {
    SC_CHECK(f > 0.0, "part fractions must be positive");
  }
  if (fractions.size() == 1) return std::vector<int>(g.num_nodes(), 0);
  if (workspace::enabled()) return partition_ws(g, fractions, opts_);

  std::vector<int> best;
  double best_cut = std::numeric_limits<double>::infinity();
  double best_imb = std::numeric_limits<double>::infinity();
  const std::size_t restarts = std::max<std::size_t>(1, opts_.restarts);
  for (std::size_t r = 0; r < restarts; ++r) {
    std::vector<int> part = partition_attempt(g, fractions, opts_.seed + r * 7919);
    const double cut = cut_weight(g, part);
    const double imb = imbalance(g, part, fractions.size());
    if (cut < best_cut - 1e-12 ||
        (std::abs(cut - best_cut) <= 1e-12 && imb < best_imb)) {
      best_cut = cut;
      best_imb = imb;
      best = std::move(part);
    }
  }
  // Checked-build contract: every node assigned to an existing part.
  SC_VALIDATE_AT(Deep, analysis::validate_partition(best, g.num_nodes(), fractions.size()));
  return best;
}

std::vector<int> MultilevelPartitioner::partition_attempt(
    const WeightedGraph& g, const std::vector<double>& fractions,
    std::uint64_t seed) const {
  const std::size_t k = fractions.size();

  Rng rng(seed);
  const std::size_t stop =
      opts_.coarsen_until > 0 ? opts_.coarsen_until : std::max<std::size_t>(30, 8 * k);

  // Cap matched-pair weight at 3x the average final coarse node so a heavy
  // supernode cannot snowball level after level (see heavy_edge_matching).
  const double match_cap = 3.0 * g.total_node_weight() / static_cast<double>(stop);

  // ---- Coarsening ---------------------------------------------------------
  std::vector<Contraction> levels;
  const WeightedGraph* cur = &g;
  while (cur->num_nodes() > stop) {
    auto match = heavy_edge_matching(*cur, rng, match_cap);
    Contraction c = contract_matching(*cur, match);
    // Stop if matching no longer shrinks the graph meaningfully.
    if (c.coarse.num_nodes() >= cur->num_nodes() * 95 / 100) break;
    levels.push_back(std::move(c));
    cur = &levels.back().coarse;
  }

  // Per-part absolute weight targets for refinement (capacity-proportional).
  double frac_total = 0.0;
  for (const double f : fractions) frac_total += f;
  const auto targets_for = [&](const WeightedGraph& wg) {
    std::vector<double> t(k);
    for (std::size_t q = 0; q < k; ++q) {
      t[q] = wg.total_node_weight() * fractions[q] / frac_total;
    }
    return t;
  };

  // ---- Initial partition on the coarsest graph ----------------------------
  std::vector<int> part(cur->num_nodes(), 0);
  {
    std::vector<NodeId> identity(cur->num_nodes());
    std::iota(identity.begin(), identity.end(), NodeId{0});
    recursive_bisect(*cur, fractions, 0, opts_.imbalance_eps, opts_.bisection_trials,
                     opts_.refine_passes, rng.split(), identity, part);
    greedy_kway_refine(*cur, part, targets_for(*cur), opts_.imbalance_eps,
                       opts_.refine_passes);
  }

  // ---- Uncoarsening with refinement ---------------------------------------
  for (std::size_t lvl = levels.size(); lvl > 0; --lvl) {
    const Contraction& c = levels[lvl - 1];
    const WeightedGraph& fine = (lvl == 1) ? g : levels[lvl - 2].coarse;
    std::vector<int> fine_part(fine.num_nodes());
    for (NodeId v = 0; v < fine.num_nodes(); ++v) fine_part[v] = part[c.map[v]];
    greedy_kway_refine(fine, fine_part, targets_for(fine), opts_.imbalance_eps,
                       opts_.refine_passes);
    part = std::move(fine_part);
  }
  return part;
}

std::vector<NodeId> MultilevelPartitioner::coarsen_to(const WeightedGraph& g,
                                                      std::size_t target_nodes) const {
  SC_CHECK(target_nodes >= 1, "target_nodes must be positive");
  Rng rng(opts_.seed);

  std::vector<NodeId> map(g.num_nodes());
  std::iota(map.begin(), map.end(), NodeId{0});

  // Cap matched-pair weight at 3x the average target coarse node. Deep
  // coarsening (1M -> thousands) without the cap degenerates into one
  // supernode absorbing nearly the whole graph: its contracted edges are the
  // heaviest, so it wins a match every level, shrinking the graph by one
  // node per level — quadratic time and a useless coarse graph.
  const double match_cap = 3.0 * g.total_node_weight() / static_cast<double>(target_nodes);

  if (coarsen_ws::enabled()) {
    // Workspace path: the matching/contraction pair reuses per-thread
    // scratch and the coarse graphs ping-pong through two retained levels,
    // so a deep coarsen (1M -> thousands, 100+ levels) stops allocating a
    // matching, a Contraction and a coarse graph per level. Bit-identical to
    // the allocating loop below: same rng stream, same no-progress rule,
    // same map composition.
    PartitionWorkspace& ws = PartitionWorkspace::local();
    PartitionWorkspace::Level& a = ws.level(0);
    PartitionWorkspace::Level& b = ws.level(1);
    const WeightedGraph* cur = &g;
    bool into_a = true;
    while (cur->num_nodes() > target_nodes) {
      heavy_edge_matching_ws(*cur, rng, ws.match, match_cap);
      PartitionWorkspace::Level& lvl = into_a ? a : b;
      contract_matching_ws(*cur, ws.match.match, ws.weight_buf, ws.edge_buf, ws.dedup,
                           lvl.map, lvl.coarse);
      if (lvl.coarse.num_nodes() == cur->num_nodes()) break;  // no progress
      for (NodeId v = 0; v < map.size(); ++v) map[v] = lvl.map[map[v]];
      cur = &lvl.coarse;
      into_a = !into_a;
    }
    return map;
  }

  WeightedGraph cur_store;
  const WeightedGraph* cur = &g;
  while (cur->num_nodes() > target_nodes) {
    auto match = heavy_edge_matching(*cur, rng, match_cap);
    Contraction c = contract_matching(*cur, match);
    if (c.coarse.num_nodes() == cur->num_nodes()) break;  // no progress
    for (NodeId v = 0; v < map.size(); ++v) map[v] = c.map[map[v]];
    cur_store = std::move(c.coarse);
    cur = &cur_store;
  }
  return map;
}

}  // namespace sc::partition
