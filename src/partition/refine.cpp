#include "partition/refine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.hpp"
#include "partition/metrics.hpp"
#include "partition/workspace.hpp"

namespace sc::partition {

using graph::NodeId;
using graph::WeightedGraph;

namespace {

// ---------------------------------------------------------------------------
// FM gain buckets (DESIGN.md §5.4).
//
// Gains are doubles, so classic integer gain buckets do not apply directly.
// Each gain maps to a bucket through a monotone step function of its IEEE
// pattern: the magnitude's 11 exponent bits and top 4 mantissa bits form a
// level (16 levels per octave), the sign mirrors it around a middle bucket
// that holds 0. Levels are clamped to a window sized from the graph: the top
// level is the largest weighted degree (no gain can exceed it) and the
// bottom sits four octaves below the lightest nonzero edge, capped at
// kMaxLevels. Gains whose magnitude falls below the window share the zero
// bucket; that keeps the mapping monotone, only coarser. Equal gains (+0.0
// and -0.0 included) share one bucket, and a gain in a lower bucket is
// strictly smaller than every gain in a higher one, so scanning the topmost
// bucket that holds a balance-eligible node for the exact (max gain, lowest
// id) reproduces the full-scan pick bit for bit. Sixteen levels per octave
// keep that bucket small where one bucket per exponent held hundreds of
// nodes (~20K-node coarse graphs).
// ---------------------------------------------------------------------------

constexpr int kMantissaBits = 4;
constexpr int kMaxLevels = 2047;             // 2 * kMaxLevels + 1 buckets at most
constexpr std::size_t kBitsetBuckets = 4096; // occupancy bitset capacity
static_assert(2 * kMaxLevels + 1 <= static_cast<int>(kBitsetBuckets));
constexpr std::int32_t kNil = -1;

/// Monotone magnitude code: exponent bits + top kMantissaBits mantissa bits.
int magnitude_code(double x) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x) & 0x7FFFFFFFFFFFFFFFULL;
  return static_cast<int>(bits >> (52 - kMantissaBits));
}

struct FmScratch {
  std::vector<double> gain;
  std::vector<std::uint8_t> locked;
  std::vector<NodeId> moves;
  std::vector<std::int32_t> head;       // bucket -> first node (kNil if empty)
  std::vector<std::int32_t> next, prev; // intrusive per-node links
  std::vector<std::int32_t> bucket_of;  // node -> its bucket (kNil if absent)
  std::uint64_t occ[kBitsetBuckets / 64] = {};
  std::uint64_t occ_sum = 0;  // bit w set iff occ[w] != 0 (two-level bitset)
  // Bucket window of the flattened graph: levels (code - level_base) are
  // clamped to [0, levels]; bucket = levels -/+ level, so 2 * levels + 1
  // buckets.
  int level_base = 0;
  int levels = 1;
  // Flat (neighbor, weight) adjacency copied once per bound graph, in the
  // exact g.incident() edge order, so gain sums stay bit-identical while the
  // inner loops read contiguous memory instead of chasing edge ids. `bound`
  // is set only for the lifetime of an FmBinding.
  std::vector<std::int32_t> adj_off;
  std::vector<NodeId> adj_nbr;
  std::vector<double> adj_w;
  const WeightedGraph* bound = nullptr;

  int bucket(double g) const {
    const int level = std::clamp(magnitude_code(g) - level_base, 0, levels);
    return std::signbit(g) ? levels - level : levels + level;
  }

  void reset(std::size_t n) {
    gain.resize(n);  // every entry is overwritten before its first read
    locked.assign(n, 0);
    moves.clear();
    if (moves.capacity() < n) moves.reserve(n);
    // Lazy bucket clear: only buckets the previous pass actually occupied are
    // touched (the two-level occupancy bitset knows which). The head array
    // only grows, to this graph's window, so small graphs touch little of it.
    std::uint64_t words = occ_sum;
    while (words != 0) {
      const std::size_t w = static_cast<std::size_t>(std::countr_zero(words));
      words &= words - 1;
      std::uint64_t bits = occ[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        head[w * 64 + static_cast<std::size_t>(b)] = kNil;
      }
      occ[w] = 0;
    }
    occ_sum = 0;
    const std::size_t num_buckets = 2 * static_cast<std::size_t>(levels) + 1;
    if (head.size() < num_buckets) head.resize(num_buckets, kNil);
    // Every node is inserted right after a reset, and insert() writes all
    // three of these before any read.
    next.resize(n);
    prev.resize(n);
    bucket_of.resize(n);
  }

  void insert(NodeId v, int b) {
    bucket_of[v] = b;
    prev[v] = kNil;
    next[v] = head[b];
    if (head[b] != kNil) prev[head[b]] = static_cast<std::int32_t>(v);
    head[b] = static_cast<std::int32_t>(v);
    occ[static_cast<std::size_t>(b) / 64] |= std::uint64_t{1} << (b % 64);
    occ_sum |= std::uint64_t{1} << (static_cast<std::size_t>(b) / 64);
  }

  void remove(NodeId v) {
    const int b = bucket_of[v];
    if (b == kNil) return;
    if (prev[v] != kNil) {
      next[prev[v]] = next[v];
    } else {
      head[b] = next[v];
      if (head[b] == kNil) {
        const std::size_t w = static_cast<std::size_t>(b) / 64;
        occ[w] &= ~(std::uint64_t{1} << (b % 64));
        if (occ[w] == 0) occ_sum &= ~(std::uint64_t{1} << w);
      }
    }
    if (next[v] != kNil) prev[next[v]] = prev[v];
    bucket_of[v] = kNil;
  }

  /// Highest occupied bucket strictly below `from` (or the global highest
  /// when from == kBitsetBuckets). O(1) via the two-level bitset: the summary
  /// word locates the highest non-empty occupancy word directly instead of
  /// walking all 64 words between gain clusters.
  int highest_below(int from) const {
    const std::size_t word = static_cast<std::size_t>(from) / 64;
    const int bit = from % 64;
    if (from < static_cast<int>(kBitsetBuckets) && bit > 0) {
      const std::uint64_t masked = occ[word] & ((std::uint64_t{1} << bit) - 1);
      if (masked != 0) {
        return static_cast<int>(word * 64 + 63 - static_cast<std::size_t>(std::countl_zero(masked)));
      }
    }
    // from == kBitsetBuckets means "global highest": every summary bit is
    // below word 64, so the mask is all of occ_sum (1 << 64 would be UB).
    const std::uint64_t sum_masked = word >= 64 ? occ_sum
                                     : word == 0
                                         ? 0
                                         : occ_sum & ((std::uint64_t{1} << word) - 1);
    if (sum_masked == 0) return kNil;
    const std::size_t w = 63 - static_cast<std::size_t>(std::countl_zero(sum_masked));
    return static_cast<int>(w * 64 + 63 -
                            static_cast<std::size_t>(std::countl_zero(occ[w])));
  }

  static FmScratch& local() {
    thread_local FmScratch scratch;
    return scratch;
  }
};

/// Copies (neighbor, weight) pairs in the exact g.incident() edge order —
/// identical iteration order means bit-identical gain sums — and sizes the
/// bucket window from the weights. Does NOT set s.bound: only an FmBinding
/// may vouch that the graph object stays unchanged across calls.
// sc-lint: hot-path
void flatten_adjacency(const WeightedGraph& g, FmScratch& s) {
  const std::size_t n = g.num_nodes();
  // adj_off is deliberately int32 (halves the scratch footprint, and bucket
  // links share the type); the flattened incidence has 2m entries, so fail
  // loudly instead of wrapping once 2m no longer fits. Huge-tier graphs reach
  // FM only after coarsening, far below this bound.
  SC_CHECK(g.num_edges() <= (std::size_t{1} << 30),
           "FM refinement supports at most 2^30 edges (got " << g.num_edges() << ")");
  s.adj_off.resize(n + 1);
  s.adj_off[0] = 0;
  for (NodeId v = 0; v < n; ++v) {
    s.adj_off[v + 1] = s.adj_off[v] + static_cast<std::int32_t>(g.incident(v).size());
  }
  s.adj_nbr.resize(static_cast<std::size_t>(s.adj_off[n]));
  s.adj_w.resize(static_cast<std::size_t>(s.adj_off[n]));
  // |gain(v)| never exceeds v's weighted degree summed in the same order
  // (rounding is monotone), so the largest one bounds every gain.
  double max_degree = 0.0;
  double min_weight = std::numeric_limits<double>::infinity();
  for (NodeId v = 0; v < n; ++v) {
    std::int32_t idx = s.adj_off[v];
    double degree = 0.0;
    for (const graph::EdgeId e : g.incident(v)) {
      const double w = g.edge(e).weight;
      s.adj_nbr[static_cast<std::size_t>(idx)] = g.other(e, v);
      s.adj_w[static_cast<std::size_t>(idx)] = w;
      ++idx;
      degree += std::abs(w);
      if (w != 0.0) min_weight = std::min(min_weight, std::abs(w));
    }
    max_degree = std::max(max_degree, degree);
  }
  // Level 0 (the zero bucket) must hold code 0, so the base is >= 0.
  const int top = magnitude_code(max_degree);
  const int bottom = min_weight <= max_degree
                         ? magnitude_code(min_weight) - (4 << kMantissaBits)
                         : top;
  s.level_base = std::max({bottom - 1, top - kMaxLevels, 0});
  s.levels = std::max(top - s.level_base, 1);
}

/// FM bisection refinement over the gain buckets. Marked hot-path: after
/// warm-up it allocates nothing.
// sc-lint: hot-path
double fm_refine_bisection_buckets(const WeightedGraph& g, std::vector<int>& part,
                                   double target0, double eps, std::size_t max_passes,
                                   FmScratch& s) {
  const std::size_t n = g.num_nodes();
  const double total = g.total_node_weight();
  const double target1 = total - target0;
  // Strict caps define which prefixes may be committed; exploratory caps let
  // a pass walk through temporarily imbalanced states (classic FM behaviour —
  // without this, a balanced-but-poor start has no legal first move).
  double max_node_w = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    max_node_w = std::max(max_node_w, g.node_weight(v));
  }
  const double cap0 = (1.0 + eps) * std::max(target0, 1e-12);
  const double cap1 = (1.0 + eps) * std::max(target1, 1e-12);
  const double explore0 = std::max(cap0, target0 + max_node_w);
  const double explore1 = std::max(cap1, target1 + max_node_w);

  double side_w[2] = {0.0, 0.0};
  for (NodeId v = 0; v < n; ++v) side_w[part[v]] += g.node_weight(v);

  double cut = cut_weight(g, part);

  if (s.bound != &g) flatten_adjacency(g, s);

  // gain[v] = cut reduction if v switches sides.
  const auto recompute_gain = [&](NodeId v) {
    const int pv = part[v];
    double gv = 0.0;
    for (std::int32_t i = s.adj_off[v]; i < s.adj_off[v + 1]; ++i) {
      const double w = s.adj_w[static_cast<std::size_t>(i)];
      gv += (part[s.adj_nbr[static_cast<std::size_t>(i)]] != pv) ? w : -w;
    }
    s.gain[v] = gv;
  };

  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    s.reset(n);
    for (NodeId v = 0; v < n; ++v) {
      recompute_gain(v);
      s.insert(v, s.bucket(s.gain[v]));
    }
    double best_cut = cut;
    std::size_t best_prefix = 0;
    double running = cut;

    for (std::size_t step = 0; step < n; ++step) {
      // Descend buckets until one yields a balance-eligible node; within it
      // pick the exact (max gain, lowest id).
      NodeId pick = graph::kInvalidNode;
      double pick_gain = 0.0;
      for (int b = s.highest_below(static_cast<int>(kBitsetBuckets)); b != kNil;
           b = s.highest_below(b)) {
        for (std::int32_t cur = s.head[b]; cur != kNil; cur = s.next[cur]) {
          // Bucket entries are node indices (< n) by construction; this is
          // the FM inner loop, so skip the redundant range check.
          const NodeId v = static_cast<NodeId>(cur);  // sc-lint: allow(unchecked-id-narrowing)
          const int to = 1 - part[v];
          const double new_w = side_w[to] + g.node_weight(v);
          if ((to == 0 ? new_w > explore0 : new_w > explore1)) continue;
          if (pick == graph::kInvalidNode || s.gain[v] > pick_gain ||
              (s.gain[v] == pick_gain && v < pick)) {
            pick = v;
            pick_gain = s.gain[v];
          }
        }
        if (pick != graph::kInvalidNode) break;
      }
      if (pick == graph::kInvalidNode) break;

      // Tentatively move (FM allows negative-gain moves, rolled back later).
      const int from = part[pick];
      const int to = 1 - from;
      side_w[from] -= g.node_weight(pick);
      side_w[to] += g.node_weight(pick);
      part[pick] = to;
      s.locked[pick] = 1;
      s.remove(pick);
      running -= pick_gain;
      s.moves.push_back(pick);
      // Locked neighbors' gains are dead values (never read again this pass;
      // the next pass recomputes everything), so only live ones are refreshed.
      for (std::int32_t i = s.adj_off[pick]; i < s.adj_off[pick + 1]; ++i) {
        const NodeId u = s.adj_nbr[static_cast<std::size_t>(i)];
        if (s.locked[u] != 0) continue;
        recompute_gain(u);
        // Relink only on a bucket change: the pick loop scans the whole
        // bucket, so within-bucket position cannot affect the selection.
        const int b = s.bucket(s.gain[u]);
        if (b != s.bucket_of[u]) {
          s.remove(u);
          s.insert(u, b);
        }
      }
      // Only prefixes satisfying the strict balance caps may be committed.
      const bool feasible = side_w[0] <= cap0 + 1e-12 && side_w[1] <= cap1 + 1e-12;
      if (feasible && running < best_cut - 1e-12) {
        best_cut = running;
        best_prefix = s.moves.size();
      }
    }

    // Roll back moves beyond the best prefix.
    for (std::size_t i = s.moves.size(); i > best_prefix; --i) {
      const NodeId v = s.moves[i - 1];
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

// ---------------------------------------------------------------------------
// Greedy k-way refinement. One implementation parameterised over its buffers:
// the workspace path reuses a thread-local set, the legacy path allocates a
// fresh set per call (preserving the old allocation profile for A/B runs).
// Results are trivially bit-identical — it is the same code either way.
// ---------------------------------------------------------------------------

struct KwayBuffers {
  std::vector<double> lmax;
  std::vector<double> weight;
  std::vector<double> conn;
  std::vector<int> touched;

  static KwayBuffers& local() {
    thread_local KwayBuffers buffers;
    return buffers;
  }
};

// sc-lint: hot-path
double greedy_kway_impl(const WeightedGraph& g, std::vector<int>& part,
                        const std::vector<double>& targets, double eps,
                        std::size_t max_passes, KwayBuffers& b) {
  SC_CHECK(part.size() == g.num_nodes(), "partition size mismatch");
  SC_CHECK(!targets.empty(), "need at least one part");
  const std::size_t k = targets.size();
  const std::size_t n = g.num_nodes();
  b.lmax.resize(k);
  for (std::size_t q = 0; q < k; ++q) {
    SC_CHECK(targets[q] >= 0.0, "part targets must be non-negative");
    b.lmax[q] = (1.0 + eps) * targets[q];
  }

  b.weight.assign(k, 0.0);
  for (NodeId v = 0; v < n; ++v) {
    b.weight[static_cast<std::size_t>(part[v])] += g.node_weight(v);
  }

  b.conn.assign(k, 0.0);
  b.touched.clear();
  if (b.touched.capacity() < 16) b.touched.reserve(16);

  std::vector<double>& weight = b.weight;
  std::vector<double>& conn = b.conn;
  std::vector<int>& touched = b.touched;
  std::vector<double>& lmax = b.lmax;

  double cut = cut_weight(g, part);
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    bool moved_any = false;
    for (NodeId v = 0; v < n; ++v) {
      // Connectivity of v to each neighboring part.
      for (const int q : touched) conn[static_cast<std::size_t>(q)] = 0.0;
      touched.clear();
      for (const graph::EdgeId e : g.incident(v)) {
        const int q = part[g.other(e, v)];
        if (conn[static_cast<std::size_t>(q)] == 0.0) touched.push_back(q);
        conn[static_cast<std::size_t>(q)] += g.edge(e).weight;
      }
      const int cur = part[v];
      const double internal = conn[static_cast<std::size_t>(cur)];
      const bool overweight =
          weight[static_cast<std::size_t>(cur)] > lmax[static_cast<std::size_t>(cur)];
      int best = cur;
      double best_gain = overweight ? -std::numeric_limits<double>::infinity() : 0.0;
      for (const int q : touched) {
        if (q == cur) continue;
        if (weight[static_cast<std::size_t>(q)] + g.node_weight(v) >
            lmax[static_cast<std::size_t>(q)]) {
          continue;
        }
        const double gain = conn[static_cast<std::size_t>(q)] - internal;
        if (gain > best_gain + 1e-12) {
          best_gain = gain;
          best = q;
        }
      }
      // Active rebalancing: an overweight part evicts even when no neighbor
      // part helps the cut — fall back to the part with most relative
      // headroom (fill fraction of its target).
      if (overweight && best == cur) {
        const auto fill = [&](std::size_t q) {
          return weight[q] / std::max(targets[q], 1e-12);
        };
        int lightest = cur;
        for (std::size_t q = 0; q < k; ++q) {
          if (fill(q) < fill(static_cast<std::size_t>(lightest))) {
            lightest = static_cast<int>(q);
          }
        }
        if (lightest != cur &&
            weight[static_cast<std::size_t>(lightest)] + g.node_weight(v) <=
                lmax[static_cast<std::size_t>(lightest)]) {
          best = lightest;
          best_gain = conn[static_cast<std::size_t>(lightest)] - internal;
        }
      }
      if (best != cur) {
        weight[static_cast<std::size_t>(cur)] -= g.node_weight(v);
        weight[static_cast<std::size_t>(best)] += g.node_weight(v);
        part[v] = best;
        cut -= best_gain;
        moved_any = true;
      }
    }
    if (!moved_any) break;
  }
  return cut;
}

}  // namespace

double fm_refine_bisection(const WeightedGraph& g, std::vector<int>& part,
                           double target0, double eps, std::size_t max_passes) {
  SC_CHECK(part.size() == g.num_nodes(), "partition size mismatch");
  return fm_refine_bisection_buckets(g, part, target0, eps, max_passes, FmScratch::local());
}

FmBinding::FmBinding(const WeightedGraph& g) {
  FmScratch& s = FmScratch::local();
  flatten_adjacency(g, s);
  s.bound = &g;
}

FmBinding::~FmBinding() { FmScratch::local().bound = nullptr; }

double greedy_kway_refine(const WeightedGraph& g, std::vector<int>& part, std::size_t k,
                          double eps, std::size_t max_passes) {
  SC_CHECK(k >= 1, "k must be positive");
  // Convenience overload for cold callers; the partitioner's hot path calls
  // the targets overload with workspace-held targets.
  const std::vector<double> targets(  // sc-lint: allow(transitive-alloc)
      k, g.total_node_weight() / static_cast<double>(k));
  return greedy_kway_refine(g, part, targets, eps, max_passes);
}

double greedy_kway_refine(const WeightedGraph& g, std::vector<int>& part,
                          const std::vector<double>& targets, double eps,
                          std::size_t max_passes) {
  if (workspace::enabled()) {
    return greedy_kway_impl(g, part, targets, eps, max_passes, KwayBuffers::local());
  }
  KwayBuffers fresh;
  return greedy_kway_impl(g, part, targets, eps, max_passes, fresh);
}

}  // namespace sc::partition
