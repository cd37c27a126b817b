#include "partition/refine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "fm_oracle.hpp"

#include "common/rng.hpp"
#include "partition/metrics.hpp"

namespace sc::partition {
namespace {

using graph::WeightedEdge;
using graph::WeightedGraph;

// Two unit-weight cliques of 4, connected by a single light bridge.
WeightedGraph two_cliques(double bridge = 0.1) {
  std::vector<WeightedEdge> edges;
  for (graph::NodeId i = 0; i < 4; ++i) {
    for (graph::NodeId j = i + 1; j < 4; ++j) {
      edges.push_back({i, j, 1.0});
      edges.push_back({static_cast<graph::NodeId>(i + 4),
                       static_cast<graph::NodeId>(j + 4), 1.0});
    }
  }
  edges.push_back({3, 4, bridge});
  return WeightedGraph(std::vector<double>(8, 1.0), edges);
}

TEST(FmRefine, RecoversNaturalBisection) {
  const WeightedGraph g = two_cliques();
  // Start from a bad split that cuts both cliques.
  std::vector<int> part{0, 1, 0, 1, 0, 1, 0, 1};
  const double cut = fm_refine_bisection(g, part, 4.0, 0.05);
  EXPECT_NEAR(cut, 0.1, 1e-9);  // only the bridge remains cut
  EXPECT_EQ(part[0], part[1]);
  EXPECT_EQ(part[4], part[7]);
  EXPECT_NE(part[0], part[4]);
}

TEST(FmRefine, NeverWorsensCut) {
  const WeightedGraph g = two_cliques();
  std::vector<int> part{0, 0, 0, 0, 1, 1, 1, 1};  // already optimal
  const double before = cut_weight(g, part);
  const double after = fm_refine_bisection(g, part, 4.0, 0.05);
  EXPECT_LE(after, before + 1e-12);
}

TEST(FmRefine, ReturnedCutMatchesRecount) {
  const WeightedGraph g = two_cliques(2.5);
  std::vector<int> part{0, 1, 1, 0, 1, 0, 0, 1};
  const double cut = fm_refine_bisection(g, part, 4.0, 0.1);
  EXPECT_NEAR(cut, cut_weight(g, part), 1e-9);
}

TEST(FmRefine, RespectsBalanceCap) {
  const WeightedGraph g = two_cliques(100.0);  // heavy bridge tempts merging all
  std::vector<int> part{0, 0, 0, 0, 1, 1, 1, 1};
  fm_refine_bisection(g, part, 4.0, 0.05);
  const auto w = part_weights(g, part, 2);
  EXPECT_LE(w[0], 4.0 * 1.05 + 1e-9);
  EXPECT_LE(w[1], 4.0 * 1.05 + 1e-9);
}

// One oracle case: a graph, a starting bisection and the balance band.
struct FmCase {
  std::string name;
  WeightedGraph g;
  std::vector<int> init;
  double target0;
  double eps;
  std::size_t max_passes;
};

std::vector<int> random_sides(std::size_t n, Rng& rng) {
  std::vector<int> part(n);
  for (int& q : part) q = rng.index(2) == 0 ? 0 : 1;
  return part;
}

// Random multigraph on n nodes with ~avg_deg/2 * n edges; `edge_w` draws
// each edge weight, `node_w` each node weight.
template <typename EdgeW, typename NodeW>
WeightedGraph random_graph(std::size_t n, std::size_t avg_deg, Rng& rng, EdgeW&& edge_w,
                           NodeW&& node_w) {
  std::vector<double> weights(n);
  for (double& w : weights) w = node_w();
  std::vector<WeightedEdge> edges;
  const std::size_t m = n * avg_deg / 2;
  for (std::size_t e = 0; e < m; ++e) {
    const auto a = static_cast<graph::NodeId>(rng.index(n));
    const auto b = static_cast<graph::NodeId>(rng.index(n));
    if (a != b) edges.push_back({a, b, edge_w()});
  }
  return WeightedGraph(std::move(weights), edges);
}

std::vector<FmCase> oracle_cases() {
  std::vector<FmCase> cases;
  Rng rng(0xFEEDu);
  const auto add = [&](std::string name, WeightedGraph g, double eps,
                       std::size_t passes = 8) {
    std::vector<int> init = random_sides(g.num_nodes(), rng);
    const double target0 = 0.5 * g.total_node_weight();
    cases.push_back({std::move(name), std::move(g), std::move(init), target0, eps, passes});
  };

  // Log-uniform edge weights over 2^(lo-1) .. 2^(hi+1).
  const auto log_uniform = [&](int lo, int hi) {
    return [&rng, lo, hi] {
      const int e = lo + static_cast<int>(rng.index(static_cast<std::size_t>(hi - lo + 1)));
      return std::ldexp(1.0 + rng.uniform(), e);
    };
  };
  const auto unit_ish = [&] { return 0.5 + rng.uniform(); };

  // Sizes from 2 to ~20,000. Small integer edge weights make gain ties
  // common; log-uniform weights spread the gains so widely that a bucket per
  // binary exponent would hold hundreds of nodes at the large sizes.
  for (const std::size_t n : {2, 3, 5, 17, 64, 257, 1000, 4000}) {
    add("ties n=" + std::to_string(n),
        random_graph(n, 6, rng, [&] { return 1.0 + static_cast<double>(rng.index(4)); },
                     unit_ish),
        0.08);
    add("spread n=" + std::to_string(n), random_graph(n, 6, rng, log_uniform(-20, 20), unit_ish),
        0.05);
  }
  // One pass: the O(n^2) oracle dominates the test's run time here, and
  // multi-pass behaviour is covered at the smaller sizes.
  add("spread n=20000",
      random_graph(20000, 8, rng, [&] { return std::exp(12.0 * rng.uniform()); },
                   [] { return 1.0; }),
      0.03, 1);
  // Weights over ~600 octaves: wider than the bucket window's level cap, so
  // many distinct small gains share the zero bucket.
  add("extreme spread", random_graph(500, 6, rng, log_uniform(-300, 300), unit_ish), 0.05);

  // Heavy nodes straddling the destination's remaining room: a handful of
  // nodes near max_node_weight decide whether a move fits the exploratory
  // band, and an all-on-one-side start makes the band bind from step one.
  for (const double heavy : {5.0, 9.75, 20.0}) {
    WeightedGraph g = random_graph(
        120, 5, rng, [&] { return 0.25 * static_cast<double>(1 + rng.index(8)); },
        [&] { return rng.index(10) == 0 ? heavy : 1.0; });
    const std::size_t n = g.num_nodes();
    const double target0 = 0.5 * g.total_node_weight();
    cases.push_back({"heavy " + std::to_string(heavy) + " one-sided", g,
                     std::vector<int>(n, 0), target0, 0.05, 8});
    cases.push_back({"heavy " + std::to_string(heavy) + " random", std::move(g),
                     random_sides(n, rng), 0.3 * target0 * 2.0, 0.02, 8});
  }

  // Zero-weight edges (gains of exactly 0 built from +-0 terms), mixed with
  // ordinary ones.
  add("zero-weight edges",
      random_graph(300, 6, rng,
                   [&] { return rng.index(3) == 0 ? 0.0 : static_cast<double>(rng.index(3)); },
                   [&] { return 0.5 + rng.uniform(); }),
      0.1);

  // Disconnected: three components with no edges between them plus
  // isolated nodes.
  {
    std::vector<WeightedEdge> edges;
    for (graph::NodeId c = 0; c < 3; ++c) {
      for (graph::NodeId i = 0; i < 40; ++i) {
        for (int d = 0; d < 3; ++d) {
          const auto j = static_cast<graph::NodeId>(rng.index(40));
          if (i != j) edges.push_back({c * 40 + i, c * 40 + j, 0.5 + rng.uniform()});
        }
      }
    }
    add("disconnected", WeightedGraph(std::vector<double>(130, 1.0), edges), 0.05);
  }

  // All-equal gains: every node of an edgeless graph has gain 0, and every
  // node of a one-sided unit ring has gain -2.
  add("edgeless", WeightedGraph(std::vector<double>(50, 1.0), {}), 0.1);
  {
    std::vector<WeightedEdge> ring;
    for (graph::NodeId i = 0; i < 64; ++i) {
      ring.push_back({i, static_cast<graph::NodeId>((i + 1) % 64), 1.0});
    }
    WeightedGraph g(std::vector<double>(64, 1.0), ring);
    cases.push_back({"ring one-sided", std::move(g), std::vector<int>(64, 0), 32.0, 0.1, 8});
  }
  return cases;
}

// The gain-bucket refiner must make exactly the oracle's move sequence:
// same part vector and bit-identical cut, with and without a bound graph.
TEST(FmRefine, VariantsAreBitIdentical) {
  for (const FmCase& c : oracle_cases()) {
    std::vector<int> expected = c.init;
    const double expected_cut = testing::fm_refine_bisection_oracle(
        c.g, expected, c.target0, c.eps, c.max_passes);

    std::vector<int> part = c.init;
    const double cut = fm_refine_bisection(c.g, part, c.target0, c.eps, c.max_passes);
    EXPECT_EQ(cut, expected_cut) << c.name;
    EXPECT_EQ(part, expected) << c.name;

    const FmBinding binding(c.g);
    std::vector<int> bound = c.init;
    const double bound_cut = fm_refine_bisection(c.g, bound, c.target0, c.eps, c.max_passes);
    EXPECT_EQ(bound_cut, expected_cut) << c.name << " (bound)";
    EXPECT_EQ(bound, expected) << c.name << " (bound)";
  }
}

TEST(KwayRefine, ImprovesBalancedRandomPartition) {
  const WeightedGraph g = two_cliques();
  Rng rng(7);
  // Balanced random start: refinement must never worsen the cut from here.
  std::vector<graph::NodeId> ids{0, 1, 2, 3, 4, 5, 6, 7};
  rng.shuffle(ids);
  std::vector<int> part(8);
  for (std::size_t i = 0; i < 8; ++i) part[ids[i]] = i < 4 ? 0 : 1;
  const double before = cut_weight(g, part);
  const double after = greedy_kway_refine(g, part, 2, 0.2);
  EXPECT_LE(after, before + 1e-12);
  EXPECT_NEAR(after, cut_weight(g, part), 1e-9);
}

TEST(KwayRefine, RestoresBalanceEvenAtCutCost) {
  const WeightedGraph g = two_cliques();
  // 7-vs-1 split: heavily imbalanced; the refiner must evict nodes from the
  // overweight part even though that cuts clique-internal edges.
  std::vector<int> part{0, 0, 0, 0, 0, 0, 0, 1};
  greedy_kway_refine(g, part, 2, 0.2);
  EXPECT_LE(imbalance(g, part, 2), 1.2 + 1e-9);
}

TEST(KwayRefine, FourWayKeepsBalanceBound) {
  // 16 nodes in a ring.
  std::vector<WeightedEdge> edges;
  for (graph::NodeId i = 0; i < 16; ++i) {
    edges.push_back({i, static_cast<graph::NodeId>((i + 1) % 16), 1.0});
  }
  const WeightedGraph g(std::vector<double>(16, 1.0), edges);
  std::vector<int> part(16);
  for (std::size_t i = 0; i < 16; ++i) part[i] = static_cast<int>(i % 4);
  greedy_kway_refine(g, part, 4, 0.25);
  EXPECT_LE(imbalance(g, part, 4), 1.25 + 1e-9);
}

TEST(KwayRefine, SinglePartIsNoop) {
  const WeightedGraph g = two_cliques();
  std::vector<int> part(8, 0);
  const double cut = greedy_kway_refine(g, part, 1, 0.1);
  EXPECT_DOUBLE_EQ(cut, 0.0);
}

}  // namespace
}  // namespace sc::partition
