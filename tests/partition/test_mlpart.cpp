#include "partition/mlpart.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/error.hpp"

#include "common/rng.hpp"
#include "gen/dataset.hpp"
#include "gen/generator.hpp"
#include "graph/rates.hpp"
#include "partition/metrics.hpp"
#include "partition/workspace.hpp"

namespace sc::partition {
namespace {

using graph::WeightedEdge;
using graph::WeightedGraph;

WeightedGraph clusters(std::size_t k, std::size_t size_per, double inner = 1.0,
                       double bridge = 0.01) {
  std::vector<WeightedEdge> edges;
  const auto id = [size_per](std::size_t c, std::size_t i) {
    return static_cast<graph::NodeId>(c * size_per + i);
  };
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t i = 0; i < size_per; ++i) {
      for (std::size_t j = i + 1; j < size_per; ++j) {
        edges.push_back({id(c, i), id(c, j), inner});
      }
    }
    if (c + 1 < k) edges.push_back({id(c, size_per - 1), id(c + 1, 0), bridge});
  }
  return WeightedGraph(std::vector<double>(k * size_per, 1.0), edges);
}

TEST(Mlpart, SinglePartTrivial) {
  const WeightedGraph g = clusters(2, 4);
  MultilevelPartitioner p;
  const auto part = p.partition(g, 1);
  for (const int q : part) EXPECT_EQ(q, 0);
}

TEST(Mlpart, FindsPlantedBisection) {
  const WeightedGraph g = clusters(2, 8);
  MultilevelPartitioner p;
  const auto part = p.partition(g, 2);
  EXPECT_NEAR(cut_weight(g, part), 0.01, 1e-9);
  EXPECT_LE(imbalance(g, part, 2), 1.10 + 1e-9);
}

TEST(Mlpart, FindsPlantedFourWay) {
  const WeightedGraph g = clusters(4, 8);
  MultilevelPartitioner p;
  const auto part = p.partition(g, 4);
  // Optimal cut = the 3 bridges.
  EXPECT_LE(cut_weight(g, part), 0.03 + 1e-9);
  EXPECT_LE(imbalance(g, part, 4), 1.10 + 1e-9);
}

TEST(Mlpart, HandlesGraphSmallerThanK) {
  const WeightedGraph g({1.0, 1.0, 1.0}, {WeightedEdge{0, 1, 1}, WeightedEdge{1, 2, 1}});
  MultilevelPartitioner p;
  const auto part = p.partition(g, 8);
  for (const int q : part) {
    EXPECT_GE(q, 0);
    EXPECT_LT(q, 8);
  }
}

TEST(Mlpart, BalancedOnGeneratedStreamGraphs) {
  gen::GeneratorConfig cfg;
  cfg.topology.min_nodes = 150;
  cfg.topology.max_nodes = 200;
  Rng rng(11);
  const auto sg = gen::generate_graph(cfg, rng);
  const auto profile = graph::compute_load_profile(sg);
  const auto wg = graph::to_weighted(sg, profile);

  MultilevelPartitioner p;
  const auto part = p.partition(wg, 10);
  EXPECT_LE(imbalance(wg, part, 10), 1.5);  // generous bound for lumpy weights
  // Sanity: the partition must beat a pathological all-on-one "cut" of 0 only
  // by also balancing; here we just require a valid labelling.
  for (const int q : part) {
    EXPECT_GE(q, 0);
    EXPECT_LT(q, 10);
  }
}

TEST(Mlpart, DeterministicForFixedSeed) {
  const WeightedGraph g = clusters(3, 7);
  PartitionOptions opts;
  opts.seed = 77;
  MultilevelPartitioner p(opts);
  EXPECT_EQ(p.partition(g, 3), p.partition(g, 3));
}

TEST(Mlpart, BeatsRandomPartitionOnCut) {
  const WeightedGraph g = clusters(2, 16, 1.0, 0.5);
  MultilevelPartitioner p;
  const auto part = p.partition(g, 2);

  Rng rng(13);
  double random_cut = 0.0;
  for (int t = 0; t < 5; ++t) {
    std::vector<int> rnd(g.num_nodes());
    for (auto& q : rnd) q = static_cast<int>(rng.index(2));
    random_cut += cut_weight(g, rnd);
  }
  random_cut /= 5.0;
  EXPECT_LT(cut_weight(g, part), random_cut);
}

TEST(Mlpart, CoarsenToReducesNodeCount) {
  const WeightedGraph g = clusters(4, 16);
  MultilevelPartitioner p;
  const auto groups = p.coarsen_to(g, 8);
  std::vector<bool> seen(g.num_nodes(), false);
  std::size_t distinct = 0;
  for (const auto gid : groups) {
    ASSERT_LT(gid, g.num_nodes());
    if (!seen[gid]) {
      seen[gid] = true;
      ++distinct;
    }
  }
  EXPECT_LE(distinct, 8u + 4u);  // matching halves per level; allow slack
  EXPECT_GE(distinct, 2u);
}

// The workspace coarsen_to loop must reproduce the allocating loop's group
// map exactly (same rng stream, same no-progress rule) on varied graphs.
TEST(Mlpart, CoarsenToWorkspaceBitIdentical) {
  gen::GeneratorConfig cfg;
  cfg.topology.min_nodes = 200;
  cfg.topology.max_nodes = 300;
  Rng gen_rng(0xAB12u);
  for (std::size_t i = 0; i < 2; ++i) {
    const auto sg = gen::generate_graph(cfg, gen_rng);
    const auto profile = graph::compute_load_profile(sg);
    const WeightedGraph g = graph::to_weighted(sg, profile);
    for (const std::size_t target : {std::size_t{4}, std::size_t{32}}) {
      PartitionOptions po;
      po.seed = 7 + i;
      const bool prev = coarsen_ws::set_enabled(false);
      const auto legacy = MultilevelPartitioner(po).coarsen_to(g, target);
      coarsen_ws::set_enabled(true);
      const auto ws = MultilevelPartitioner(po).coarsen_to(g, target);
      coarsen_ws::set_enabled(prev);
      EXPECT_EQ(legacy, ws) << "graph " << i << " target " << target;
    }
  }
}

TEST(Mlpart, CoarsenToOneGroupsEverything) {
  const WeightedGraph g = clusters(2, 4);
  MultilevelPartitioner p;
  const auto groups = p.coarsen_to(g, 1);
  for (const auto gid : groups) EXPECT_EQ(gid, groups[0]);
}

// FNV-1a over the part labels: a compact placement fingerprint.
std::uint64_t label_fingerprint(const std::vector<int>& part) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const int q : part) {
    h ^= static_cast<std::uint32_t>(q);
    h *= 1099511628211ULL;
  }
  return h;
}

// Golden placements. Refactors of the partitioner (matching, bisection, FM,
// k-way refinement) must reproduce these exact labellings; a change that
// moves either fingerprint changes placements and must say so.
TEST(Mlpart, GoldenFingerprintMediumGraphK10) {
  Rng rng(0x5EED0010u);
  const auto sg = gen::generate_graph(gen::setting_config(gen::Setting::Medium), rng);
  const WeightedGraph g = graph::to_weighted(sg, graph::compute_load_profile(sg));
  const auto part = MultilevelPartitioner().partition(g, 10);
  ASSERT_EQ(g.num_nodes(), 144u);
  EXPECT_EQ(label_fingerprint(part), 0xea54086b48c69a18ULL);
}

// A coarse-graph stand-in for the Huge tier's global partition: heavy,
// uneven supernode weights and edge weights spread over ~12 octaves.
TEST(Mlpart, GoldenFingerprintCoarseGraphK64) {
  Rng rng(0x5EED0064u);
  const std::size_t n = 3000;
  std::vector<double> weights(n);
  for (double& w : weights) w = 1.0 + static_cast<double>(rng.index(40));
  std::vector<WeightedEdge> edges;
  for (std::size_t v = 0; v < n; ++v) {
    for (int d = 0; d < 3; ++d) {
      const std::size_t u = (v + 1 + rng.index(50)) % n;
      edges.push_back({static_cast<graph::NodeId>(v), static_cast<graph::NodeId>(u),
                       std::exp(8.0 * rng.uniform())});
    }
  }
  const WeightedGraph g(std::move(weights), edges);
  const auto part = MultilevelPartitioner().partition(g, 64);
  EXPECT_EQ(label_fingerprint(part), 0x3ca7c863a593bd46ULL);
}

TEST(Mlpart, InvalidKThrows) {
  const WeightedGraph g = clusters(2, 4);
  MultilevelPartitioner p;
  EXPECT_THROW(p.partition(g, 0), Error);
  EXPECT_THROW(p.coarsen_to(g, 0), Error);
}

}  // namespace
}  // namespace sc::partition
