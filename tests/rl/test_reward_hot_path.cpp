// Property tests for the reward hot path's performance toggles: contraction
// scratch and partition workspace. Every fast path claims bit-identity with
// its legacy twin, so the sweep asserts EXPECT_EQ on raw reward doubles — no
// tolerance — across random graphs, mask densities, all four toggle
// combinations, and workspaces that are forced to shrink and grow between
// calls on the same thread.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "gen/generator.hpp"
#include "graph/contraction.hpp"
#include "partition/workspace.hpp"
#include "rl/rollout.hpp"

namespace sc::rl {
namespace {

// Sets both hot-path toggles, restoring the previous values on scope exit
// so test order can never leak toggle state.
struct ToggleGuard {
  ToggleGuard(bool scratch, bool ws)
      : prev_scratch_(graph::contraction_scratch::set_enabled(scratch)),
        prev_ws_(partition::workspace::set_enabled(ws)) {}
  ~ToggleGuard() {
    graph::contraction_scratch::set_enabled(prev_scratch_);
    partition::workspace::set_enabled(prev_ws_);
  }
  ToggleGuard(const ToggleGuard&) = delete;
  ToggleGuard& operator=(const ToggleGuard&) = delete;

 private:
  bool prev_scratch_, prev_ws_;
};

std::vector<graph::StreamGraph> random_graphs(std::size_t count, std::size_t min_nodes,
                                              std::size_t max_nodes, std::uint64_t seed) {
  gen::GeneratorConfig cfg;
  cfg.topology.min_nodes = min_nodes;
  cfg.topology.max_nodes = max_nodes;
  cfg.workload.num_devices = 4;
  return gen::generate_graphs(cfg, count, seed);
}

sim::ClusterSpec spec() {
  gen::GeneratorConfig cfg;
  cfg.workload.num_devices = 4;
  return to_cluster_spec(cfg.workload);
}

gnn::EdgeMask random_mask(std::size_t edges, double density, Rng& rng) {
  gnn::EdgeMask mask(edges, 0);
  for (std::size_t e = 0; e < edges; ++e) mask[e] = rng.bernoulli(density) ? 1 : 0;
  return mask;
}

TEST(RewardHotPath, BitIdenticalAcrossAllToggleCombinations) {
  const auto graphs = random_graphs(4, 12, 40, 401);
  const auto contexts = make_contexts(graphs, spec());
  const auto placer = metis_placer();
  const double densities[] = {0.0, 0.2, 0.5, 0.8, 1.0};

  // Reference rewards from the all-legacy configuration.
  std::vector<std::vector<Episode>> expected;
  {
    ToggleGuard off(false, false);
    for (const auto& ctx : contexts) {
      Rng rng(7 * (expected.size() + 1));
      auto& per_graph = expected.emplace_back();
      for (const double d : densities) {
        const auto mask = random_mask(ctx.graph->edges().size(), d, rng);
        per_graph.push_back(evaluate_mask(ctx, mask, placer));
      }
    }
  }

  // Every other toggle combination must reproduce the exact doubles.
  for (int bits = 1; bits < 4; ++bits) {
    ToggleGuard combo((bits & 1) != 0, (bits & 2) != 0);
    for (std::size_t gi = 0; gi < contexts.size(); ++gi) {
      Rng rng(7 * (gi + 1));  // same mask stream as the reference pass
      for (std::size_t di = 0; di < std::size(densities); ++di) {
        const auto mask = random_mask(contexts[gi].graph->edges().size(), densities[di], rng);
        const Episode got = evaluate_mask(contexts[gi], mask, placer);
        EXPECT_EQ(got.reward, expected[gi][di].reward)
            << "toggles=" << bits << " graph=" << gi << " density=" << densities[di];
        EXPECT_EQ(got.compression, expected[gi][di].compression)
            << "toggles=" << bits << " graph=" << gi << " density=" << densities[di];
        EXPECT_EQ(got.mask, expected[gi][di].mask);
      }
    }
  }
}

TEST(RewardHotPath, WorkspaceSurvivesShrinkAndGrowBetweenGraphs) {
  // The same thread_local workspaces serve every call on this thread; bounce
  // between a large and a small graph so each evaluation reuses buffers sized
  // for the other shape (stale tails, capacity handoff, frame reuse).
  const auto big = random_graphs(2, 80, 120, 402);
  const auto small = random_graphs(2, 6, 12, 403);
  const auto big_ctx = make_contexts(big, spec());
  const auto small_ctx = make_contexts(small, spec());
  const auto placer = metis_placer();
  const double densities[] = {0.2, 0.5, 0.8};

  auto eval_all = [&] {
    std::vector<double> rewards;
    for (int round = 0; round < 2; ++round) {
      for (std::size_t i = 0; i < big_ctx.size(); ++i) {
        Rng rng(11 * (i + 1) + round);
        for (const double d : densities) {
          // Interleave: big graph then small graph with buffers still warm
          // from the big one, then back.
          const auto bm = random_mask(big_ctx[i].graph->edges().size(), d, rng);
          rewards.push_back(evaluate_mask(big_ctx[i], bm, placer).reward);
          const auto sm = random_mask(small_ctx[i].graph->edges().size(), d, rng);
          rewards.push_back(evaluate_mask(small_ctx[i], sm, placer).reward);
        }
      }
    }
    return rewards;
  };

  std::vector<double> legacy, fast;
  {
    ToggleGuard off(false, false);
    legacy = eval_all();
  }
  {
    ToggleGuard on(true, true);
    fast = eval_all();
  }
  ASSERT_EQ(legacy.size(), fast.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(fast[i], legacy[i]) << "evaluation " << i;
  }
}

TEST(RewardHotPath, CoarsenOnlyPlacerMatchesAcrossToggles) {
  // The coarsen-only placer has its own workspace path (partial selection of
  // the heaviest edges instead of a full sort); sweep it too.
  const auto graphs = random_graphs(3, 10, 30, 404);
  const auto contexts = make_contexts(graphs, spec());
  const auto placer = coarsen_only_placer();
  const double densities[] = {0.1, 0.4, 0.7};

  std::vector<double> legacy, fast;
  auto eval_all = [&](std::vector<double>& out) {
    for (std::size_t gi = 0; gi < contexts.size(); ++gi) {
      Rng rng(13 * (gi + 1));
      for (const double d : densities) {
        const auto mask = random_mask(contexts[gi].graph->edges().size(), d, rng);
        out.push_back(evaluate_mask(contexts[gi], mask, placer).reward);
      }
    }
  };
  {
    ToggleGuard off(false, false);
    eval_all(legacy);
  }
  {
    ToggleGuard on(true, true);
    eval_all(fast);
  }
  ASSERT_EQ(legacy.size(), fast.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) EXPECT_EQ(fast[i], legacy[i]);
}

}  // namespace
}  // namespace sc::rl
