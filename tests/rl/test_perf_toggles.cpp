// The PR-2 performance levers — tensor arena, fused kernels, block-diagonal
// batched forward — are pure optimisations: training statistics must be
// bit-identical with each of them on or off at a fixed seed. Run on a
// 1-thread pool so even the cache hit/miss split is deterministic.
#include "rl/reinforce.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "gen/generator.hpp"
#include "graph/contraction.hpp"
#include "nn/arena.hpp"
#include "nn/ops.hpp"
#include "partition/mlpart.hpp"
#include "partition/workspace.hpp"
#include "rl/trainer_state.hpp"

namespace sc::rl {
namespace {

std::vector<graph::StreamGraph> small_graphs(std::size_t count, std::uint64_t seed) {
  gen::GeneratorConfig cfg;
  cfg.topology.min_nodes = 15;
  cfg.topology.max_nodes = 25;
  cfg.workload.num_devices = 3;
  return gen::generate_graphs(cfg, count, seed);
}

sim::ClusterSpec spec() {
  gen::GeneratorConfig cfg;
  cfg.workload.num_devices = 3;
  return to_cluster_spec(cfg.workload);
}

std::vector<EpochStats> run_epochs(const std::vector<graph::StreamGraph>& graphs,
                                   bool arena_on, bool fused_on, bool batched_on,
                                   int epochs) {
  const bool prev_arena = nn::arena::set_enabled(arena_on);
  const bool prev_fused = nn::fused::set_enabled(fused_on);
  ThreadPool serial(1);
  auto contexts = make_contexts(graphs, spec());
  gnn::CoarseningPolicy policy{gnn::PolicyConfig{}};
  TrainerConfig cfg;
  cfg.seed = 99;
  cfg.batched_forward = batched_on;
  cfg.pool = &serial;
  ReinforceTrainer trainer(policy, contexts, metis_placer(), cfg);
  std::vector<EpochStats> out;
  for (int e = 0; e < epochs; ++e) out.push_back(trainer.train_epoch());
  nn::arena::set_enabled(prev_arena);
  nn::fused::set_enabled(prev_fused);
  return out;
}

void expect_bit_identical(const std::vector<EpochStats>& a,
                          const std::vector<EpochStats>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e) {
    EXPECT_EQ(a[e].mean_sample_reward, b[e].mean_sample_reward) << what << " epoch " << e;
    EXPECT_EQ(a[e].mean_best_reward, b[e].mean_best_reward) << what << " epoch " << e;
    EXPECT_EQ(a[e].mean_greedy_reward, b[e].mean_greedy_reward) << what << " epoch " << e;
    EXPECT_EQ(a[e].mean_compression, b[e].mean_compression) << what << " epoch " << e;
    EXPECT_EQ(a[e].mean_loss, b[e].mean_loss) << what << " epoch " << e;
    EXPECT_EQ(a[e].cache_hits, b[e].cache_hits) << what << " epoch " << e;
    EXPECT_EQ(a[e].cache_misses, b[e].cache_misses) << what << " epoch " << e;
    EXPECT_EQ(a[e].dedup_hits, b[e].dedup_hits) << what << " epoch " << e;
  }
}

TEST(PerfToggles, EpochStatsBitIdenticalAcrossAllToggles) {
  const auto graphs = small_graphs(4, 31);
  const auto base = run_epochs(graphs, true, true, true, 3);
  expect_bit_identical(base, run_epochs(graphs, false, true, true, 3), "arena off");
  expect_bit_identical(base, run_epochs(graphs, true, false, true, 3), "fused off");
  expect_bit_identical(base, run_epochs(graphs, true, true, false, 3), "batched off");
  expect_bit_identical(base, run_epochs(graphs, false, false, false, 3), "all off");
}

TEST(PerfToggles, RewardHotPathTogglesKeepStatsAndCheckpointsIdentical) {
  // The reward hot-path levers — contraction scratch and partition
  // workspace — must not perturb training either: epoch stats stay
  // bit-identical and the serialized checkpoint (parameters, Adam moments,
  // RNG stream, buffers) is byte-for-byte the same file. (The FM refiner has
  // one implementation; tests/partition/test_refine.cpp checks it against a
  // full-scan oracle.)
  const auto graphs = small_graphs(4, 53);
  auto run = [&](bool scratch_on, bool ws_on) {
    const bool prev_scratch = graph::contraction_scratch::set_enabled(scratch_on);
    const bool prev_ws = partition::workspace::set_enabled(ws_on);
    ThreadPool serial(1);
    auto contexts = make_contexts(graphs, spec());
    gnn::CoarseningPolicy policy{gnn::PolicyConfig{}};
    TrainerConfig cfg;
    cfg.seed = 99;
    cfg.pool = &serial;
    ReinforceTrainer trainer(policy, contexts, metis_placer(), cfg);
    std::vector<EpochStats> stats;
    for (int e = 0; e < 3; ++e) stats.push_back(trainer.train_epoch());
    std::ostringstream checkpoint;
    write_trainer_state(checkpoint, trainer.export_state());
    graph::contraction_scratch::set_enabled(prev_scratch);
    partition::workspace::set_enabled(prev_ws);
    return std::pair{stats, checkpoint.str()};
  };

  const auto base = run(true, true);
  for (const auto& [label, stats_and_ckpt] :
       {std::pair{"scratch off", run(false, true)},
        std::pair{"workspace off", run(true, false)},
        std::pair{"all legacy", run(false, false)}}) {
    expect_bit_identical(base.first, stats_and_ckpt.first, label);
    EXPECT_EQ(base.second, stats_and_ckpt.second)
        << label << ": checkpoint files differ";
  }
}

TEST(PerfToggles, SimdAndParallelBisectionKeepStatsAndCheckpointsIdentical) {
  // The PR-6 levers — SIMD-dispatched nn kernels and the thread-parallel
  // recursive-bisection driver — are execution-strategy switches: training
  // stats and the full serialized trainer state (parameters, Adam moments,
  // RNG streams, buffers) must be byte-identical with each on or off. SIMD
  // identity holds because every vector kernel preserves the scalar
  // accumulation order under fp-contract=off; bisection identity holds
  // because each subtree consumes a private split() RNG stream.
  const auto graphs = small_graphs(4, 53);
  ThreadPool bisect_pool(4);
  auto run = [&](bool simd_on, bool par_bisect_on) {
    const bool prev_simd = nn::kernels::set_simd(simd_on);
    const bool prev_bisect = partition::set_parallel_bisection(par_bisect_on);
    ThreadPool* prev_pool =
        partition::set_parallel_bisection_pool(par_bisect_on ? &bisect_pool : nullptr);
    ThreadPool serial(1);
    auto contexts = make_contexts(graphs, spec());
    gnn::CoarseningPolicy policy{gnn::PolicyConfig{}};
    TrainerConfig cfg;
    cfg.seed = 99;
    cfg.pool = &serial;
    ReinforceTrainer trainer(policy, contexts, metis_placer(), cfg);
    std::vector<EpochStats> stats;
    for (int e = 0; e < 3; ++e) stats.push_back(trainer.train_epoch());
    std::ostringstream checkpoint;
    write_trainer_state(checkpoint, trainer.export_state());
    nn::kernels::set_simd(prev_simd);
    partition::set_parallel_bisection(prev_bisect);
    partition::set_parallel_bisection_pool(prev_pool);
    return std::pair{stats, checkpoint.str()};
  };

  const auto base = run(true, true);
  for (const auto& [label, stats_and_ckpt] :
       {std::pair{"simd off", run(false, true)},
        std::pair{"parallel bisection off", run(true, false)},
        std::pair{"both off", run(false, false)}}) {
    expect_bit_identical(base.first, stats_and_ckpt.first, label);
    EXPECT_EQ(base.second, stats_and_ckpt.second)
        << label << ": checkpoint files differ";
  }
}

TEST(PerfToggles, LogitCarryInvalidatedByExternalParamChange) {
  // The batched path carries the greedy-pass logits into the next epoch's
  // sampling pass, guarded by a parameter fingerprint. Nudging a parameter
  // between epochs (identically in both arms) must force the batched arm to
  // recompute — stats stay bit-identical to the unbatched arm, which never
  // carries anything.
  const auto graphs = small_graphs(3, 61);
  auto run = [&](bool batched_on) {
    ThreadPool serial(1);
    auto contexts = make_contexts(graphs, spec());
    gnn::CoarseningPolicy policy{gnn::PolicyConfig{}};
    TrainerConfig cfg;
    cfg.seed = 99;
    cfg.batched_forward = batched_on;
    cfg.pool = &serial;
    ReinforceTrainer trainer(policy, contexts, metis_placer(), cfg);
    std::vector<EpochStats> out;
    for (int e = 0; e < 3; ++e) {
      out.push_back(trainer.train_epoch());
      policy.parameters()[0].value()[0] += 0.25;  // out-of-band edit
    }
    return out;
  };
  expect_bit_identical(run(true), run(false), "carry invalidation");
}

TEST(PerfToggles, DedupAccountsForEveryEpisode) {
  // On a serial pool with the cache enabled, each unique sampled mask does
  // exactly one cache lookup and the greedy pass adds one per graph, so
  //   hits + misses = graphs * samples - dedup_hits + graphs
  // holds every epoch.
  // Tiny graphs (few edges) + many samples: at the scorer's sparse init the
  // all-zero mask alone is likely enough that duplicate samples are certain.
  gen::GeneratorConfig gen_cfg;
  gen_cfg.topology.min_nodes = 5;
  gen_cfg.topology.max_nodes = 8;
  gen_cfg.workload.num_devices = 3;
  const auto graphs = gen::generate_graphs(gen_cfg, 4, 37);
  ThreadPool serial(1);
  auto contexts = make_contexts(graphs, spec());
  gnn::CoarseningPolicy policy{gnn::PolicyConfig{}};
  TrainerConfig cfg;
  cfg.seed = 12;
  cfg.on_policy_samples = 8;
  cfg.pool = &serial;
  ReinforceTrainer trainer(policy, contexts, metis_placer(), cfg);

  std::uint64_t total_dedup = 0;
  for (int e = 0; e < 4; ++e) {
    const EpochStats s = trainer.train_epoch();
    EXPECT_EQ(s.cache_hits + s.cache_misses,
              graphs.size() * cfg.on_policy_samples - s.dedup_hits + graphs.size());
    total_dedup += s.dedup_hits;
  }
  // The scorer is biased towards sparse masks at init, so duplicate samples
  // (and hence dedup hits) occur within the first few epochs at this seed.
  EXPECT_GT(total_dedup, 0u);
}

}  // namespace
}  // namespace sc::rl
