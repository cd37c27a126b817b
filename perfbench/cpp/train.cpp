// train: REINFORCE epochs (rl::ReinforceTrainer::train_epoch) with Metis
// guidance on 16 MediumSmallCluster graphs, a fixed trainer seed and a
// 2-thread pool. One operation is one epoch; the epoch count is fixed, so
// every run follows the same learning trajectory.
//
// The traced run trains a second, identical trainer with the program's own
// phase timers (prof::set_enabled / prof::snapshot) switched on and checks
// that it ends with the same parameters and greedy reward.
#include "common.hpp"
#include "common/profile.hpp"
#include "common/thread_pool.hpp"
#include "rl/reinforce.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kGraphs = 16;
constexpr std::size_t kThreads = 2;
constexpr std::size_t kSetupRepeats = 16;
constexpr std::size_t kWarmupEpochs = 2;
constexpr double kOpsPerSecond = 10.0;

struct Setup {
  std::vector<sc::graph::StreamGraph> graphs;
  std::vector<sc::rl::GraphContext> contexts;
  sc::gnn::CoarseningPolicy policy{sc::gnn::PolicyConfig{}};
  std::unique_ptr<sc::rl::ReinforceTrainer> trainer;
};

std::unique_ptr<Setup> build(std::uint64_t seed, sc::ThreadPool& pool) {
  auto s = std::make_unique<Setup>();
  s->graphs = stratified_graphs(sc::gen::Setting::MediumSmallCluster, kGraphs,
                                derive_seed(seed, 30), "train/");
  s->contexts =
      sc::rl::make_contexts(s->graphs, spec_of(sc::gen::Setting::MediumSmallCluster));
  sc::rl::TrainerConfig cfg;
  cfg.metis_guidance = true;
  cfg.pool = &pool;
  s->trainer = std::make_unique<sc::rl::ReinforceTrainer>(s->policy, s->contexts,
                                                          sc::rl::metis_placer(), cfg);
  return s;
}

std::uint64_t params_fingerprint(const sc::gnn::CoarseningPolicy& policy) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& t : policy.parameters()) {
    for (const double v : t.value()) h = hash_mix(h, double_bits(v));
  }
  return h;
}

}  // namespace

int run_train(const Args& args, Record& rec, Tracer& tracer) {
  sc::ThreadPool::configure_global(kThreads);
  sc::ThreadPool pool(kThreads);

  std::vector<double> setup_s;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    std::unique_ptr<Setup> built = build(args.seed, pool);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    return built;
  };
  const std::unique_ptr<Setup> s = set_up();
  const std::size_t epochs = fixed_ops(kOpsPerSecond, args.seconds, 100);
  for (std::size_t e = 0; e < kWarmupEpochs; ++e) (void)s->trainer->train_epoch();

  // A traced run steps a second, identical trainer in lockstep (alternating
  // which goes first), with the program's phase timers switched on only for
  // its epochs, and reads the timers after each of them.
  std::unique_ptr<Setup> t;
  if (tracer.enabled()) {
    t = build(args.seed, pool);
    for (std::size_t e = 0; e < kWarmupEpochs; ++e) (void)t->trainer->train_epoch();
  }
  std::vector<double> traced_ms;
  std::vector<std::vector<double>> phase_ms(sc::prof::kNumPhases);
  sc::rl::EpochStats traced_last;
  const auto traced_epoch = [&] {
    const bool was = sc::prof::set_enabled(true);
    sc::prof::reset();
    const auto t0 = Clock::now();
    traced_last = t->trainer->train_epoch();
    const auto t1 = Clock::now();
    const sc::prof::Snapshot snap = sc::prof::snapshot();
    sc::prof::set_enabled(was);
    traced_ms.push_back(ms_between(t0, t1));
    for (std::size_t p = 0; p < sc::prof::kNumPhases; ++p) {
      phase_ms[p].push_back(static_cast<double>(snap.phase[p].nanos) / 1e6);
    }
  };

  std::vector<double> op_ms(epochs);
  std::vector<sc::rl::EpochStats> stats(epochs);
  TimedPhase phase(epochs, kSetupRepeats);
  for (std::size_t e = 0; e < epochs; ++e) {
    phase.before(e, [&] { (void)set_up(); });
    const bool traced_first = t && e % 2 == 1;
    if (traced_first) traced_epoch();
    const auto t0 = Clock::now();
    stats[e] = s->trainer->train_epoch();
    op_ms[e] = ms_between(t0, Clock::now());
    if (t && !traced_first) traced_epoch();
  }
  phase.finish();
  rec.num("peak_rss_mb", phase.peak_rss_mb());

  const double quality = stats.back().mean_greedy_reward;
  const std::uint64_t params = params_fingerprint(s->policy);
  double hits = 0.0;
  double misses = 0.0;
  double dedup = 0.0;
  for (const auto& st : stats) {
    hits += static_cast<double>(st.cache_hits);
    misses += static_cast<double>(st.cache_misses);
    dedup += static_cast<double>(st.dedup_hits);
  }
  rec.num("rl.cache_hits", hits);
  rec.num("rl.cache_misses", misses);
  rec.num("rl.dedup_hits", dedup);
  rec.num("rl.samples_drawn",
          static_cast<double>(s->trainer->config().on_policy_samples * kGraphs * epochs));
  rec.num("threads", static_cast<double>(pool.size()));

  if (t) {
    check(params_fingerprint(t->policy) == params &&
              double_bits(traced_last.mean_greedy_reward) == double_bits(quality),
          "traced training run diverged from the untraced one");
    for (std::size_t p = 0; p < sc::prof::kNumPhases; ++p) {
      const auto phase = static_cast<sc::prof::Phase>(p);
      rec.list("phase_ms." + std::string(sc::prof::phase_name(phase)), std::move(phase_ms[p]));
    }
    rec.list("traced_op_ms", std::move(traced_ms));
  }

  rec.list("setup_s", std::move(setup_s));
  rec.list("op_ms", std::move(op_ms));
  rec.num("timed_wall_s", phase.wall_s());
  rec.num("ops", static_cast<double>(epochs));
  rec.num("attempted", static_cast<double>(epochs));
  rec.num("failed", 0.0);
  rec.num("placement_quality", quality);
  rec.str("fingerprint", hex64(hash_mix(params, double_bits(quality))));
  return 0;
}

}  // namespace perfbench
