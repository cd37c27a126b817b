// alloc-cold: one caller, one thread, one placement per operation on graphs
// the policy has never seen. Each operation is
// CoarsenPartitionFramework::allocate (context -> greedy coarsen -> Metis on
// the coarse graph -> map back) followed by FluidSimulator::relative_throughput.
// Nothing is cached between operations, so every layer runs every time.
//
// The traced run repeats the same operations through the public calls that
// allocate() is made of, with a span around each, and checks that this
// decomposition places every graph exactly as allocate() does.
#include <numeric>

#include "common.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/framework.hpp"
#include "gnn/features.hpp"
#include "graph/contraction.hpp"
#include "graph/rates.hpp"
#include "nn/tensor.hpp"
#include "partition/allocate.hpp"
#include "sim/fluid.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kMediumGraphs = 240;
constexpr std::size_t kLargeGraphs = 60;
constexpr std::size_t kSetupRepeats = 32;
constexpr std::size_t kWarmupOps = 16;
constexpr double kOpsPerSecond = 300.0;
constexpr std::size_t kRotateEvery = 25;  ///< operations per CPU before moving on

struct PoolEntry {
  const sc::graph::StreamGraph* graph;
  sc::sim::ClusterSpec spec;
};

struct Setup {
  std::vector<sc::graph::StreamGraph> medium;
  std::vector<sc::graph::StreamGraph> large;
  std::vector<PoolEntry> pool;
  std::vector<sc::sim::FluidSimulator> simulators;  ///< the scorer, one per pool graph
  std::unique_ptr<sc::core::CoarsenPartitionFramework> framework;
  std::vector<std::size_t> order;  ///< pool index of operation i (mod pool size)
};

std::unique_ptr<Setup> build(std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  s->medium = stratified_graphs(sc::gen::Setting::Medium, kMediumGraphs, derive_seed(seed, 1),
                                "medium/");
  s->large =
      stratified_graphs(sc::gen::Setting::Large, kLargeGraphs, derive_seed(seed, 2), "large/");
  const sc::sim::ClusterSpec medium_spec = spec_of(sc::gen::Setting::Medium);
  const sc::sim::ClusterSpec large_spec = spec_of(sc::gen::Setting::Large);
  for (const auto& g : s->medium) s->pool.push_back({&g, medium_spec});
  for (const auto& g : s->large) s->pool.push_back({&g, large_spec});
  s->simulators.reserve(s->pool.size());
  for (const auto& e : s->pool) s->simulators.emplace_back(*e.graph, e.spec);
  s->framework = std::make_unique<sc::core::CoarsenPartitionFramework>();
  s->order.resize(s->pool.size());
  std::iota(s->order.begin(), s->order.end(), std::size_t{0});
  sc::Rng rng(derive_seed(seed, 3));
  for (std::size_t i = s->order.size(); i > 1; --i) {
    std::swap(s->order[i - 1], s->order[rng.index(i)]);
  }
  return s;
}

struct OpResult {
  std::uint64_t hash = 0;
  double relative = 0.0;
  double compression = 0.0;
};

/// The operation as a user calls it.
OpResult allocate_once(const Setup& s, std::size_t idx) {
  const PoolEntry& e = s.pool[idx];
  const sc::sim::Placement p = s.framework->allocate(*e.graph, e.spec);
  OpResult r;
  r.relative = s.simulators[idx].relative_throughput(p);
  r.hash = hash_placement(p);
  return r;
}

/// The same operation through the public calls allocate() is composed of
/// (rl::GraphContext's constructor, rl::allocate_with_policy and the Metis
/// coarse placer), one span per call.
OpResult allocate_traced(const Setup& s, std::size_t idx, Tracer& tr, std::uint32_t op) {
  namespace graph = sc::graph;
  const PoolEntry& e = s.pool[idx];
  const graph::StreamGraph& g = *e.graph;
  Scope whole(tr, "op", op);
  graph::LoadProfile profile;
  {
    Scope sp(tr, "graph.load_profile", op);
    profile = graph::compute_load_profile(g);
  }
  sc::gnn::GraphFeatures features;
  {
    Scope sp(tr, "gnn.features", op);
    features = sc::gnn::extract_features(g, profile, e.spec);
  }
  std::unique_ptr<sc::sim::FluidSimulator> simulator;
  {
    Scope sp(tr, "sim.build", op);
    simulator = std::make_unique<sc::sim::FluidSimulator>(g, e.spec, profile);
  }
  sc::nn::NoGradGuard no_grad;
  const sc::gnn::CoarseningPolicy& policy = s.framework->policy();
  sc::nn::Tensor logits;
  {
    Scope sp(tr, "gnn.forward", op);
    logits = policy.logits(features);
  }
  sc::gnn::EdgeMask mask;
  {
    Scope sp(tr, "gnn.greedy", op);
    mask = policy.greedy(logits.value());
  }
  graph::Coarsening coarsening;
  {
    Scope sp(tr, "graph.contract", op);
    std::vector<bool> bits(mask.size());
    for (std::size_t i = 0; i < mask.size(); ++i) bits[i] = mask[i] != 0;
    graph::contract_into(g, profile, bits, graph::contraction_scratch::local(), coarsening);
  }
  sc::sim::Placement coarse;
  {
    Scope sp(tr, "partition.metis", op);
    coarse = sc::partition::metis_allocate_coarse(
        coarsening.coarse, simulator->spec(), s.framework->options().trainer.partition_opts);
  }
  sc::sim::Placement placement;
  {
    Scope sp(tr, "graph.expand", op);
    placement = coarsening.expand_placement(coarse);
  }
  OpResult r;
  {
    Scope sp(tr, "sim.simulate", op);
    r.relative = s.simulators[idx].relative_throughput(placement);
  }
  r.hash = hash_placement(placement);
  r.compression = coarsening.compression_ratio();
  return r;
}

}  // namespace

int run_alloc_cold(const Args& args, Record& rec, Tracer& tracer) {
  sc::ThreadPool::configure_global(1);

  std::vector<double> setup_s;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    std::unique_ptr<Setup> built = build(args.seed);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    return built;
  };
  const std::unique_ptr<Setup> s = set_up();
  const std::size_t pool = s->pool.size();
  const std::size_t ops = fixed_ops(kOpsPerSecond, args.seconds, pool);

  for (std::size_t i = 0; i < kWarmupOps; ++i) (void)allocate_once(*s, s->order[i % pool]);

  // Timed phase: a fixed number of operations, cycling the pool. A traced
  // run interleaves each untraced operation with its traced twin (alternating
  // which goes first), so both see the same machine state and their
  // difference is the tracing overhead.
  std::vector<OpResult> first(pool);
  std::vector<bool> seen(pool, false);
  std::vector<double> op_ms(ops);
  std::vector<double> traced_ms;
  double compression_sum = 0.0;
  if (tracer.enabled()) {
    traced_ms.resize(ops);
    tracer.reserve(ops * 11);
  }
  const auto run_traced = [&](std::size_t i, std::size_t idx) {
    const auto t0 = Clock::now();
    const OpResult r = allocate_traced(*s, idx, tracer, static_cast<std::uint32_t>(i));
    traced_ms[i] = ms_between(t0, Clock::now());
    compression_sum += r.compression;
    return r;
  };
  TimedPhase phase(ops, kSetupRepeats);
  CpuRotation rotation;
  for (std::size_t i = 0; i < ops; ++i) {
    phase.before(i, [&] { (void)set_up(); });
    if (i % kRotateEvery == 0) rotation.step();
    const std::size_t idx = s->order[i % pool];
    const bool traced_first = tracer.enabled() && i % 2 == 1;
    OpResult traced;
    if (traced_first) traced = run_traced(i, idx);
    const auto t0 = Clock::now();
    const OpResult r = allocate_once(*s, idx);
    op_ms[i] = ms_between(t0, Clock::now());
    if (tracer.enabled() && !traced_first) traced = run_traced(i, idx);
    if (tracer.enabled()) {
      check(traced.hash == r.hash && traced.relative == r.relative,
            "traced decomposition placed pool graph " + std::to_string(idx) +
                " differently from CoarsenPartitionFramework::allocate");
    }
    if (!seen[idx]) {
      first[idx] = r;
      seen[idx] = true;
    } else {
      check(first[idx].hash == r.hash && first[idx].relative == r.relative,
            "alloc-cold placement of pool graph " + std::to_string(idx) +
                " changed between passes");
    }
  }
  phase.finish();
  rec.num("peak_rss_mb", phase.peak_rss_mb());

  double quality_sum = 0.0;
  std::uint64_t fp = 1469598103934665603ULL;
  for (std::size_t idx = 0; idx < pool; ++idx) {
    quality_sum += first[idx].relative;
    fp = hash_mix(fp, first[idx].hash);
  }
  const double quality = quality_sum / static_cast<double>(pool);
  if (tracer.enabled()) {
    rec.list("traced_op_ms", std::move(traced_ms));
    rec.num("gnn.compression", compression_sum / static_cast<double>(ops));
  }

  rec.list("setup_s", std::move(setup_s));
  rec.list("op_ms", std::move(op_ms));
  rec.num("timed_wall_s", phase.wall_s());
  rec.num("ops", static_cast<double>(ops));
  rec.num("attempted", static_cast<double>(ops));
  rec.num("failed", 0.0);
  rec.num("placement_quality", quality);
  rec.str("fingerprint", hex64(hash_mix(fp, double_bits(quality))));
  return 0;
}

}  // namespace perfbench
