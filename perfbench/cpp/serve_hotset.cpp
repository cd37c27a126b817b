// serve-hotset: an AllocationService with 2 workers, default batching and
// the Metis placer, driven by one closed-loop client that keeps 8 requests
// outstanding (so the admission queue never fills and nothing is shed).
// Requests follow an 80/20 hot set over a fixed pool of Small,
// MediumSmallCluster and Medium graphs; every pool graph is served once
// before timing, so the context and tail caches are warm.
//
// Every response is checked against offline rl::allocate_with_policy for its
// pool graph.
#include <algorithm>
#include <condition_variable>
#include <functional>
#include <mutex>

#include "common.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gnn/features.hpp"
#include "gnn/policy.hpp"
#include "nn/tensor.hpp"
#include "rl/rollout.hpp"
#include "serve/service.hpp"

namespace perfbench {

namespace {

// 480 pool graphs, 96 of them (32 per setting, spread over the size range)
// hot. The context cache is sized to hold the whole pool, so after warm-up
// every request finds its context.
constexpr std::size_t kGraphsPerSetting = 160;
constexpr std::size_t kHotPerSetting = 32;
constexpr std::size_t kContextCacheCapacity = 512;
constexpr double kHotTraffic = 0.8;  ///< share of requests sent to the hot set
constexpr std::size_t kOutstanding = 8;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kSetupRepeats = 6;
constexpr std::size_t kWarmupRequests = 256;
constexpr double kOpsPerSecond = 990.0;
constexpr std::size_t kForwardProbeReps = 200;

struct PoolEntry {
  const sc::graph::StreamGraph* graph;
  sc::sim::ClusterSpec spec;
};

struct Setup {
  std::vector<sc::graph::StreamGraph> graphs;
  std::vector<PoolEntry> pool;
  std::size_t hot = 0;  ///< pool[0, hot) is the hot set
  std::unique_ptr<sc::serve::AllocationService> service;
};

std::unique_ptr<Setup> build(std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  const sc::gen::Setting settings[] = {sc::gen::Setting::Small,
                                       sc::gen::Setting::MediumSmallCluster,
                                       sc::gen::Setting::Medium};
  s->graphs.reserve(3 * kGraphsPerSetting);
  std::vector<PoolEntry> hot;
  std::vector<PoolEntry> cold;
  std::uint64_t tag = 10;
  for (const sc::gen::Setting setting : settings) {
    auto graphs = stratified_graphs(setting, kGraphsPerSetting, derive_seed(seed, tag++),
                                    sc::gen::setting_name(setting) + std::string("/"));
    // Stratified graphs ascend in size; every (n / hot)-th one is hot, so
    // the hot set has the same settings and size spread for every seed.
    const std::size_t first = s->graphs.size();
    for (auto& g : graphs) s->graphs.push_back(std::move(g));
    for (std::size_t i = 0; i < kGraphsPerSetting; ++i) {
      const PoolEntry e{&s->graphs[first + i], spec_of(setting)};
      const std::size_t stride = kGraphsPerSetting / kHotPerSetting;
      (i % stride == stride / 2 ? hot : cold).push_back(e);
    }
  }
  s->pool = hot;
  s->pool.insert(s->pool.end(), cold.begin(), cold.end());
  s->hot = hot.size();
  sc::serve::ServeConfig cfg;
  cfg.workers = kWorkers;
  cfg.context_cache_capacity = kContextCacheCapacity;
  s->service = std::make_unique<sc::serve::AllocationService>(
      sc::gnn::CoarseningPolicy(sc::gnn::PolicyConfig{}), sc::rl::metis_placer(), cfg);
  return s;
}

/// The request sequence: pool index per request, 80/20 over the hot set.
std::vector<std::size_t> request_sequence(const Setup& s, std::size_t n, std::uint64_t seed) {
  sc::Rng rng(seed);
  const std::size_t cold = s.pool.size() - s.hot;
  std::vector<std::size_t> seq(n);
  for (auto& idx : seq) {
    idx = rng.uniform() < kHotTraffic ? rng.index(s.hot) : s.hot + rng.index(cold);
  }
  return seq;
}

struct ClientRun {
  std::vector<double> client_ms;
  std::vector<double> service_ms;
  std::vector<sc::sim::Placement> placements;
  std::vector<double> relative;
  std::size_t failed = 0;
  std::vector<Clock::time_point> sent;
  std::vector<Clock::time_point> done;
};

/// One closed-loop client: at most kOutstanding requests in flight; the next
/// request is sent only when a response has come back. With a timed phase,
/// the client lets its requests drain wherever a set-up repeat is due, and
/// `set_up` runs while nothing is in flight.
ClientRun drive(Setup& s, const std::vector<std::size_t>& seq, TimedPhase* phase = nullptr,
                const std::function<void()>& set_up = {}) {
  const std::size_t n = seq.size();
  ClientRun run;
  run.client_ms.assign(n, 0.0);
  run.service_ms.assign(n, 0.0);
  run.placements.resize(n);
  run.relative.assign(n, 0.0);
  run.sent.resize(n);
  run.done.resize(n);
  std::vector<char> ok(n, 0);

  std::mutex mu;
  std::condition_variable cv;
  std::size_t outstanding = 0;
  const auto drain = [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return outstanding == 0; });
  };

  for (std::size_t i = 0; i < n; ++i) {
    if (phase != nullptr) {
      if (phase->setup_due(i)) drain();
      phase->before(i, set_up);
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return outstanding < kOutstanding; });
      ++outstanding;
    }
    const PoolEntry& e = s.pool[seq[i]];
    sc::serve::AllocRequest req;
    req.id = i;
    req.graph = *e.graph;
    req.spec = e.spec;
    run.sent[i] = Clock::now();
    req.submit_time = run.sent[i];
    const bool accepted = s.service->submit(std::move(req), [&, i](sc::serve::AllocResponse r) {
      const auto now = Clock::now();
      run.done[i] = now;
      run.service_ms[i] = r.latency_seconds * 1e3;
      ok[i] = r.status == sc::serve::ResponseStatus::Ok ? 1 : 0;
      run.placements[i] = std::move(r.placement);
      run.relative[i] = r.relative;
      std::lock_guard<std::mutex> lock(mu);
      --outstanding;
      cv.notify_one();
    });
    if (!accepted) {
      std::lock_guard<std::mutex> lock(mu);
      --outstanding;
      ok[i] = 0;
    }
  }
  drain();
  if (phase != nullptr) phase->finish();
  for (std::size_t i = 0; i < n; ++i) {
    if (!ok[i]) {
      ++run.failed;
      continue;
    }
    run.client_ms[i] = ms_between(run.sent[i], run.done[i]);
  }
  return run;
}

}  // namespace

int run_serve_hotset(const Args& args, Record& rec, Tracer& tracer) {
  sc::ThreadPool::configure_global(1);

  std::vector<double> setup_s;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    std::unique_ptr<Setup> built = build(args.seed);
    // Warm-up belongs to set-up: every pool graph once, then a short burst
    // of hot-set traffic, so the timed phase starts with warm caches.
    std::vector<std::size_t> warm(built->pool.size());
    for (std::size_t i = 0; i < warm.size(); ++i) warm[i] = i;
    const auto burst = request_sequence(*built, kWarmupRequests, derive_seed(args.seed, 21));
    warm.insert(warm.end(), burst.begin(), burst.end());
    const ClientRun w = drive(*built, warm);
    check(w.failed == 0, "serve-hotset warm-up requests failed");
    setup_s.push_back(seconds_between(t0, Clock::now()));
    return built;
  };
  const std::unique_ptr<Setup> s = set_up();

  const std::size_t ops = fixed_ops(kOpsPerSecond, args.seconds, 1000);
  const auto seq = request_sequence(*s, ops, derive_seed(args.seed, 22));

  const sc::serve::ServeStats before = s->service->stats();
  TimedPhase phase(ops, kSetupRepeats);
  ClientRun run = drive(*s, seq, &phase, [&] { (void)set_up(); });
  rec.num("peak_rss_mb", phase.peak_rss_mb());
  const sc::serve::ServeStats after = s->service->stats();

  // Output check: every response equals offline inference for its graph.
  const sc::gnn::CoarseningPolicy offline_policy{sc::gnn::PolicyConfig{}};
  const sc::rl::CoarsePlacer placer = sc::rl::metis_placer();
  std::vector<sc::sim::Placement> expected(s->pool.size());
  std::vector<double> expected_rel(s->pool.size());
  std::vector<std::unique_ptr<sc::rl::GraphContext>> contexts(s->pool.size());
  for (std::size_t p = 0; p < s->pool.size(); ++p) {
    contexts[p] = std::make_unique<sc::rl::GraphContext>(*s->pool[p].graph, s->pool[p].spec);
    expected[p] = sc::rl::allocate_with_policy(offline_policy, *contexts[p], placer);
    expected_rel[p] = contexts[p]->simulator.relative_throughput(expected[p]);
  }
  check(run.failed == 0, std::to_string(run.failed) + " serve-hotset requests failed");
  double quality_sum = 0.0;
  std::uint64_t fp = 1469598103934665603ULL;
  for (std::size_t i = 0; i < ops; ++i) {
    const std::size_t p = seq[i];
    check(run.placements[i] == expected[p] && run.relative[i] == expected_rel[p],
          "serve response " + std::to_string(i) +
              " differs from offline rl::allocate_with_policy");
    quality_sum += run.relative[i];
  }
  for (std::size_t p = 0; p < s->pool.size(); ++p) fp = hash_mix(fp, hash_placement(expected[p]));
  const double quality = quality_sum / static_cast<double>(ops);

  rec.num("serve.batches", static_cast<double>(after.batches - before.batches));
  rec.num("serve.batched_requests",
          static_cast<double>(after.batched_requests - before.batched_requests));
  rec.num("serve.dedup_shared", static_cast<double>(after.dedup_shared - before.dedup_shared));
  rec.num("serve.context_hits",
          static_cast<double>(after.context_cache.hits - before.context_cache.hits));
  rec.num("serve.context_misses",
          static_cast<double>(after.context_cache.misses - before.context_cache.misses));
  rec.num("serve.tail_hits",
          static_cast<double>(after.context_cache.tail_hits - before.context_cache.tail_hits));
  rec.num("serve.tail_misses", static_cast<double>(after.context_cache.tail_misses -
                                                   before.context_cache.tail_misses));

  if (tracer.enabled()) {
    // Forward probe: batched encoder forwards over windows of the timed
    // request sequence, each window as many requests as the service's mean
    // batch and deduplicated the way the service packs it.
    const double batches = static_cast<double>(after.batches - before.batches);
    const double mean_batch =
        batches > 0.0
            ? static_cast<double>(after.batched_requests - before.batched_requests) / batches
            : 1.0;
    const std::size_t k =
        std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(mean_batch)));
    sc::nn::NoGradGuard no_grad;
    std::vector<double> probe_ms;
    for (std::size_t w = 0; w < kForwardProbeReps && (w + 1) * k <= ops; ++w) {
      std::vector<const sc::gnn::GraphFeatures*> parts;
      for (std::size_t j = w * k; j < (w + 1) * k; ++j) {
        const sc::gnn::GraphFeatures* f = &contexts[seq[j]]->features;
        if (std::find(parts.begin(), parts.end(), f) == parts.end()) parts.push_back(f);
      }
      const sc::gnn::BatchedGraphFeatures batch = sc::gnn::batch_features(parts);
      const auto t0 = Clock::now();
      const sc::nn::Tensor logits = offline_policy.logits(batch.merged);
      probe_ms.push_back(ms_between(t0, Clock::now()));
    }
    rec.num("gnn.forward_batch_ms", median(probe_ms));
  }

  rec.list("setup_s", std::move(setup_s));
  rec.list("op_ms", run.client_ms);
  rec.list("service_ms", std::move(run.service_ms));
  rec.num("timed_wall_s", phase.wall_s());
  rec.num("ops", static_cast<double>(ops));
  rec.num("attempted", static_cast<double>(ops));
  rec.num("failed", static_cast<double>(run.failed));
  rec.num("placement_quality", quality);
  rec.str("fingerprint", hex64(hash_mix(fp, double_bits(quality))));
  s->service->stop();
  return 0;
}

}  // namespace perfbench
