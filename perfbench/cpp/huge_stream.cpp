// huge-stream: the out-of-core Huge tier. Set-up writes one tiled graph at
// the Huge workload parameterisation to a file. Each operation ingests it
// with partition::streaming_read_csr, computes graph::compute_csr_load and
// places it with partition::streaming_allocate (8 pinned shards) — the only
// workload that runs graph/streaming and partition/streaming. Ingest and
// partition share one 2-thread pool, the global one.
//
// Checks: every operation yields the same placement, and so does an
// operation whose ingest and partition both run on a 1-thread pool.
#include <cstdio>
#include <filesystem>
#include <unistd.h>

#include "common.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gen/generator.hpp"
#include "graph/io.hpp"
#include "graph/streaming.hpp"
#include "partition/streaming.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kNodes = 50'000;  ///< fixed, so the work does not vary by seed
constexpr std::size_t kShards = 8;
constexpr std::size_t kThreads = 2;
constexpr std::size_t kSetupRepeats = 24;
constexpr std::size_t kWarmupOps = 2;
constexpr double kOpsPerSecond = 10.0;

/// Removes the input file when the run ends, on error paths too.
struct TempFile {
  std::string path;
  ~TempFile() {
    if (!path.empty()) std::remove(path.c_str());
  }
};

struct OpResult {
  std::uint64_t hash = 0;
  double cut = 0.0;
  double total_traffic = 0.0;
  double imbalance = 0.0;
  sc::partition::StreamingStats stats;
};

/// One ingest -> load -> placement. With a tracer, one span per call.
/// Partition runs on `pool` when given, else on the global pool; ingest runs
/// on the global pool unless graph::set_ingest_pool says otherwise.
OpResult run_op(const std::string& path, const sc::sim::ClusterSpec& spec, Tracer& tr,
                std::uint32_t op, bool score, sc::ThreadPool* pool = nullptr) {
  Scope whole(tr, "op", op);
  std::unique_ptr<sc::partition::StreamingIngest> ing;
  {
    Scope sp(tr, "graph.ingest", op);
    ing = std::make_unique<sc::partition::StreamingIngest>(
        sc::partition::streaming_read_csr(path));
  }
  std::unique_ptr<sc::graph::CsrLoad> load;
  {
    Scope sp(tr, "graph.csr_load", op);
    load = std::make_unique<sc::graph::CsrLoad>(sc::graph::compute_csr_load(ing->graph));
  }
  OpResult r;
  sc::sim::Placement placement;
  {
    Scope sp(tr, "partition.streaming_allocate", op);
    sc::partition::StreamingOptions opts;
    opts.num_shards = kShards;
    opts.undirected_degree = &ing->undirected_degree;
    opts.pool = pool;
    placement = sc::partition::streaming_allocate(ing->graph, spec, opts, &r.stats);
  }
  r.hash = hash_placement(placement);
  if (score) {
    r.cut = sc::partition::csr_cut_weight(ing->graph, *load, placement);
    r.total_traffic = load->total_traffic;
    r.imbalance = sc::partition::csr_imbalance(ing->graph, *load, placement, spec.num_devices);
  }
  return r;
}

}  // namespace

int run_huge_stream(const Args& args, Record& rec, Tracer& tracer) {
  sc::ThreadPool::configure_global(kThreads);
  const sc::sim::ClusterSpec spec = spec_of(sc::gen::Setting::Huge);

  TempFile file;
  file.path = (std::filesystem::path(args.workdir) /
               ("huge-" + std::to_string(::getpid()) + ".txt"))
                  .string();
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    sc::gen::GeneratorConfig cfg = sc::gen::setting_config(sc::gen::Setting::Huge);
    cfg.topology.min_nodes = kNodes;
    cfg.topology.max_nodes = kNodes;
    // Mid-range CPU and link loads, fixed like the size; the seed shapes the
    // topology and per-operator costs.
    sc::gen::WorkloadConfig& wl = cfg.workload;
    wl.cpu_frac_lo = wl.cpu_frac_hi = 0.5 * (wl.cpu_frac_lo + wl.cpu_frac_hi);
    wl.sat_lo = wl.sat_hi = 0.5 * (wl.sat_lo + wl.sat_hi);
    sc::Rng rng(derive_seed(args.seed, 40));
    std::vector<sc::graph::StreamGraph> graphs;
    graphs.push_back(sc::gen::generate_graph(cfg, rng, "huge"));
    sc::graph::save_graphs(file.path, graphs);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  };
  set_up();
  const double file_mb =
      static_cast<double>(std::filesystem::file_size(file.path)) / (1024.0 * 1024.0);

  Tracer off(false);
  const OpResult ref = run_op(file.path, spec, off, 0, true);
  for (std::size_t i = 1; i < kWarmupOps; ++i) (void)run_op(file.path, spec, off, 0, false);

  const std::size_t ops = fixed_ops(kOpsPerSecond, args.seconds, 100);
  // A traced run interleaves each untraced operation with a traced one
  // (alternating which goes first), so their difference is the overhead.
  std::vector<double> op_ms(ops);
  std::vector<double> traced_ms, stream_ms, coarsen_ms, coarse_part_ms, refine_ms;
  const auto run_traced = [&](std::size_t i) {
    const auto t0 = Clock::now();
    const OpResult r = run_op(file.path, spec, tracer, static_cast<std::uint32_t>(i), false);
    traced_ms.push_back(ms_between(t0, Clock::now()));
    check(r.hash == ref.hash, "traced huge-stream placement differs");
    stream_ms.push_back(r.stats.stage_stream_s * 1e3);
    coarsen_ms.push_back(r.stats.stage_coarsen_s * 1e3);
    coarse_part_ms.push_back(r.stats.stage_partition_s * 1e3);
    refine_ms.push_back(r.stats.stage_refine_s * 1e3);
  };
  TimedPhase phase(ops, kSetupRepeats);
  for (std::size_t i = 0; i < ops; ++i) {
    phase.before(i, set_up);
    const bool traced_first = tracer.enabled() && i % 2 == 1;
    if (traced_first) run_traced(i);
    const auto t0 = Clock::now();
    const OpResult r = run_op(file.path, spec, off, 0, false);
    op_ms[i] = ms_between(t0, Clock::now());
    check(r.hash == ref.hash, "huge-stream placement changed between operations");
    if (tracer.enabled() && !traced_first) run_traced(i);
  }
  phase.finish();
  rec.num("peak_rss_mb", phase.peak_rss_mb());

  {
    sc::ThreadPool single(1);
    sc::ThreadPool* const previous = sc::graph::set_ingest_pool(&single);
    const OpResult r1 = run_op(file.path, spec, off, 0, false, &single);
    sc::graph::set_ingest_pool(previous);
    check(r1.hash == ref.hash, "huge-stream placement differs at 1 vs 2 threads");
  }

  if (tracer.enabled()) {
    rec.list("traced_op_ms", std::move(traced_ms));
    rec.list("stage_ms.stream", std::move(stream_ms));
    rec.list("stage_ms.coarsen", std::move(coarsen_ms));
    rec.list("stage_ms.partition", std::move(coarse_part_ms));
    rec.list("stage_ms.refine", std::move(refine_ms));
  }

  const double quality = 1.0 - ref.cut / ref.total_traffic;
  rec.num("partition.evictions", static_cast<double>(ref.stats.evictions));
  rec.num("partition.eviction_batches", static_cast<double>(ref.stats.eviction_batches));
  rec.num("partition.buffer_peak", static_cast<double>(ref.stats.buffer_peak));
  rec.num("partition.refine_moves", static_cast<double>(ref.stats.refine_moves));
  rec.num("partition.imbalance", ref.imbalance);
  rec.num("file_mb", file_mb);

  rec.list("setup_s", std::move(setup_s));
  rec.list("op_ms", std::move(op_ms));
  rec.num("timed_wall_s", phase.wall_s());
  rec.num("ops", static_cast<double>(ops));
  rec.num("attempted", static_cast<double>(ops));
  rec.num("failed", 0.0);
  rec.num("placement_quality", quality);
  rec.str("fingerprint", hex64(hash_mix(ref.hash, double_bits(quality))));
  return 0;
}

}  // namespace perfbench
