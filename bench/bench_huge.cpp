// bench_huge — streaming/out-of-core Huge-tier harness (BENCH_huge.json).
//
// Proves the two claims of the streaming tier (DESIGN.md §9):
//
//   bounded memory : a 1M+-node serialized graph is ingested through the
//                    bounded-buffer CSR reader and partitioned with the
//                    shard-parallel streaming partitioner while peak RSS
//                    stays under a documented bound derived from the CSR
//                    footprint — never O(StreamGraph).
//   quality parity : on a mid-size tiled graph that BOTH paths can run, the
//                    streaming partitioner's weighted edge cut is within a
//                    few percent of the in-memory multilevel partitioner's
//                    (both cuts measured by the same csr_cut_weight metric).
//
// Peak-RSS methodology (EXPERIMENTS.md): VmHWM from /proc/self/status, reset
// between phases by writing "5" to /proc/self/clear_refs, with malloc_trim()
// first so freed generator memory is actually returned to the kernel. On
// kernels without resettable peak-RSS the rss fields are reported as 0 and
// the bound check is skipped (rss_supported=false).
//
// Usage:
//   bench_huge [--tiny] [--out BENCH_huge.json] [--seed N] [--threads N]
//   bench_huge --validate <file>   # re-parse an emitted JSON; exits non-zero
//                                  # if malformed (ctest smoke)
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "gen/dataset.hpp"
#include "gen/generator.hpp"
#include "graph/io.hpp"
#include "graph/streaming.hpp"
#include "nn/simd.hpp"
#include "partition/allocate.hpp"
#include "partition/streaming.hpp"
#include "partition/workspace.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Peak-RSS plumbing (Linux): VmHWM / VmRSS from /proc/self/status, peak reset
// via /proc/self/clear_refs.
// ---------------------------------------------------------------------------
std::size_t status_kb(const char* key) {
  std::ifstream is("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(is, line)) {
    if (line.rfind(prefix, 0) == 0) {
      std::istringstream ls(line.substr(prefix.size()));
      std::size_t kb = 0;
      ls >> kb;
      return kb;
    }
  }
  return 0;
}

bool reset_peak_rss() {
#if defined(__GLIBC__)
  malloc_trim(0);  // return freed arena pages so the next peak is honest
#endif
  std::ofstream os("/proc/self/clear_refs");
  if (!os.good()) return false;
  os << "5\n";
  os.flush();
  return os.good();
}

double peak_rss_mb() { return static_cast<double>(status_kb("VmHWM")) / 1024.0; }

// ---------------------------------------------------------------------------
// Minimal JSON validation (recursive descent), mirroring bench_perf_reward.
// ---------------------------------------------------------------------------
struct JsonParser {
  const std::string& s;
  std::size_t pos = 0;

  explicit JsonParser(const std::string& text) : s(text) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw sc::Error("JSON parse error at byte " + std::to_string(pos) + ": " + what);
  }
  void skip_ws() {
    while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                              s[pos] == '\r')) {
      ++pos;
    }
  }
  char peek() {
    skip_ws();
    if (pos >= s.size()) fail("unexpected end of input");
    return s[pos];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos;
  }
  void parse_string() {
    expect('"');
    while (pos < s.size() && s[pos] != '"') {
      if (s[pos] == '\\') ++pos;  // skip escaped char
      ++pos;
    }
    if (pos >= s.size()) fail("unterminated string");
    ++pos;
  }
  double parse_number() {
    skip_ws();
    const std::size_t start = pos;
    if (pos < s.size() && (s[pos] == '-' || s[pos] == '+')) ++pos;
    while (pos < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[pos])) || s[pos] == '.' ||
            s[pos] == 'e' || s[pos] == 'E' || s[pos] == '-' || s[pos] == '+')) {
      ++pos;
    }
    if (pos == start) fail("expected a number");
    const double v = std::strtod(s.substr(start, pos - start).c_str(), nullptr);
    if (!std::isfinite(v)) fail("non-finite number");
    return v;
  }
  void parse_literal(const char* lit) {
    skip_ws();
    for (const char* p = lit; *p; ++p, ++pos) {
      if (pos >= s.size() || s[pos] != *p) fail(std::string("expected '") + lit + "'");
    }
  }
  void parse_value() {
    const char c = peek();
    if (c == '{') {
      parse_object();
    } else if (c == '[') {
      expect('[');
      if (peek() != ']') {
        parse_value();
        while (peek() == ',') {
          ++pos;
          parse_value();
        }
      }
      expect(']');
    } else if (c == '"') {
      parse_string();
    } else if (c == 't') {
      parse_literal("true");
    } else if (c == 'f') {
      parse_literal("false");
    } else if (c == 'n') {
      parse_literal("null");
    } else {
      (void)parse_number();
    }
  }
  std::vector<std::string> parse_object() {
    std::vector<std::string> keys;
    expect('{');
    if (peek() != '}') {
      for (;;) {
        skip_ws();
        const std::size_t key_start = pos + 1;
        parse_string();
        keys.push_back(s.substr(key_start, pos - key_start - 1));
        expect(':');
        parse_value();
        if (peek() != ',') break;
        ++pos;
      }
    }
    expect('}');
    return keys;
  }
};

int validate_json(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) {
    std::cerr << "bench_huge: cannot open '" << path << "'\n";
    return 1;
  }
  std::stringstream buf;
  buf << is.rdbuf();
  const std::string text = buf.str();
  try {
    JsonParser parser(text);
    const auto keys = parser.parse_object();
    parser.skip_ws();
    if (parser.pos != text.size()) parser.fail("trailing garbage after object");
    for (const char* required : {"schema_version", "huge", "quality", "env"}) {
      bool found = false;
      for (const auto& k : keys) found = found || k == required;
      if (!found) throw sc::Error(std::string("missing required key '") + required + "'");
    }
    // Schema v2: the huge section must carry the interleaved A/B arms, the
    // per-stage breakdown, and the ingest-pipeline counters.
    for (const char* nested :
         {"\"arms\"", "\"baseline\"", "\"pipelined\"", "\"speedup\"", "\"placements_hash\"",
          "\"placements_identical\"", "\"stages\"", "\"pipeline\"", "\"ingest_chunks\"",
          "\"ingest_queue_peak\"", "\"degree_queue_peak\"", "\"eviction_batches\""}) {
      if (text.find(nested) == std::string::npos) {
        throw sc::Error(std::string("missing schema-v2 key ") + nested);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "bench_huge: '" << path << "' is malformed: " << e.what() << '\n';
    return 1;
  }
  std::cout << "OK: " << path << " is well-formed JSON with the expected keys\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Phase plumbing
// ---------------------------------------------------------------------------

/// Generates one graph at the Huge workload parameterisation but a
/// caller-chosen node budget, and serializes it to `path`. Returns (nodes,
/// edges, gen+write seconds). The StreamGraph is destroyed before returning
/// so the streaming phases never coexist with a full materialization.
struct GenResult {
  std::size_t nodes = 0;
  std::size_t edges = 0;
  double seconds = 0.0;
};

GenResult generate_to_file(const std::string& path, std::size_t lo, std::size_t hi,
                           std::uint64_t seed) {
  using namespace sc;
  const auto t0 = Clock::now();
  gen::GeneratorConfig cfg = gen::setting_config(gen::Setting::Huge);
  cfg.topology.min_nodes = lo;
  cfg.topology.max_nodes = hi;
  gen::check_topology_bounds(cfg.topology);
  GenResult r;
  {
    const auto graphs = gen::generate_graphs(cfg, 1, seed, "huge/");
    r.nodes = graphs[0].num_nodes();
    r.edges = graphs[0].num_edges();
    graph::save_graphs(path, graphs);
  }
  r.seconds = seconds_since(t0);
  return r;
}

sc::sim::ClusterSpec huge_spec() {
  return sc::rl::to_cluster_spec(sc::gen::setting_config(sc::gen::Setting::Huge).workload);
}

/// Shard count pinned for every bench run: the auto heuristic scales with
/// the pool size, which would make placements thread-count dependent and
/// break the cross-thread bit-identity smoke in CI.
constexpr std::size_t kBenchShards = 8;

/// FNV-1a over the placement labels — a compact fingerprint for the
/// cross-arm / cross-thread bit-identity assertions.
std::uint64_t placement_hash(const std::vector<int>& placement) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const int p : placement) {
    for (int b = 0; b < 4; ++b) {
      h ^= static_cast<std::uint64_t>((static_cast<std::uint32_t>(p) >> (8 * b)) & 0xFFu);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

/// Flips every toggle this bench A/Bs in one move. `on` = the pipelined
/// production configuration; off = the serial baseline arm (the committed
/// behavior before the pipelined-ingest/workspace-coarsen changes). Both arms
/// run the same FM refiner.
void set_arm(bool on) {
  sc::graph::parallel_ingest::set_enabled(on);
  sc::partition::coarsen_ws::set_enabled(on);
  sc::partition::pipelined_streaming::set_enabled(on);
}

struct StreamingRun {
  double ingest_seconds = 0.0;
  double partition_seconds = 0.0;
  double peak_rss_mb = 0.0;
  double csr_mb = 0.0;
  double cut = 0.0;
  double imbalance = 0.0;
  std::size_t devices_used = 0;
  std::uint64_t hash = 0;
  sc::graph::StreamingReadStats read_stats;
  std::size_t degree_batches = 0;
  std::size_t degree_queue_peak = 0;
  sc::partition::StreamingStats stats;
  std::vector<int> placement;
};

/// Streaming-path run over a serialized graph: bounded-buffer CSR ingest +
/// out-of-core partition. Peak RSS covers exactly this function's body.
/// Honors whatever arm set_arm() selected.
// sc-lint: streaming-path
StreamingRun run_streaming(const std::string& path, const sc::sim::ClusterSpec& spec,
                           bool rss_supported) {
  using namespace sc;
  StreamingRun r;
  if (rss_supported) reset_peak_rss();
  const auto t0 = Clock::now();
  const partition::StreamingIngest ing = partition::streaming_read_csr(path);
  const graph::CsrGraph& g = ing.graph;
  const graph::CsrLoad load = graph::compute_csr_load(g);
  r.ingest_seconds = seconds_since(t0);
  r.read_stats = ing.read_stats;
  r.degree_batches = ing.degree_batches;
  r.degree_queue_peak = ing.degree_queue_peak;
  r.csr_mb = static_cast<double>(g.footprint_bytes()) / (1024.0 * 1024.0);

  const auto t1 = Clock::now();
  partition::StreamingOptions opts;
  opts.num_shards = kBenchShards;
  opts.undirected_degree = &ing.undirected_degree;
  r.placement = partition::streaming_allocate(g, spec, opts, &r.stats);
  r.partition_seconds = seconds_since(t1);
  r.hash = placement_hash(r.placement);

  r.cut = partition::csr_cut_weight(g, load, r.placement);
  r.imbalance = partition::csr_imbalance(g, load, r.placement, spec.num_devices);
  r.devices_used = sim::devices_used(r.placement);
  if (rss_supported) r.peak_rss_mb = peak_rss_mb();
  return r;
}

struct InMemoryRun {
  double seconds = 0.0;
  double peak_rss_mb = 0.0;
  double cut = 0.0;
  double imbalance = 0.0;
};

/// In-memory baseline over the same file: full StreamGraph materialization +
/// multilevel partition. Cut/imbalance use the same CSR-view metric as the
/// streaming run so the comparison is apples to apples.
InMemoryRun run_in_memory(const std::string& path, const sc::sim::ClusterSpec& spec,
                          bool rss_supported) {
  using namespace sc;
  InMemoryRun r;
  if (rss_supported) reset_peak_rss();
  const auto t0 = Clock::now();
  std::vector<int> placement;
  {
    const auto graphs = graph::load_graphs(path);
    placement = partition::metis_allocate(graphs[0], spec);
  }
  r.seconds = seconds_since(t0);
  if (rss_supported) r.peak_rss_mb = peak_rss_mb();

  // Score on the CSR view (identical metric to the streaming run).
  const graph::CsrGraph g = graph::read_csr(path);
  const graph::CsrLoad load = graph::compute_csr_load(g);
  r.cut = partition::csr_cut_weight(g, load, placement);
  r.imbalance = partition::csr_imbalance(g, load, placement, spec.num_devices);
  return r;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os << std::setprecision(12) << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace sc;
  const Flags raw(argc, argv);
  if (raw.has("validate")) return validate_json(raw.get_string("validate", ""));

  const auto args = bench::BenchArgs::parse(argc, argv);
  const bool tiny = raw.get_bool("tiny", false);
  const std::string out = raw.get_string("out", "BENCH_huge.json");
  std::cout << "[huge] Streaming/out-of-core tier harness" << (tiny ? " (tiny)" : "") << "\n";

  const bool rss_supported = reset_peak_rss();
  if (!rss_supported) {
    std::cout << "  (peak-RSS reset unsupported on this kernel; rss fields will be 0)\n";
  }

  const sim::ClusterSpec spec = huge_spec();

  // ---- Huge phase: streaming path only at full (or tiny) scale ------------
  const std::size_t huge_lo = tiny ? 24'000 : 1'000'000;
  const std::size_t huge_hi = tiny ? 26'000 : 1'100'000;
  const std::string huge_path = tiny ? "bench_huge_tiny.txt" : "bench_huge_graph.txt";
  const GenResult gen_huge = generate_to_file(huge_path, huge_lo, huge_hi, args.seed);
  std::cout << "  gen        " << gen_huge.nodes << " nodes, " << gen_huge.edges
            << " edges in " << metrics::Table::fmt(gen_huge.seconds, 1) << " s -> "
            << huge_path << "\n";

  // Interleaved min-of-N A/B: each repetition runs the serial baseline arm
  // (every toggle off — the pre-pipelining behavior) and the pipelined arm
  // back to back, so drift (page cache, frequency scaling) hits both arms
  // equally. Timings take the per-arm minimum; placements must be
  // bit-identical across every run of both arms.
  const std::size_t reps = 2;
  StreamingRun off_best;
  StreamingRun huge;  // pipelined arm, the production configuration
  double off_min_e2e = 0.0;
  double on_min_e2e = 0.0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    set_arm(false);
    StreamingRun off = run_streaming(huge_path, spec, rss_supported);
    set_arm(true);
    StreamingRun on = run_streaming(huge_path, spec, rss_supported);
    const double off_e2e = off.ingest_seconds + off.partition_seconds;
    const double on_e2e = on.ingest_seconds + on.partition_seconds;
    SC_CHECK(off.hash == on.hash,
             "pipelined arm diverged from the serial baseline: placement hash "
                 << hex64(on.hash) << " vs " << hex64(off.hash));
    if (rep == 0 || off_e2e < off_min_e2e) {
      off_min_e2e = off_e2e;
      off_best = std::move(off);
    }
    if (rep == 0 || on_e2e < on_min_e2e) {
      on_min_e2e = on_e2e;
      huge = std::move(on);
    }
  }
  SC_CHECK(off_best.hash == huge.hash, "placement hash drifted across repetitions");
  const double speedup = on_min_e2e > 0.0 ? off_min_e2e / on_min_e2e : 1.0;

  // Documented bound: the streaming pipeline's working set is the CSR plus
  // load arrays, the undirected adjacency, the shard/coarse graphs and the
  // eviction heap — all linear in the CSR with small constants. 8x the CSR
  // footprint + 160 MiB headroom (allocator slack, binary, thread stacks)
  // holds with a wide margin; a full StreamGraph materialization (~5x the
  // CSR before any partitioner state) would blow through it.
  const double rss_bound_mb = 8.0 * huge.csr_mb + 160.0;
  const bool rss_ok = !rss_supported || huge.peak_rss_mb <= rss_bound_mb;
  std::cout << "  baseline   ingest " << metrics::Table::fmt(off_best.ingest_seconds, 1)
            << " s, partition " << metrics::Table::fmt(off_best.partition_seconds, 1)
            << " s (e2e " << metrics::Table::fmt(off_min_e2e, 1) << " s, min of " << reps
            << ")\n";
  std::cout << "  pipelined  ingest " << metrics::Table::fmt(huge.ingest_seconds, 1)
            << " s, partition " << metrics::Table::fmt(huge.partition_seconds, 1)
            << " s (e2e " << metrics::Table::fmt(on_min_e2e, 1) << " s, speedup "
            << metrics::Table::fmt(speedup, 2) << "x, hash " << hex64(huge.hash) << ")\n";
  std::cout << "  stages     stream " << metrics::Table::fmt(huge.stats.stage_stream_s, 1)
            << " s, coarsen " << metrics::Table::fmt(huge.stats.stage_coarsen_s, 1)
            << " s, partition " << metrics::Table::fmt(huge.stats.stage_partition_s, 1)
            << " s, refine " << metrics::Table::fmt(huge.stats.stage_refine_s, 1) << " s\n";
  std::cout << "  pipeline   chunks " << huge.read_stats.chunks << ", stitches "
            << huge.read_stats.stitches << ", ingest q peak " << huge.read_stats.queue_peak
            << ", degree batches " << huge.degree_batches << " (q peak "
            << huge.degree_queue_peak << "), eviction batches "
            << huge.stats.eviction_batches << "\n";
  std::cout << "  memory     csr " << metrics::Table::fmt(huge.csr_mb, 1)
            << " MiB, peak rss " << metrics::Table::fmt(huge.peak_rss_mb, 1)
            << " MiB (bound " << metrics::Table::fmt(rss_bound_mb, 1) << ", "
            << (rss_ok ? "within" : "EXCEEDED") << ")\n";
  std::cout << "  quality    cut " << metrics::Table::fmt(huge.cut, 0) << ", imbalance "
            << metrics::Table::fmt(huge.imbalance, 3) << ", devices " << huge.devices_used
            << "/" << spec.num_devices << ", shards " << huge.stats.num_shards
            << ", coarse " << huge.stats.coarse_nodes << ", evictions "
            << huge.stats.evictions << "\n";

  // ---- Quality phase: both paths at the largest co-runnable scale ---------
  const std::size_t q_lo = tiny ? 6'000 : 110'000;
  const std::size_t q_hi = tiny ? 7'000 : 120'000;
  const std::string q_path = tiny ? "bench_huge_q_tiny.txt" : "bench_huge_q.txt";
  const GenResult gen_q = generate_to_file(q_path, q_lo, q_hi, args.seed + 1);

  const StreamingRun q_stream = run_streaming(q_path, spec, rss_supported);
  const InMemoryRun q_mem = run_in_memory(q_path, spec, rss_supported);
  const double cut_ratio = q_mem.cut > 0.0 ? q_stream.cut / q_mem.cut : 1.0;
  const bool quality_ok = cut_ratio <= 1.05;
  std::cout << "  ab@" << gen_q.nodes << "  cut streaming "
            << metrics::Table::fmt(q_stream.cut, 0) << " vs in-memory "
            << metrics::Table::fmt(q_mem.cut, 0) << " (ratio "
            << metrics::Table::fmt(cut_ratio, 3) << ", "
            << (quality_ok ? "within 5%" : "OVER 5%") << "); rss "
            << metrics::Table::fmt(q_stream.peak_rss_mb, 1) << " vs "
            << metrics::Table::fmt(q_mem.peak_rss_mb, 1) << " MiB\n";

  std::remove(huge_path.c_str());
  std::remove(q_path.c_str());

  std::ofstream os(out);
  SC_CHECK(os.good(), "cannot open output file '" << out << "'");
  os << "{\n"
     << "  \"schema_version\": 2,\n"
     << "  \"tiny\": " << (tiny ? "true" : "false") << ",\n"
     << "  \"seed\": " << args.seed << ",\n"
     << "  \"huge\": {\n"
     << "    \"nodes\": " << gen_huge.nodes << ",\n"
     << "    \"edges\": " << gen_huge.edges << ",\n"
     << "    \"gen_seconds\": " << json_num(gen_huge.seconds) << ",\n"
     << "    \"reps\": " << reps << ",\n"
     << "    \"arms\": {\n"
     << "      \"baseline\": {\n"
     << "        \"ingest_seconds\": " << json_num(off_best.ingest_seconds) << ",\n"
     << "        \"partition_seconds\": " << json_num(off_best.partition_seconds) << ",\n"
     << "        \"total_seconds\": " << json_num(off_min_e2e) << "\n"
     << "      },\n"
     << "      \"pipelined\": {\n"
     << "        \"ingest_seconds\": " << json_num(huge.ingest_seconds) << ",\n"
     << "        \"partition_seconds\": " << json_num(huge.partition_seconds) << ",\n"
     << "        \"total_seconds\": " << json_num(on_min_e2e) << "\n"
     << "      }\n"
     << "    },\n"
     << "    \"speedup\": " << json_num(speedup) << ",\n"
     << "    \"placements_hash\": \"" << hex64(huge.hash) << "\",\n"
     << "    \"placements_identical\": true,\n"
     << "    \"stages\": {\n"
     << "      \"stream_s\": " << json_num(huge.stats.stage_stream_s) << ",\n"
     << "      \"coarsen_s\": " << json_num(huge.stats.stage_coarsen_s) << ",\n"
     << "      \"partition_s\": " << json_num(huge.stats.stage_partition_s) << ",\n"
     << "      \"refine_s\": " << json_num(huge.stats.stage_refine_s) << "\n"
     << "    },\n"
     << "    \"pipeline\": {\n"
     << "      \"ingest_chunks\": " << huge.read_stats.chunks << ",\n"
     << "      \"ingest_stitches\": " << huge.read_stats.stitches << ",\n"
     << "      \"ingest_queue_peak\": " << huge.read_stats.queue_peak << ",\n"
     << "      \"degree_batches\": " << huge.degree_batches << ",\n"
     << "      \"degree_queue_peak\": " << huge.degree_queue_peak << ",\n"
     << "      \"eviction_batches\": " << huge.stats.eviction_batches << ",\n"
     << "      \"refine_spec_blocks\": " << huge.stats.refine_spec_blocks << "\n"
     << "    },\n"
     << "    \"ingest_seconds\": " << json_num(huge.ingest_seconds) << ",\n"
     << "    \"partition_seconds\": " << json_num(huge.partition_seconds) << ",\n"
     << "    \"csr_mb\": " << json_num(huge.csr_mb) << ",\n"
     << "    \"peak_rss_mb\": " << json_num(huge.peak_rss_mb) << ",\n"
     << "    \"rss_bound_mb\": " << json_num(rss_bound_mb) << ",\n"
     << "    \"rss_supported\": " << (rss_supported ? "true" : "false") << ",\n"
     << "    \"rss_within_bound\": " << (rss_ok ? "true" : "false") << ",\n"
     << "    \"cut\": " << json_num(huge.cut) << ",\n"
     << "    \"imbalance\": " << json_num(huge.imbalance) << ",\n"
     << "    \"devices_used\": " << huge.devices_used << ",\n"
     << "    \"num_shards\": " << huge.stats.num_shards << ",\n"
     << "    \"coarse_nodes\": " << huge.stats.coarse_nodes << ",\n"
     << "    \"cross_shard_edges\": " << huge.stats.cross_shard_edges << ",\n"
     << "    \"buffer_peak\": " << huge.stats.buffer_peak << ",\n"
     << "    \"evictions\": " << huge.stats.evictions << "\n"
     << "  },\n"
     << "  \"quality\": {\n"
     << "    \"nodes\": " << gen_q.nodes << ",\n"
     << "    \"edges\": " << gen_q.edges << ",\n"
     << "    \"cut_streaming\": " << json_num(q_stream.cut) << ",\n"
     << "    \"cut_inmemory\": " << json_num(q_mem.cut) << ",\n"
     << "    \"cut_ratio\": " << json_num(cut_ratio) << ",\n"
     << "    \"within_tolerance\": " << (quality_ok ? "true" : "false") << ",\n"
     << "    \"imbalance_streaming\": " << json_num(q_stream.imbalance) << ",\n"
     << "    \"imbalance_inmemory\": " << json_num(q_mem.imbalance) << ",\n"
     << "    \"peak_rss_streaming_mb\": " << json_num(q_stream.peak_rss_mb) << ",\n"
     << "    \"peak_rss_inmemory_mb\": " << json_num(q_mem.peak_rss_mb) << ",\n"
     << "    \"seconds_streaming\": "
     << json_num(q_stream.ingest_seconds + q_stream.partition_seconds) << ",\n"
     << "    \"seconds_inmemory\": " << json_num(q_mem.seconds) << "\n"
     << "  },\n"
     << "  \"env\": {\n"
     << "    \"threads\": " << ThreadPool::global().size() << ",\n"
     << "    \"hardware_concurrency\": " << std::thread::hardware_concurrency() << ",\n"
     << "    \"simd_tier\": \"" << nn::simd::tier_name(nn::simd::active()) << "\",\n"
     << "    \"simd_detected\": \"" << nn::simd::tier_name(nn::simd::detect()) << "\"\n"
     << "  }\n"
     << "}\n";
  os.flush();
  SC_CHECK(os.good(), "JSON write to '" << out << "' failed (disk full or I/O error?)");
  os.close();
  std::cout << "JSON written to " << out << "\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_huge: " << e.what() << '\n';
  return 1;
}
