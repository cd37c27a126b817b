// bench_perf_reward — reward (mask-evaluation) hot-path harness
// (BENCH_perf_reward.json).
//
// Measures the PR-5 levers on the cache-miss side of training: every episode
// cache miss pays the full contract -> metis_allocate_coarse ->
// relative_throughput chain, so this bench A/Bs exactly that chain with the
// workspace fast paths on vs off:
//   contract    : contract() with the per-thread ContractionScratch
//                 (flat CSR groups + WeightedGraph::rebuild) vs the legacy
//                 allocating path.
//   partition   : metis_allocate_coarse with PartitionWorkspace (reused
//                 coarsening levels / bisection frames / refinement buffers)
//                 vs the legacy allocating partitioner. Both arms run the
//                 same gain-bucket FM refiner.
//   end_to_end  : uncached evaluate_mask over a fixed pool of random masks
//                 spanning several densities — the real cache-miss reward
//                 path — with ALL toggles flipped together.
// Every arm replays the identical mask pool and the end-to-end rewards are
// asserted bit-identical between arms (the fast paths are exact).
//
// Usage:
//   bench_perf_reward [--tiny] [--out BENCH_perf_reward.json] [--seed N]
//                     [--threads N] [--verbose]
//   bench_perf_reward --validate <file>  # re-parse an emitted JSON; exits
//                                        # non-zero if malformed (ctest smoke)
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gnn/policy.hpp"
#include "graph/contraction.hpp"
#include "nn/simd.hpp"
#include "partition/allocate.hpp"
#include "partition/mlpart.hpp"
#include "partition/workspace.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Minimal JSON validation (recursive descent), mirroring bench_perf_train.
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
    std::cerr << "bench_perf_reward: cannot open '" << path << "'\n";
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
    for (const char* required : {"schema_version", "speedup", "identical", "contract",
                                 "partition", "end_to_end", "parallel_bisection", "env"}) {
      bool found = false;
      for (const auto& k : keys) found = found || k == required;
      if (!found) throw sc::Error(std::string("missing required key '") + required + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "bench_perf_reward: '" << path << "' is malformed: " << e.what() << '\n';
    return 1;
  }
  std::cout << "OK: " << path << " is well-formed JSON with the expected keys\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Shared dataset: Setting::Medium (100-200 node graphs, 10 devices) — the
// training regime where a cache miss is most expensive (the multilevel
// partitioner dominates) — with a fixed pool of random masks spanning sparse,
// balanced, and dense collapse decisions.
// ---------------------------------------------------------------------------
struct Level {
  std::vector<sc::graph::StreamGraph> graphs;
  std::vector<sc::rl::GraphContext> contexts;
  std::vector<std::vector<sc::gnn::EdgeMask>> masks;  // per graph
};

sc::gen::Setting parse_setting(const std::string& name) {
  if (name == "small") return sc::gen::Setting::Small;
  if (name == "medium") return sc::gen::Setting::Medium;
  if (name == "large") return sc::gen::Setting::Large;
  if (name == "xlarge") return sc::gen::Setting::XLarge;
  throw sc::Error("unknown --setting '" + name + "' (small|medium|large|xlarge)");
}

Level make_level(bool tiny, sc::gen::Setting setting, std::uint64_t seed) {
  using namespace sc;
  const gen::GeneratorConfig gcfg =
      gen::setting_config(tiny ? gen::Setting::Small : setting);
  Level level;
  level.graphs = gen::generate_graphs(gcfg, tiny ? 4 : 8, seed);
  level.contexts = rl::make_contexts(level.graphs, rl::to_cluster_spec(gcfg.workload));

  const double densities[] = {0.2, 0.5, 0.8};
  const std::size_t per_density = tiny ? 1 : 2;
  Rng rng(seed * 1000003 + 17);
  level.masks.resize(level.graphs.size());
  for (std::size_t gi = 0; gi < level.graphs.size(); ++gi) {
    for (const double p : densities) {
      for (std::size_t r = 0; r < per_density; ++r) {
        gnn::EdgeMask mask(level.graphs[gi].num_edges());
        for (auto& bit : mask) bit = rng.bernoulli(p) ? 1 : 0;
        level.masks[gi].push_back(std::move(mask));
      }
    }
  }
  return level;
}

/// Flips every PR-5 fast-path toggle at once; returns the previous settings.
struct Toggles {
  bool contraction, workspace;
};

Toggles set_fast_paths(bool on) {
  Toggles prev;
  prev.contraction = sc::graph::contraction_scratch::set_enabled(on);
  prev.workspace = sc::partition::workspace::set_enabled(on);
  return prev;
}

void restore(const Toggles& t) {
  sc::graph::contraction_scratch::set_enabled(t.contraction);
  sc::partition::workspace::set_enabled(t.workspace);
}

/// Repeats `body` until `min_seconds` elapse; returns (reps, elapsed).
template <typename Fn>
std::pair<std::size_t, double> time_loop(double min_seconds, Fn&& body) {
  body();  // warm up (fills thread-local workspaces on the fast arm)
  std::size_t reps = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < min_seconds) {
    body();
    ++reps;
    elapsed = seconds_since(t0);
  }
  return {reps, elapsed};
}

struct AbPhase {
  std::size_t ops_per_rep = 0;
  double us_fast = 0.0;
  double us_legacy = 0.0;
  double ops_per_sec_fast = 0.0;
  double ops_per_sec_legacy = 0.0;
  double speedup = 0.0;
};

/// Interleaves fast/legacy rounds and keeps each arm's fastest round: load
/// spikes from the host hit both arms alike and the min discards them, so
/// the ratio reflects the code, not the machine's mood. `set_arm(bool)`
/// selects which arm the next round runs.
template <typename SetFn, typename Fn>
AbPhase ab_phase_with(SetFn&& set_arm, double min_seconds, std::size_t ops_per_rep,
                      Fn&& body) {
  AbPhase r;
  r.ops_per_rep = ops_per_rep;
  const std::size_t rounds = 4;
  const double per_round = min_seconds / static_cast<double>(rounds);
  double best_fast = std::numeric_limits<double>::infinity();
  double best_legacy = best_fast;
  for (std::size_t round = 0; round < rounds; ++round) {
    set_arm(true);
    const auto [fast_reps, fast_s] = time_loop(per_round, body);
    best_fast = std::min(best_fast, fast_s / static_cast<double>(fast_reps));
    set_arm(false);
    const auto [legacy_reps, legacy_s] = time_loop(per_round, body);
    best_legacy = std::min(best_legacy, legacy_s / static_cast<double>(legacy_reps));
  }
  const double ops = static_cast<double>(ops_per_rep);
  r.us_fast = best_fast / ops * 1e6;
  r.us_legacy = best_legacy / ops * 1e6;
  r.ops_per_sec_fast = 1e6 / r.us_fast;
  r.ops_per_sec_legacy = 1e6 / r.us_legacy;
  r.speedup = r.us_legacy / r.us_fast;
  return r;
}

template <typename Fn>
AbPhase ab_phase(double min_seconds, std::size_t ops_per_rep, Fn&& body) {
  const Toggles prev = set_fast_paths(true);
  AbPhase r = ab_phase_with([](bool on) { set_fast_paths(on); }, min_seconds,
                            ops_per_rep, body);
  restore(prev);
  return r;
}

// ---------------------------------------------------------------------------
// Phase 1: contraction only (contract() fast vs legacy).
// ---------------------------------------------------------------------------
AbPhase bench_contract(const Level& level, bool tiny) {
  using namespace sc;
  std::size_t ops = 0;
  for (const auto& per_graph : level.masks) ops += per_graph.size();
  double sink = 0.0;
  const auto result = ab_phase(tiny ? 0.05 : 0.5, ops, [&] {
    for (std::size_t gi = 0; gi < level.contexts.size(); ++gi) {
      const rl::GraphContext& ctx = level.contexts[gi];
      for (const gnn::EdgeMask& mask : level.masks[gi]) {
        const graph::Coarsening c = gnn::CoarseningPolicy::apply(*ctx.graph, ctx.profile, mask);
        sink += c.compression_ratio();
      }
    }
  });
  if (sink == 42.125) std::cerr << "";  // keep the contractions alive
  return result;
}

// ---------------------------------------------------------------------------
// Phase 2: coarse partitioning only (metis_allocate_coarse fast vs legacy)
// over pre-contracted coarse graphs.
// ---------------------------------------------------------------------------
AbPhase bench_partition(const Level& level, bool tiny) {
  using namespace sc;
  // One mid-density coarsening per graph, contracted once up front.
  std::vector<graph::Coarsening> coarse;
  for (std::size_t gi = 0; gi < level.contexts.size(); ++gi) {
    const rl::GraphContext& ctx = level.contexts[gi];
    coarse.push_back(gnn::CoarseningPolicy::apply(*ctx.graph, ctx.profile,
                                                  level.masks[gi][level.masks[gi].size() / 2]));
  }
  double sink = 0.0;
  const auto result = ab_phase(tiny ? 0.05 : 0.5, coarse.size(), [&] {
    for (std::size_t gi = 0; gi < coarse.size(); ++gi) {
      const sim::Placement p = partition::metis_allocate_coarse(
          coarse[gi].coarse, level.contexts[gi].simulator.spec(), {});
      sink += static_cast<double>(p.size());
    }
  });
  if (sink == 42.125) std::cerr << "";  // keep the partitions alive
  return result;
}

// ---------------------------------------------------------------------------
// Phase 3: the full cache-miss reward path (uncached evaluate_mask), all
// toggles together, rewards asserted bit-identical between arms.
// ---------------------------------------------------------------------------
struct EndToEndResult {
  AbPhase ab;
  bool identical = false;
};

EndToEndResult bench_end_to_end(const Level& level, bool tiny) {
  using namespace sc;
  const rl::CoarsePlacer placer = rl::metis_placer();
  std::size_t ops = 0;
  for (const auto& per_graph : level.masks) ops += per_graph.size();

  std::vector<double> rewards;
  const auto run_all = [&] {
    rewards.clear();
    for (std::size_t gi = 0; gi < level.contexts.size(); ++gi) {
      for (const gnn::EdgeMask& mask : level.masks[gi]) {
        rewards.push_back(rl::evaluate_mask(level.contexts[gi], mask, placer).reward);
      }
    }
  };

  EndToEndResult r;
  const Toggles prev = set_fast_paths(true);
  run_all();
  const std::vector<double> rewards_fast = rewards;
  set_fast_paths(false);
  run_all();
  const std::vector<double> rewards_legacy = rewards;
  restore(prev);
  r.identical = rewards_fast == rewards_legacy;  // bitwise: == on doubles
  SC_CHECK(r.identical, "fast and legacy reward paths diverged");

  r.ab = ab_phase(tiny ? 0.1 : 1.0, ops, run_all);
  return r;
}

// ---------------------------------------------------------------------------
// Phase 4: parallel recursive bisection (partition::set_parallel_bisection on
// vs off) over the same pre-contracted coarse graphs as phase 2, placements
// asserted identical between arms (the toggle is an execution-strategy switch
// only — per-subtree split RNG streams make it bit-identical by design). On a
// single-core pool both arms take the serial path, so a ~1.0x ratio there is
// the honest expectation; the win appears with a multi-worker pool.
// ---------------------------------------------------------------------------
struct ParallelBisectionResult {
  AbPhase ab;
  bool identical = false;
  std::size_t pool_threads = 0;
};

ParallelBisectionResult bench_parallel_bisection(const Level& level, bool tiny) {
  using namespace sc;
  std::vector<graph::Coarsening> coarse;
  for (std::size_t gi = 0; gi < level.contexts.size(); ++gi) {
    const rl::GraphContext& ctx = level.contexts[gi];
    coarse.push_back(gnn::CoarseningPolicy::apply(*ctx.graph, ctx.profile,
                                                  level.masks[gi][level.masks[gi].size() / 2]));
  }
  const auto place_all = [&](std::vector<sim::Placement>* placements, double* sink) {
    for (std::size_t gi = 0; gi < coarse.size(); ++gi) {
      sim::Placement p = partition::metis_allocate_coarse(
          coarse[gi].coarse, level.contexts[gi].simulator.spec(), {});
      if (sink != nullptr) *sink += static_cast<double>(p.size());
      if (placements != nullptr) placements->push_back(std::move(p));
    }
  };

  ParallelBisectionResult r;
  r.pool_threads = ThreadPool::global().size();

  std::vector<sim::Placement> on, off;
  const bool prev = partition::set_parallel_bisection(true);
  place_all(&on, nullptr);
  partition::set_parallel_bisection(false);
  place_all(&off, nullptr);
  partition::set_parallel_bisection(prev);
  r.identical = on == off;
  SC_CHECK(r.identical, "parallel and serial bisection placements diverged");

  double sink = 0.0;
  r.ab = ab_phase_with([](bool arm) { partition::set_parallel_bisection(arm); },
                       tiny ? 0.05 : 0.5, coarse.size(),
                       [&] { place_all(nullptr, &sink); });
  if (sink == 42.125) std::cerr << "";  // keep the partitions alive
  return r;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os << std::setprecision(12) << v;
  return os.str();
}

void phase_json(std::ostream& os, const char* name, const AbPhase& p, bool last) {
  os << "  \"" << name << "\": {\n"
     << "    \"ops_per_rep\": " << p.ops_per_rep << ",\n"
     << "    \"us_fast\": " << json_num(p.us_fast) << ",\n"
     << "    \"us_legacy\": " << json_num(p.us_legacy) << ",\n"
     << "    \"ops_per_sec_fast\": " << json_num(p.ops_per_sec_fast) << ",\n"
     << "    \"ops_per_sec_legacy\": " << json_num(p.ops_per_sec_legacy) << ",\n"
     << "    \"speedup\": " << json_num(p.speedup) << "\n  }" << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace sc;
  const Flags raw(argc, argv);
  if (raw.has("validate")) return validate_json(raw.get_string("validate", ""));

  const auto args = bench::BenchArgs::parse(argc, argv);
  const bool tiny = raw.get_bool("tiny", false);
  const std::string setting_name = raw.get_string("setting", "medium");
  const gen::Setting setting = parse_setting(setting_name);
  const std::string out = raw.get_string("out", "BENCH_perf_reward.json");
  std::cout << "[perf_reward] Reward hot-path harness" << (tiny ? " (tiny)" : "")
            << " setting=" << setting_name << "\n";

  const Level level = make_level(tiny, setting, args.seed);
  std::size_t total_masks = 0, total_edges = 0;
  for (const auto& per_graph : level.masks) total_masks += per_graph.size();
  for (const auto& g : level.graphs) total_edges += g.num_edges();
  std::cout << "  level   " << level.graphs.size() << " graphs, " << total_edges
            << " edges, " << total_masks << " masks (densities 0.2/0.5/0.8), "
            << level.contexts[0].simulator.spec().num_devices << " devices\n";

  const auto contract = bench_contract(level, tiny);
  std::cout << "  contract   " << metrics::Table::fmt(contract.us_fast, 1)
            << " us/op scratch vs " << metrics::Table::fmt(contract.us_legacy, 1)
            << " legacy (" << metrics::Table::fmt(contract.speedup, 2) << "x)\n";

  const auto part = bench_partition(level, tiny);
  std::cout << "  partition  " << metrics::Table::fmt(part.us_fast, 1)
            << " us/op workspace vs " << metrics::Table::fmt(part.us_legacy, 1)
            << " legacy (" << metrics::Table::fmt(part.speedup, 2) << "x)\n";

  const auto e2e = bench_end_to_end(level, tiny);
  std::cout << "  end_to_end " << metrics::Table::fmt(e2e.ab.us_fast, 1)
            << " us/eval fast vs " << metrics::Table::fmt(e2e.ab.us_legacy, 1)
            << " legacy (" << metrics::Table::fmt(e2e.ab.speedup, 2)
            << "x), rewards bit-identical\n";

  const auto pbis = bench_parallel_bisection(level, tiny);
  std::cout << "  par_bisect " << metrics::Table::fmt(pbis.ab.us_fast, 1)
            << " us/op parallel vs " << metrics::Table::fmt(pbis.ab.us_legacy, 1)
            << " serial (" << metrics::Table::fmt(pbis.ab.speedup, 2) << "x on "
            << pbis.pool_threads << "-thread pool), placements identical\n";

  std::ofstream os(out);
  SC_CHECK(os.good(), "cannot open output file '" << out << "'");
  os << "{\n"
     << "  \"schema_version\": 1,\n"
     << "  \"tiny\": " << (tiny ? "true" : "false") << ",\n"
     << "  \"setting\": \"" << (tiny ? "small" : setting_name) << "\",\n"
     << "  \"seed\": " << args.seed << ",\n"
     << "  \"threads\": " << ThreadPool::global().size() << ",\n"
     << "  \"graphs\": " << level.graphs.size() << ",\n"
     << "  \"masks\": " << total_masks << ",\n"
     << "  \"identical\": " << (e2e.identical ? "true" : "false") << ",\n"
     << "  \"speedup\": " << json_num(e2e.ab.speedup) << ",\n";
  phase_json(os, "contract", contract, false);
  phase_json(os, "partition", part, false);
  phase_json(os, "end_to_end", e2e.ab, false);
  os << "  \"parallel_bisection\": {\n"
     << "    \"pool_threads\": " << pbis.pool_threads << ",\n"
     << "    \"identical\": " << (pbis.identical ? "true" : "false") << ",\n"
     << "    \"us_parallel\": " << json_num(pbis.ab.us_fast) << ",\n"
     << "    \"us_serial\": " << json_num(pbis.ab.us_legacy) << ",\n"
     << "    \"speedup\": " << json_num(pbis.ab.speedup) << "\n  },\n"
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
  std::cerr << "bench_perf_reward: " << e.what() << '\n';
  return 1;
}
