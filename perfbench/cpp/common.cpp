#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>

#include <sched.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gen/generator.hpp"
#include "rl/rollout.hpp"

namespace perfbench {

std::size_t fixed_ops(double ops_per_second, double seconds, std::size_t min_ops) {
  const double n = std::round(ops_per_second * seconds);
  return std::max(min_ops, static_cast<std::size_t>(n));
}

namespace {

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

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void reset_peak_rss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream os("/proc/self/clear_refs");
  if (os.good()) os << "5\n";
}

double peak_rss_mb() { return static_cast<double>(status_kb("VmHWM")) / 1024.0; }

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  original_.resize(sizeof set);
  std::memcpy(original_.data(), &set, sizeof set);
  restore_ = true;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (!restore_) return;
  cpu_set_t set;
  std::memcpy(&set, original_.data(), sizeof set);
  sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::step() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_], &set);
  next_ = (next_ + 1) % cpus_.size();
  sched_setaffinity(0, sizeof set, &set);
}

TimedPhase::TimedPhase(std::size_t ops, std::size_t setups) : ops_(ops), setups_(setups) {
  SC_CHECK(setups >= 1 && setups <= ops, "a timed phase needs 1..ops set-ups");
}

bool TimedPhase::setup_due(std::size_t i) const {
  // Stretch k begins at operation k * ops / setups; a repeat precedes every
  // stretch but the first.
  return i > 0 && i < ops_ && (i * setups_) / ops_ != ((i - 1) * setups_) / ops_;
}

void TimedPhase::start() {
  reset_peak_rss();
  started_ = Clock::now();
}

void TimedPhase::stop() {
  wall_s_ += seconds_between(started_, Clock::now());
  peak_mb_ = std::max(peak_mb_, perfbench::peak_rss_mb());
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  sc::Rng rng(seed ^ (tag * 0x9E3779B97F4A7C15ULL));
  return rng();
}

std::uint64_t hash_mix(std::uint64_t h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xFFu;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t hash_placement(const std::vector<int>& placement) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const int p : placement) h = hash_mix(h, static_cast<std::uint32_t>(p));
  return h;
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

std::vector<sc::graph::StreamGraph> stratified_graphs(sc::gen::Setting setting,
                                                      std::size_t count,
                                                      std::uint64_t seed,
                                                      const std::string& prefix) {
  const sc::gen::GeneratorConfig base = sc::gen::setting_config(setting);
  // Graph i gets the i-th of `count` evenly spaced node budgets, and CPU and
  // link loads from two fixed (seed-independent) permutations of `count`
  // evenly spaced levels, so every seed draws the same set of sizes and loads.
  const auto levels = [count](std::uint64_t salt) {
    std::vector<std::size_t> perm(count);
    for (std::size_t i = 0; i < count; ++i) perm[i] = i;
    sc::Rng rng(salt);
    for (std::size_t i = count; i > 1; --i) std::swap(perm[i - 1], perm[rng.index(i)]);
    return perm;
  };
  const std::vector<std::size_t> cpu_level = levels(0xC0FFEE);
  const std::vector<std::size_t> sat_level = levels(0xBADCAB);
  const auto at = [count](double lo, double hi, std::size_t level) {
    return lo + (hi - lo) * (static_cast<double>(level) + 0.5) / static_cast<double>(count);
  };
  const std::size_t lo = base.topology.min_nodes;
  const std::size_t span = base.topology.max_nodes - lo;
  std::vector<sc::graph::StreamGraph> graphs;
  graphs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    sc::gen::GeneratorConfig cfg = base;
    const std::size_t nodes = lo + (count > 1 ? span * i / (count - 1) : span / 2);
    cfg.topology.min_nodes = nodes;
    cfg.topology.max_nodes = nodes;
    const double cpu = at(base.workload.cpu_frac_lo, base.workload.cpu_frac_hi, cpu_level[i]);
    cfg.workload.cpu_frac_lo = cpu;
    cfg.workload.cpu_frac_hi = cpu;
    const double sat = at(base.workload.sat_lo, base.workload.sat_hi, sat_level[i]);
    cfg.workload.sat_lo = sat;
    cfg.workload.sat_hi = sat;
    sc::Rng rng(derive_seed(seed, i));
    graphs.push_back(sc::gen::generate_graph(cfg, rng, prefix + std::to_string(i)));
  }
  return graphs;
}

sc::sim::ClusterSpec spec_of(sc::gen::Setting setting) {
  return sc::rl::to_cluster_spec(sc::gen::setting_config(setting).workload);
}

std::int32_t Tracer::begin(const char* name, std::uint32_t op) {
  const std::int32_t id = static_cast<std::int32_t>(spans_.size());
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now().time_since_epoch())
                      .count();
  spans_.push_back(Span{name, parent, op, ns, ns});
  stack_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count();
  SC_CHECK(!stack_.empty() && stack_.back() == id, "span closed out of order");
  stack_.pop_back();
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream os(path);
  SC_CHECK(os.good(), "cannot open span file '" << path << "'");
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "id,parent,op,name,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << i << ',' << s.parent << ',' << s.op << ',' << s.name << ','
       << (s.start_ns - t0) << ',' << (s.end_ns - t0) << '\n';
  }
  os.flush();
  SC_CHECK(os.good(), "span file write to '" << path << "' failed");
}

void Record::write(const std::string& path) const {
  std::ofstream os(path);
  SC_CHECK(os.good(), "cannot open record file '" << path << "'");
  os << std::setprecision(17);
  os << "{";
  bool first = true;
  const auto key = [&](const std::string& k) {
    os << (first ? "\n" : ",\n") << "  \"" << json_escape(k) << "\": ";
    first = false;
  };
  const auto number = [&](double v) {
    if (std::isfinite(v)) {
      os << v;
    } else {
      os << "null";
    }
  };
  for (const auto& [k, v] : nums_) {
    key(k);
    number(v);
  }
  for (const auto& [k, v] : strs_) {
    key(k);
    os << '"' << json_escape(v) << '"';
  }
  for (const auto& [k, v] : lists_) {
    key(k);
    os << '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) os << ',';
      number(v[i]);
    }
    os << ']';
  }
  os << "\n}\n";
  os.flush();
  SC_CHECK(os.good(), "record write to '" << path << "' failed");
}

void check(bool ok, const std::string& what) {
  if (!ok) throw sc::Error("output check failed: " + what);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

}  // namespace perfbench
