// Shared plumbing of the repository benchmark runner (perfbench/README.md):
// arguments, clocks, peak-RSS sampling, the in-memory span tracer, the raw
// result record handed to perfbench/run.py, and seeded input generation.
//
// The runner only measures and checks; every derived metric (percentiles,
// self times, ratios) is computed by perfbench/benchlib.py from the raw
// record, where it is unit-tested.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gen/dataset.hpp"
#include "graph/stream_graph.hpp"
#include "sim/cluster.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;      ///< raw result record (JSON)
  std::string spans;    ///< span file (CSV), written when tracing
  std::string workdir;  ///< scratch directory for input files
};

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Operation count for a workload: a fixed function of the requested run
/// length, never of measured time, so every run does identical work.
std::size_t fixed_ops(double ops_per_second, double seconds, std::size_t min_ops);

/// Returns freed heap to the kernel and resets VmHWM. Where the kernel cannot
/// reset the peak, peak_rss_mb() covers the whole process.
void reset_peak_rss();
double peak_rss_mb();

/// Spreads a single-threaded timed loop over every CPU the process may use:
/// each step() pins the calling thread to the next allowed CPU. On a shared
/// host the CPUs run at different, slowly drifting speeds; rotating makes a
/// run sample all of them instead of whichever one the scheduler kept it on.
/// The destructor restores the original affinity.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void step();

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  bool restore_ = false;
  std::vector<unsigned char> original_;  ///< the cpu_set_t the thread started with
};

/// The timed phase of a run: `ops` operations, cut into `setups` equal
/// stretches. The workload's first set-up runs before the phase; each later
/// set-up repeat runs between two stretches, with the clock stopped. So
/// setup_s samples the same minutes of host time as the operations, instead
/// of only the first seconds of the process, where a passing slowdown of the
/// shared host would shift the whole median. Wall time and peak RSS cover the
/// stretches only; the peak is reset after every repeat.
class TimedPhase {
 public:
  TimedPhase(std::size_t ops, std::size_t setups);

  /// True when a set-up repeat falls just before operation i.
  bool setup_due(std::size_t i) const;
  /// Call before operation i: starts the clock before operation 0, and where
  /// a set-up repeat is due stops it, runs `setup` and starts it again.
  template <class F>
  void before(std::size_t i, F&& setup) {
    if (i == 0) {
      start();
    } else if (setup_due(i)) {
      stop();
      setup();
      start();
    }
  }
  /// Call after the last operation.
  void finish() { stop(); }

  double wall_s() const { return wall_s_; }
  double peak_rss_mb() const { return peak_mb_; }

 private:
  void start();
  void stop();

  std::size_t ops_;
  std::size_t setups_;
  Clock::time_point started_;
  double wall_s_ = 0.0;
  double peak_mb_ = 0.0;
};

/// Derives an independent stream seed from the run seed and a purpose tag.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// FNV-1a over placement labels.
std::uint64_t hash_placement(const std::vector<int>& placement);
/// Order-dependent FNV-1a mix of one 64-bit word into `h`.
std::uint64_t hash_mix(std::uint64_t h, std::uint64_t word);
std::uint64_t double_bits(double v);
std::string hex64(std::uint64_t v);

/// `count` graphs of a paper setting whose node budgets, CPU loads and link
/// loads are spread evenly over the setting's ranges (stratified, not drawn),
/// so the amount of work and the load mix do not depend on the seed; the
/// seed shapes each topology and its per-operator costs.
std::vector<sc::graph::StreamGraph> stratified_graphs(sc::gen::Setting setting,
                                                      std::size_t count,
                                                      std::uint64_t seed,
                                                      const std::string& prefix);

sc::sim::ClusterSpec spec_of(sc::gen::Setting setting);

/// Single-threaded in-memory span recorder. Spans are written out once, at
/// the end of the run, so recording costs two clock reads and a push.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int32_t parent;  ///< index of the enclosing span, -1 for a root
    std::uint32_t op;     ///< operation id shared by a request's spans
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  std::int32_t begin(const char* name, std::uint32_t op);
  void end(std::int32_t id);

  void reserve(std::size_t n) { spans_.reserve(n); }
  /// CSV: id,parent,op,name,start_ns,end_ns (ns relative to the first span).
  void write_csv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a no-op when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint32_t op)
      : tracer_(t), id_(t.enabled() ? t.begin(name, op) : -1) {}
  ~Scope() {
    if (id_ >= 0) tracer_.end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

/// The raw record of one run: scalars, strings and sample lists, written as
/// one flat JSON object.
class Record {
 public:
  void num(const std::string& key, double v) { nums_[key] = v; }
  void str(const std::string& key, const std::string& v) { strs_[key] = v; }
  void list(const std::string& key, std::vector<double> v) { lists_[key] = std::move(v); }
  void write(const std::string& path) const;

 private:
  std::map<std::string, double> nums_;
  std::map<std::string, std::string> strs_;
  std::map<std::string, std::vector<double>> lists_;
};

/// Fails the run (non-zero exit via sc::Error) when an output check fails.
void check(bool ok, const std::string& what);

/// Median of a sample (copy; the caller's order is kept).
double median(std::vector<double> v);

int run_alloc_cold(const Args& args, Record& rec, Tracer& tracer);
int run_serve_hotset(const Args& args, Record& rec, Tracer& tracer);
int run_train(const Args& args, Record& rec, Tracer& tracer);
int run_huge_stream(const Args& args, Record& rec, Tracer& tracer);

}  // namespace perfbench
