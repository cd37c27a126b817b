// sc_perfbench — the measuring half of the repository benchmark.
//
//   sc_perfbench --workload <alloc-cold|serve-hotset|train|huge-stream>
//                --seed N --seconds S --trace 0|1
//                --out record.json [--spans spans.csv] [--workdir DIR]
//
// Runs one workload: repeated set-up, warm-up, a fixed number of timed
// operations, then output checks. Writes a raw record (sample lists and
// counters) that perfbench/run.py turns into metrics. Exits 1, without a
// record, when any output check fails.
#include <iostream>

#include "common.hpp"
#include "common/error.hpp"
#include "common/flags.hpp"

int main(int argc, char** argv) try {
  const sc::Flags flags(argc, argv);
  flags.check_unknown({"workload", "seed", "seconds", "trace", "out", "spans", "workdir"});
  perfbench::Args args;
  args.workload = flags.get_string("workload", "");
  args.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  args.seconds = flags.get_double("seconds", 10.0);
  args.trace = flags.get_int("trace", 0) != 0;
  args.out = flags.get_string("out", "");
  args.spans = flags.get_string("spans", "");
  args.workdir = flags.get_string("workdir", ".");
  SC_CHECK(!args.out.empty(), "--out is required");
  SC_CHECK(args.seconds > 0.0, "--seconds must be positive");
  SC_CHECK(!args.trace || !args.spans.empty(), "--trace 1 needs --spans");

  perfbench::Record rec;
  perfbench::Tracer tracer(args.trace);
  int rc = 1;
  if (args.workload == "alloc-cold") {
    rc = perfbench::run_alloc_cold(args, rec, tracer);
  } else if (args.workload == "serve-hotset") {
    rc = perfbench::run_serve_hotset(args, rec, tracer);
  } else if (args.workload == "train") {
    rc = perfbench::run_train(args, rec, tracer);
  } else if (args.workload == "huge-stream") {
    rc = perfbench::run_huge_stream(args, rec, tracer);
  } else {
    throw sc::Error("unknown workload '" + args.workload + "'");
  }
  if (rc != 0) return rc;
  if (args.trace) tracer.write_csv(args.spans);
  rec.write(args.out);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "sc_perfbench: " << e.what() << '\n';
  return 1;
}
