// bevr_perfbench — one workload of the repository benchmark per run.
//
//   bevr_perfbench --workload figures|flows|serve --seed N --seconds S
//                  --trace 0|1 [--setup-only] [--spawn-ns NS]
//                  [--golden-dir DIR] [--trace-out FILE]
//                  [--low-rps R --high-rps R --p90-limit-ms MS]
//
// Prints progress, a host-speed probe at the start and end, and as its
// last line one JSON object {"correct", "attempted", "failed",
// "metrics"}: the workload's end-to-end metrics untraced (--trace 0);
// traced (--trace 1), the per-layer metrics of all three paths, the
// same for every workload. Normally started through perfbench/run.py,
// which builds it and repeats set-up.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common.h"

namespace {

double number(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size()) throw std::invalid_argument(flag + ": not a number: " + text);
  return value;
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + ": missing value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      std::size_t used = 0;
      o.seed = std::stoull(value, &used);
      if (used != value.size()) throw std::invalid_argument("--seed: not an integer: " + value);
    } else if (flag == "--seconds") {
      o.seconds = number(flag, value);
    } else if (flag == "--trace") {
      o.trace = number(flag, value) != 0.0;
    } else if (flag == "--spawn-ns") {
      o.spawn_ns = static_cast<std::int64_t>(number(flag, value));
    } else if (flag == "--golden-dir") {
      o.golden_dir = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--low-rps") {
      o.low_rps = number(flag, value);
    } else if (flag == "--high-rps") {
      o.high_rps = number(flag, value);
    } else if (flag == "--p90-limit-ms") {
      o.p90_limit_ms = number(flag, value);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t entry_ns = perfbench::mono_ns();
  try {
    perfbench::Options options = parse(argc, argv);
    if (options.spawn_ns == 0) options.spawn_ns = entry_ns;
    perfbench::Workload workload = nullptr;
    if (options.workload == "figures") workload = perfbench::run_figures;
    if (options.workload == "flows") workload = perfbench::run_flows;
    if (options.workload == "serve") workload = perfbench::run_serve;
    if (workload == nullptr) {
      throw std::invalid_argument("--workload must be figures, flows or serve");
    }
    perfbench::Outcome out;
    if (options.trace) {
      // The same breakdown whatever the workload, so that every traced
      // run reports every per-layer metric. Serve takes the largest
      // share: its blocks, convoy block and max_rps ladder are timed
      // traffic, where a batch path needs only a few paired passes.
      perfbench::setup_done(options, out);
      perfbench::trace_figures(options, 0.1 * options.seconds, out);
      perfbench::trace_flows(options, 0.2 * options.seconds, out);
      perfbench::trace_serve(options, 0.5 * options.seconds, out);
    } else {
      workload(options, out);
    }
    if (!options.setup_only) perfbench::print_host_probe("end");
    std::cout << out.json() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bevr_perfbench: " << e.what() << "\n";
    return 2;
  }
}
