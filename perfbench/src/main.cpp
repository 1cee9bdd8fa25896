// orco_perfbench — runs one benchmark workload and prints its result as
// one JSON line. perfbench/run.py builds this binary and turns that line
// into the benchmark's result.
//
//   orco_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::cerr << "usage: orco_perfbench --workload "
               "<uplink_sparse|uplink_rounds|serve_finetune|train_online> "
               "--seed <n> --seconds <s> --trace <0|1>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.traced = value == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0.0) return usage();

  try {
    perfbench::Result result;
    if (workload == "uplink_sparse") {
      result = perfbench::run_uplink_sparse(options);
    } else if (workload == "uplink_rounds") {
      result = perfbench::run_uplink_rounds(options);
    } else if (workload == "serve_finetune") {
      result = perfbench::run_serve_finetune(options);
    } else if (workload == "train_online") {
      result = perfbench::run_train_online(options);
    } else {
      return usage();
    }
    if (options.traced) perfbench::add_layer_probes(options, result);
    perfbench::print_result(workload, options.seed, options.traced, result);
  } catch (const std::exception& e) {
    std::cerr << "orco_perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
