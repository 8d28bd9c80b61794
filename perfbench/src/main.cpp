// End-to-end benchmark binary: one seeded workload per run.
//
//   hpcgpt_perfbench --workload rag_qa|race_ci|finetune_epoch --seed N
//                    --seconds S --trace 0|1 [--source-digest HEX]
//
// Prints the host fingerprint, the workload's own named metrics and every
// correctness check, then (last line) one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits 1 when a correctness check failed, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

bool parse_args(int argc, char** argv, perfbench::Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--source-digest") {
      args.source_digest = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: hpcgpt_perfbench --workload rag_qa|race_ci|"
                 "finetune_epoch --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  perfbench::Report report;
  try {
    const perfbench::CoresAwake awake;
    if (args.workload == "rag_qa") {
      perfbench::run_rag_qa(args, report);
    } else if (args.workload == "race_ci") {
      perfbench::run_race_ci(args, report);
    } else if (args.workload == "finetune_epoch") {
      perfbench::run_finetune_epoch(args, report);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.e2e("peak_rss_mib", perfbench::peak_rss_mib());
  perfbench::print_report(args, report);
  return report.correct ? 0 : 1;
}
