// hpcgpt_benchdiff — the perf-regression gate over BENCH_perf.json files.
//
//   hpcgpt_benchdiff baseline.json candidate.json
//       [--threshold PCT] [--scale-candidate F] [--scale-metric NAME=F]
//
// Compares every numeric metric the two files' "measured" sections share
// and fails (exit 1) when any gated metric regressed by more than the
// threshold (default 15%). Direction is inferred from the metric name:
// throughput-like metrics (*_per_second, gflops) and cache hit ratios
// (*hit_rate*) must not drop; latency-like metrics (latency, ttft,
// p95/p99 seconds) must not rise. Metrics matching no family (e.g. the
// model_weight_kib_* footprint series) are printed as informational
// only.
//
// One-sided metrics — present in only one of the two files — are
// reported as "NEW" / "REMOVED" warnings rather than silently skipped,
// so a renamed or dropped metric can't fall out of the gate unnoticed.
// Warnings never fail the diff by themselves, with one exception: the
// server_64stream_* family is required once present in the baseline —
// removing it exits 1, because that family is the paged-KV acceptance
// surface.
//
// Multi-worker train metrics (*_workersN, N > 1) are gated only when the
// running host has more than one core: on a 1-core host the engine's
// workers time-slice one CPU, so those comparisons measure scheduler
// noise, not a regression. Skipped comparisons print a note.
//
// --scale-candidate F is a test hook: it multiplies the candidate's
// throughput metrics by F and divides its latency metrics by F before
// comparing, so CI can verify the gate trips on a synthetic regression
// (e.g. F=0.8 simulates a uniform 20% slowdown). --scale-metric NAME=F
// is the single-metric version (repeatable) — direction-aware like
// --scale-candidate but touching only NAME, so CI can aim a synthetic
// regression at one gated metric (e.g. prefix_cache_hit_rate=0.5).
//
// Exit codes: 0 = no gated regression, 1 = regression detected,
// 2 = usage or parse error.

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hpcgpt/json/json.hpp"
#include "hpcgpt/support/error.hpp"

using namespace hpcgpt;

namespace {

enum class Direction { HigherBetter, LowerBetter, Informational };

Direction classify(const std::string& name) {
  const auto contains = [&](const char* needle) {
    return name.find(needle) != std::string::npos;
  };
  // Ratio metrics first: "hit_rate" outranks the generic name families
  // so e.g. a hypothetical *_hit_rate_seconds never gets misread as a
  // latency.
  if (contains("hit_rate")) return Direction::HigherBetter;
  if (contains("per_second") || contains("gflops") || contains("qps")) {
    return Direction::HigherBetter;
  }
  if (contains("latency") || contains("ttft") || contains("seconds")) {
    return Direction::LowerBetter;
  }
  return Direction::Informational;
}

/// Metrics whose removal fails the diff outright instead of printing a
/// REMOVED warning. The wide-stream serving family is the paged-KV
/// acceptance surface, and the retrieval QPS family is the search
/// engine's — dropping either would silently un-gate a headline.
bool removal_is_failure(const std::string& name) {
  return name.rfind("server_64stream_", 0) == 0 ||
         name.rfind("retrieval_qps_", 0) == 0;
}

/// Worker count encoded in a train metric name ("..._workersN");
/// 0 when the name carries none.
int worker_count(const std::string& name) {
  const auto pos = name.find("workers");
  if (pos == std::string::npos) return 0;
  int n = 0;
  for (std::size_t i = pos + 7;
       i < name.size() && std::isdigit(static_cast<unsigned char>(name[i]));
       ++i) {
    n = n * 10 + (name[i] - '0');
  }
  return n;
}

json::Object load_measured(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const json::Value root = json::parse(buffer.str());
  require(root.is_object(), path + ": top level is not an object");
  const auto it = root.as_object().find("measured");
  require(it != root.as_object().end() && it->second.is_object(),
          path + ": no \"measured\" object");
  return it->second.as_object();
}

struct Options {
  std::string baseline;
  std::string candidate;
  double threshold_pct = 15.0;
  double scale_candidate = 1.0;
  /// Per-metric candidate scaling (--scale-metric NAME=F), applied
  /// direction-aware like --scale-candidate but to one metric only.
  std::vector<std::pair<std::string, double>> scale_metrics;
};

int usage() {
  std::fprintf(stderr,
               "usage: hpcgpt_benchdiff baseline.json candidate.json "
               "[--threshold PCT] [--scale-candidate F] "
               "[--scale-metric NAME=F]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value_of = [&](const char* flag) -> std::string {
      const std::string prefix = std::string(flag) + "=";
      if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
      if (a == flag && i + 1 < argc) return argv[++i];
      throw InvalidArgument("missing value for " + std::string(flag));
    };
    try {
      if (a.rfind("--threshold", 0) == 0) {
        opts.threshold_pct = std::stod(value_of("--threshold"));
      } else if (a.rfind("--scale-candidate", 0) == 0) {
        opts.scale_candidate = std::stod(value_of("--scale-candidate"));
      } else if (a.rfind("--scale-metric", 0) == 0) {
        const std::string spec = value_of("--scale-metric");
        const auto eq = spec.find('=');
        if (eq == std::string::npos || eq == 0) {
          throw InvalidArgument("--scale-metric expects NAME=F, got " + spec);
        }
        opts.scale_metrics.emplace_back(spec.substr(0, eq),
                                        std::stod(spec.substr(eq + 1)));
      } else if (a.rfind("--", 0) == 0) {
        std::fprintf(stderr, "hpcgpt_benchdiff: unknown option %s\n",
                     a.c_str());
        return usage();
      } else {
        positional.push_back(a);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hpcgpt_benchdiff: %s\n", e.what());
      return usage();
    }
  }
  if (positional.size() != 2) return usage();
  opts.baseline = positional[0];
  opts.candidate = positional[1];

  try {
    const json::Object base = load_measured(opts.baseline);
    const json::Object cand = load_measured(opts.candidate);

    std::printf("%-44s %14s %14s %8s  %s\n", "metric", "baseline",
                "candidate", "delta%", "verdict");
    const unsigned host_cores = std::thread::hardware_concurrency();
    std::size_t compared = 0;
    std::size_t skipped_workers = 0;
    std::vector<std::string> regressions;
    std::vector<std::string> removed;
    for (const auto& [name, base_value] : base) {
      const auto it = cand.find(name);
      if (it == cand.end()) {
        if (base_value.is_number()) removed.push_back(name);
        continue;
      }
      if (!base_value.is_number() || !it->second.is_number()) {
        continue;
      }
      const Direction dir = classify(name);
      const double b = base_value.as_number();
      double c = it->second.as_number();
      if (dir == Direction::HigherBetter) c *= opts.scale_candidate;
      if (dir == Direction::LowerBetter) c /= opts.scale_candidate;
      for (const auto& [metric, factor] : opts.scale_metrics) {
        if (metric != name) continue;
        if (dir == Direction::HigherBetter) c *= factor;
        if (dir == Direction::LowerBetter) c /= factor;
      }
      const double delta_pct = b != 0.0 ? (c - b) / b * 100.0 : 0.0;

      const char* verdict = "info";
      bool gated = dir != Direction::Informational && b != 0.0;
      if (gated && host_cores <= 1 && worker_count(name) > 1) {
        // Multi-worker train throughput on a 1-core host measures how
        // the scheduler time-slices, not the engine — don't gate it.
        verdict = "skipped (1-core host)";
        gated = false;
        ++skipped_workers;
      }
      if (gated) {
        const bool regressed =
            dir == Direction::HigherBetter
                ? c < b * (1.0 - opts.threshold_pct / 100.0)
                : c > b * (1.0 + opts.threshold_pct / 100.0);
        verdict = regressed ? "REGRESSED" : "ok";
        if (regressed) regressions.push_back(name);
      }
      std::printf("%-44s %14.6g %14.6g %+7.1f%%  %s\n", name.c_str(), b, c,
                  delta_pct, verdict);
      ++compared;
    }
    require(compared > 0, "no shared numeric metrics under \"measured\"");

    std::vector<std::string> added;
    for (const auto& [name, value] : cand) {
      if (value.is_number() && base.find(name) == base.end()) {
        added.push_back(name);
      }
    }
    for (const std::string& name : added) {
      std::printf("warning: NEW metric %s (candidate only — no baseline "
                  "to gate against)\n",
                  name.c_str());
    }
    std::vector<std::string> removed_required;
    for (const std::string& name : removed) {
      if (removal_is_failure(name)) {
        std::printf("error: REQUIRED metric %s removed (baseline only — "
                    "dropped from candidate)\n",
                    name.c_str());
        removed_required.push_back(name);
      } else {
        std::printf("warning: REMOVED metric %s (baseline only — dropped "
                    "from candidate)\n",
                    name.c_str());
      }
    }
    if (skipped_workers > 0) {
      std::printf("note: %zu multi-worker train metric(s) not gated on "
                  "this 1-core host\n",
                  skipped_workers);
    }

    if (!regressions.empty() || !removed_required.empty()) {
      if (!regressions.empty()) {
        std::printf("\n%zu metric(s) regressed beyond %.1f%%:\n",
                    regressions.size(), opts.threshold_pct);
        for (const std::string& name : regressions) {
          std::printf("  %s\n", name.c_str());
        }
      }
      if (!removed_required.empty()) {
        std::printf("\n%zu required metric(s) removed:\n",
                    removed_required.size());
        for (const std::string& name : removed_required) {
          std::printf("  %s\n", name.c_str());
        }
      }
      return 1;
    }
    std::printf("\nno regression beyond %.1f%% across %zu metric(s)\n",
                opts.threshold_pct, compared);
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "hpcgpt_benchdiff: %s\n", e.what());
    return 2;
  }
}
