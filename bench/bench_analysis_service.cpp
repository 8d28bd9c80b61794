// Analysis-service throughput: cold vs warm cache.
//
//   bench_analysis_service
//
// The workload models the CI traffic the VerificationService is built
// for: a translation unit of 24 DRB-generated functions, re-submitted in
// full after every edit with exactly one function changed.
//
//   cold: a fresh service analyzes the whole unit (every function is a
//         cache miss — parse + three passes each).
//   warm: the same service re-verifies the unit with one function
//         edited per iteration (N-1 text-hash hits + 1 miss).
//
// Both are printed as functions verified per second, best-of-N to
// de-noise a shared box, plus the warm/cold ratio (see DESIGN.md,
// "Analysis service"). Takes no arguments.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "hpcgpt/analysis/service.hpp"
#include "hpcgpt/drb/drb.hpp"
#include "hpcgpt/json/json.hpp"
#include "hpcgpt/minilang/ast.hpp"
#include "hpcgpt/minilang/render.hpp"
#include "hpcgpt/support/rng.hpp"
#include "hpcgpt/support/timer.hpp"

using namespace hpcgpt;

namespace {

/// One DRB case with a trailing `bench_salt = <salt>` assignment, so
/// every function in the unit has a distinct AST fingerprint even when a
/// category's generator emits a fixed pattern. Rendered C-flavoured.
std::string bench_function(drb::Category category, Rng& rng,
                           std::int64_t salt) {
  drb::TestCase tc = drb::generate_case(category, minilang::Flavor::C, rng);
  minilang::Program program = std::move(tc.program);
  program.decls.push_back({"bench_salt", false, 0, 0});
  program.body.push_back(minilang::assign(minilang::scalar_ref("bench_salt"),
                                          minilang::int_lit(salt)));
  return minilang::render(program, minilang::Flavor::C);
}

/// A translation unit of `n` distinct functions cycling through the DRB
/// categories.
analysis::VerifyRequest bench_unit(std::size_t n) {
  Rng rng(2023);
  const auto& categories = drb::all_categories();
  analysis::VerifyRequest request;
  request.unit = "bench_unit";
  for (std::size_t i = 0; i < n; ++i) {
    const drb::Category category = categories[i % categories.size()];
    request.functions.push_back(
        {"fn" + std::to_string(i),
         bench_function(category, rng, static_cast<std::int64_t>(i))});
  }
  return request;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
    return 2;
  }
  constexpr std::size_t kFunctions = 24;
  constexpr int kColdReps = 5;
  constexpr int kWarmReps = 40;
  const analysis::VerifyRequest unit = bench_unit(kFunctions);

  // Cold: every rep gets a fresh cache, so every function pays the full
  // parse + analyze path.
  double cold_best = 1e30;
  for (int rep = 0; rep < kColdReps; ++rep) {
    analysis::ServiceOptions options;
    options.ground_rationales = false;  // metric-only workload
    analysis::VerificationService service(options);
    Timer t;
    (void)service.verify(unit);
    cold_best = std::min(cold_best, t.seconds());
  }
  const double cold_per_second = static_cast<double>(kFunctions) / cold_best;

  // Warm: one long-lived service, pre-warmed, then re-verified with one
  // freshly edited function per rep (the rep counter is rendered into
  // the source, so each round is exactly N-1 hits + 1 miss).
  analysis::ServiceOptions options;
  options.ground_rationales = false;
  analysis::VerificationService service(options);
  (void)service.verify(unit);
  Rng edit_rng(7);
  const auto& categories = drb::all_categories();
  analysis::VerifyRequest edited = bench_unit(kFunctions);
  double warm_best = 1e30;
  for (int rep = 0; rep < kWarmReps; ++rep) {
    edited.functions[0].source = bench_function(
        categories[rep % categories.size()], edit_rng, 1000 + rep);
    Timer t;
    (void)service.verify(edited);
    warm_best = std::min(warm_best, t.seconds());
  }
  const double warm_per_second = static_cast<double>(kFunctions) / warm_best;
  const json::Value metrics(service.metrics().snapshot());
  const auto count = [&](const char* name) {
    return static_cast<long long>(metrics.at("counters").at(name).as_int());
  };

  std::printf("bench_analysis_service: %zu-function unit, 1 edit/round\n",
              kFunctions);
  std::printf("analysis_per_second_cold  %10.1f\n", cold_per_second);
  std::printf("analysis_per_second_warm  %10.1f\n", warm_per_second);
  std::printf("warm/cold speedup         %10.2fx\n",
              warm_per_second / cold_per_second);
  std::printf("cache: %lld hits, %lld misses, %lld evictions, %lld entries\n",
              count("analysis.cache.hits"), count("analysis.cache.misses"),
              count("analysis.cache.evictions"),
              static_cast<long long>(metrics.at("gauges")
                                         .at("analysis.cache.entries")
                                         .at("value")
                                         .as_int()));
  return 0;
}
