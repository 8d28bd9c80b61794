#include <optional>

#include "hpcgpt/analysis/verifier.hpp"
#include "hpcgpt/race/detector.hpp"
#include "hpcgpt/race/features.hpp"
#include "hpcgpt/race/hb.hpp"
#include "hpcgpt/race/interp.hpp"
#include "hpcgpt/support/error.hpp"

namespace hpcgpt::race {

using minilang::Flavor;
using minilang::Program;
using minilang::Stmt;

std::string unsupported_message(UnsupportedKind kind) {
  switch (kind) {
    case UnsupportedKind::FortranTargetInstrumentation:
      return "gfortran+tsan cannot instrument target offload regions";
    case UnsupportedKind::FortranSimdMiscompile:
      return "gfortran+tsan miscompiles simd-annotated loops";
    case UnsupportedKind::DeviceCodeUnreachable:
      return "dynamic binary instrumentation cannot reach device code";
    case UnsupportedKind::OmptOffloadTracing:
      return "OMPT offload tracing not supported";
    case UnsupportedKind::FortranSimdToolchain:
      return "gfortran-7 rejects simd directives under -fopenmp-tools";
    case UnsupportedKind::ExecutionFault:
      return "program faulted during execution";
    case UnsupportedKind::NonLoopParallelism:
      return "only loop-shaped parallel constructs are verified";
    case UnsupportedKind::NoDeviceInstrumentation:
      return "no instrumentation for device code";
  }
  return "unsupported";
}

namespace {

// =================================================== dynamic detectors

/// Shared implementation of the three dynamic tools: execute the program
/// under the simulated OpenMP runtime, then run the happens-before engine
/// with a tool-specific profile. Language/construct support gaps mirror
/// the real tools' (documented per detector below).
class DynamicDetector : public Detector {
 public:
  DynamicDetector(ToolInfo info, HbOptions profile, std::size_t num_threads,
                  std::uint64_t seed, std::size_t repetitions)
      : info_(std::move(info)),
        profile_(profile),
        num_threads_(num_threads),
        seed_(seed),
        repetitions_(repetitions) {}

  const ToolInfo& info() const override { return info_; }

  DetectionResult analyze(const Program& program, Flavor flavor) override {
    const ProgramFeatures f = scan_features(program);
    DetectionResult result;
    if (const auto gap = support_gap(f, flavor)) {
      result.mark_unsupported(*gap);
      return result;
    }
    for (std::size_t rep = 0; rep < repetitions_; ++rep) {
      ExecOptions opts;
      opts.num_threads = num_threads_;
      opts.seed = seed_ + rep * 7919;
      ExecResult exec;
      try {
        exec = execute(program, opts);
      } catch (const Error&) {
        // Crashing programs cannot be analysed dynamically.
        result.mark_unsupported(UnsupportedKind::ExecutionFault);
        return result;
      }
      auto races = analyze_trace(exec.trace, profile_);
      if (!races.empty()) {
        result.verdict = Verdict::Race;
        result.races = std::move(races);
        return result;
      }
    }
    result.verdict = Verdict::NoRace;
    return result;
  }

 protected:
  /// Returns the support gap that keeps the tool from processing the
  /// program, if any.
  virtual std::optional<UnsupportedKind> support_gap(
      const ProgramFeatures& f, Flavor flavor) const = 0;

 private:
  ToolInfo info_;
  HbOptions profile_;
  std::size_t num_threads_;
  std::uint64_t seed_;
  std::size_t repetitions_;
};

/// ThreadSanitizer simulation: exact FastTrack vector clocks (near-zero
/// false positives, like the 1 FP / 0 FP rows of Table 5). Support gap:
/// the Fortran+TSan toolchain cannot build offloading or simd-annotated
/// translation units (the paper's Fortran TSR is the lowest of the four
/// tools for the same reason).
class TsanDetector final : public DynamicDetector {
 public:
  TsanDetector(std::size_t num_threads, std::uint64_t seed,
               std::size_t repetitions)
      : DynamicDetector(
            ToolInfo{"ThreadSanitizer", "10.0.0", "Clang/LLVM 10.0.0",
                     "dynamic"},
            HbOptions{}, num_threads, seed, repetitions) {}

 protected:
  std::optional<UnsupportedKind> support_gap(
      const ProgramFeatures& f, Flavor flavor) const override {
    if (flavor == Flavor::Fortran && f.has_target) {
      return UnsupportedKind::FortranTargetInstrumentation;
    }
    if (flavor == Flavor::Fortran && f.has_simd) {
      return UnsupportedKind::FortranSimdMiscompile;
    }
    return std::nullopt;
  }
};

/// Intel Inspector simulation: happens-before with 2-element shadow
/// granularity (false sharing at chunk boundaries → false positives, the
/// tool's characteristic low specificity in Table 5) and barrier-blind
/// analysis. Support gap: cannot instrument device offload code.
class InspectorDetector final : public DynamicDetector {
 public:
  InspectorDetector(std::size_t num_threads, std::uint64_t seed)
      : DynamicDetector(
            ToolInfo{"Intel Inspector", "2021.1", "Intel Compiler 2021.3.0",
                     "dynamic"},
            HbOptions{.respect_barriers = false,
                      .respect_atomics = true,
                      .shadow_granularity = 2},
            num_threads, seed, /*repetitions=*/1) {}

 protected:
  std::optional<UnsupportedKind> support_gap(
      const ProgramFeatures& f, Flavor /*flavor*/) const override {
    if (f.has_target) return UnsupportedKind::DeviceCodeUnreachable;
    return std::nullopt;
  }
};

/// ROMP simulation: precise offset-span-label-style ordering for
/// structured fork-join (modelled by the exact happens-before engine) but
/// no atomic awareness — its OMPT callback coverage for atomic constructs
/// was incomplete, producing false positives on atomic-protected updates.
/// Support gap: no offloading, and its gfortran-7 toolchain rejects
/// simd-annotated Fortran.
class RompDetector final : public DynamicDetector {
 public:
  RompDetector(std::size_t num_threads, std::uint64_t seed)
      : DynamicDetector(
            ToolInfo{"ROMP", "20ac93c", "GCC/gfortran 7.4.0", "dynamic"},
            HbOptions{.respect_barriers = true,
                      .respect_atomics = false,
                      .shadow_granularity = 1},
            num_threads, seed, /*repetitions=*/1) {}

 protected:
  std::optional<UnsupportedKind> support_gap(
      const ProgramFeatures& f, Flavor flavor) const override {
    if (f.has_target) return UnsupportedKind::OmptOffloadTracing;
    if (flavor == Flavor::Fortran && f.has_simd) {
      return UnsupportedKind::FortranSimdToolchain;
    }
    return std::nullopt;
  }
};

// ==================================================== static detectors

/// Converts the error findings of an analysis report into race reports,
/// in report order (the first equals the original detector's single
/// verdict-bearing race).
void errors_to_races(const analysis::Report& report, DetectionResult& out) {
  for (const analysis::Diagnostic& d : report.diagnostics) {
    if (d.severity != analysis::Severity::Error) continue;
    RaceReport r;
    r.var = d.variable;
    r.detail = d.message;
    out.races.push_back(std::move(r));
  }
  if (!out.races.empty()) out.verdict = Verdict::Race;
}

/// LLOV simulation, now a thin shim over hpcgpt::analysis running in
/// compatibility scope: scoping + dependence passes only, loop-shaped
/// constructs only, no GCD/range refinement. Catches races hidden behind
/// runtime conditions (its recall advantage over dynamic tools) but stays
/// silent on non-affine subscripts (its main false-negative source) and
/// returns Unsupported for non-loop parallel regions, exactly like the
/// original single-pass implementation whose Table 5 verdicts it keeps.
class LlovDetector final : public Detector {
 public:
  LlovDetector() : info_{"LLOV", "N/A", "Clang/LLVM 6.0.1", "static"} {}

  const ToolInfo& info() const override { return info_; }

  DetectionResult analyze(const Program& program, Flavor flavor) override {
    (void)flavor;  // LLVM front-ends normalize both languages to IR
    const analysis::Report report =
        analysis::verify(program, analysis::Scope::Llov);
    DetectionResult result;
    errors_to_races(report, result);
    if (result.verdict == Verdict::Race) return result;
    if (!report.saw_parallel_loop && report.saw_parallel_region) {
      result.mark_unsupported(UnsupportedKind::NonLoopParallelism);
      return result;
    }
    result.verdict = Verdict::NoRace;
    return result;
  }

 private:
  ToolInfo info_;
};

/// The full verifier: all three passes, deep traversal, GCD + range
/// refinement. Never Unsupported — parallel regions are verified by the
/// MHP pass instead of being declined.
class StaticVerifierDetector final : public Detector {
 public:
  StaticVerifierDetector()
      : info_{"hpcgpt-verifier", "0.1", "hpcgpt::analysis", "static"} {}

  const ToolInfo& info() const override { return info_; }

  DetectionResult analyze(const Program& program, Flavor flavor) override {
    (void)flavor;  // pure AST analysis, language-independent
    const analysis::Report report = analysis::verify(program);
    DetectionResult result;
    errors_to_races(report, result);
    if (result.verdict != Verdict::Race) result.verdict = Verdict::NoRace;
    return result;
  }

 private:
  ToolInfo info_;
};

}  // namespace

std::unique_ptr<Detector> make_tsan(std::size_t num_threads,
                                    std::uint64_t seed,
                                    std::size_t repetitions) {
  return std::make_unique<TsanDetector>(num_threads, seed, repetitions);
}

std::unique_ptr<Detector> make_inspector(std::size_t num_threads,
                                         std::uint64_t seed) {
  return std::make_unique<InspectorDetector>(num_threads, seed);
}

std::unique_ptr<Detector> make_romp(std::size_t num_threads,
                                    std::uint64_t seed) {
  return std::make_unique<RompDetector>(num_threads, seed);
}

std::unique_ptr<Detector> make_llov() {
  return std::make_unique<LlovDetector>();
}

std::unique_ptr<Detector> make_static_verifier() {
  return std::make_unique<StaticVerifierDetector>();
}

std::vector<std::unique_ptr<Detector>> make_all_tools() {
  std::vector<std::unique_ptr<Detector>> out;
  out.push_back(make_llov());
  out.push_back(make_inspector());
  out.push_back(make_romp());
  out.push_back(make_tsan());
  return out;
}

}  // namespace hpcgpt::race
