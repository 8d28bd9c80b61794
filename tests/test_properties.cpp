// Property-based sweeps over the whole generator space: invariants that
// must hold for every category, language, seed and team size.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <string>

#include "hpcgpt/drb/drb.hpp"
#include "hpcgpt/minilang/parse.hpp"
#include "hpcgpt/minilang/render.hpp"
#include "hpcgpt/race/detector.hpp"
#include "hpcgpt/race/hb.hpp"
#include "hpcgpt/race/interp.hpp"

namespace hpcgpt::drb {
namespace {

using minilang::Flavor;

/// One (category, flavour) case of the generator space.
struct CaseParam {
  int category;
  int flavor;  // 0 = C, 1 = Fortran
};

Category category_of(const CaseParam& p) {
  return all_categories()[static_cast<std::size_t>(p.category)];
}

Flavor flavor_of(const CaseParam& p) {
  return p.flavor == 0 ? Flavor::C : Flavor::Fortran;
}

/// Race-free programs are deterministic: the final memory state must be
/// identical under every schedule and team size. (Racy programs may or
/// may not vary — no assertion there.)
void race_free_programs_are_schedule_invariant(const CaseParam& p) {
  Rng rng(500 + p.category);
  for (int rep = 0; rep < 4; ++rep) {
    const TestCase tc = generate_case(category_of(p), flavor_of(p), rng);
    race::ExecResult reference;
    bool first = true;
    for (const std::size_t threads : {2u, 4u, 7u}) {
      for (const std::uint64_t seed : {1ull, 99ull}) {
        const race::ExecResult r = race::execute(
            tc.program, {.num_threads = threads, .seed = seed});
        if (first) {
          reference = std::move(r);
          first = false;
          continue;
        }
        EXPECT_EQ(r.scalars, reference.scalars) << tc.source;
        EXPECT_EQ(r.arrays, reference.arrays) << tc.source;
      }
    }
  }
}

/// The exact happens-before engine never reports a race on a race-free
/// program, for any tested schedule or team size (soundness of labels
/// against the reference analysis).
void exact_hb_never_flags_race_free(const CaseParam& p) {
  Rng rng(900 + p.category * 3 + p.flavor);
  for (std::uint64_t rep = 0; rep < 4; ++rep) {
    const TestCase tc = generate_case(category_of(p), flavor_of(p), rng);
    for (const std::size_t threads : {2u, 5u}) {
      const race::ExecResult r = race::execute(
          tc.program, {.num_threads = threads, .seed = 7 + rep});
      EXPECT_TRUE(race::analyze_trace(r.trace).empty()) << tc.source;
    }
  }
}

/// Every C-flavoured rendering parses back, and re-rendering the parse is
/// a fixed point (parser/renderer agree on the whole generator space).
void c_render_parse_fixed_point(const CaseParam& p) {
  Rng rng(1300 + p.category);
  for (int rep = 0; rep < 6; ++rep) {
    const TestCase tc = generate_case(category_of(p), Flavor::C, rng);
    minilang::Program parsed;
    ASSERT_NO_THROW(parsed = minilang::parse_c(tc.source)) << tc.source;
    const std::string once = minilang::render(parsed, Flavor::C);
    const std::string twice =
        minilang::render(minilang::parse_c(once), Flavor::C);
    EXPECT_EQ(once, twice) << tc.source;
  }
}

/// Rendered sources always carry the construct their category names:
/// SIMD categories render simd directives, accelerator categories render
/// target directives, and the Fortran flavour uses sentinels.
void surface_syntax_matches_category(const CaseParam& p) {
  const Category category = category_of(p);
  Rng rng(1700 + p.category);
  for (int rep = 0; rep < 4; ++rep) {
    const TestCase tc = generate_case(category, flavor_of(p), rng);
    const bool fortran = flavor_of(p) == Flavor::Fortran;
    EXPECT_NE(tc.source.find(fortran ? "!$omp" : "#pragma omp"),
              std::string::npos)
        << tc.source;
    if (category == Category::SimdDataRaces ||
        category == Category::UseOfSimdDirectives) {
      EXPECT_NE(tc.source.find("simd"), std::string::npos) << tc.source;
    }
    if (category == Category::AcceleratorDataRaces ||
        category == Category::UseOfAcceleratorDirectives) {
      EXPECT_NE(tc.source.find("target teams distribute"),
                std::string::npos)
          << tc.source;
    }
  }
}

/// The interpreter never throws on generated programs (no OOB, no div0):
/// generators only emit well-formed inputs.
void generated_programs_execute_cleanly(const CaseParam& p) {
  Rng rng(2100 + p.category * 7 + p.flavor);
  for (int rep = 0; rep < 6; ++rep) {
    const TestCase tc = generate_case(category_of(p), flavor_of(p), rng);
    EXPECT_NO_THROW(race::execute(tc.program,
                                  {.num_threads = 3, .seed = 11}))
        << tc.source;
  }
}

bool every_case(const CaseParam&) { return true; }
bool race_free_case(const CaseParam& p) {
  return !category_has_race(category_of(p));
}
bool c_case(const CaseParam& p) { return p.flavor == 0; }

/// One sweep: a property body and the cases it applies to.
struct Sweep {
  const char* name;
  void (*body)(const CaseParam&);
  bool (*applies)(const CaseParam&);
};

const Sweep kSweeps[] = {
    {"RaceFreeProgramsAreScheduleInvariant",
     race_free_programs_are_schedule_invariant, race_free_case},
    {"ExactHbNeverFlagsRaceFree", exact_hb_never_flags_race_free,
     race_free_case},
    {"CRenderParseFixedPoint", c_render_parse_fixed_point, c_case},
    {"SurfaceSyntaxMatchesCategory", surface_syntax_matches_category,
     every_case},
    {"GeneratedProgramsExecuteCleanly", generated_programs_execute_cleanly,
     every_case},
};

std::string case_name(const CaseParam& p) {
  std::string name = category_name(category_of(p));
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name + (p.flavor == 0 ? "_C" : "_F");
}

/// Runs one sweep body on one case.
class EveryCategory : public ::testing::Test {
 public:
  EveryCategory(void (*body)(const CaseParam&), CaseParam param)
      : body_(body), param_(param) {}
  void TestBody() override { body_(param_); }

 private:
  void (*body_)(const CaseParam&);
  CaseParam param_;
};

// Registered programmatically instead of through TEST_P: one
// INSTANTIATE_TEST_SUITE_P gives every TEST_P of a fixture the same
// cases, while each sweep here runs only the 14 categories × 2 flavours
// cases it applies to. Names and printed parameters are the ones
// INSTANTIATE_TEST_SUITE_P(Sweep, EveryCategory, ...) produces:
// Sweep/EveryCategory.<sweep>/<case>.
[[maybe_unused]] const bool kSweepsRegistered = [] {
  for (const Sweep& sweep : kSweeps) {
    for (int c = 0; c < 14; ++c) {
      for (int f = 0; f < 2; ++f) {
        const CaseParam p{c, f};
        if (!sweep.applies(p)) continue;
        const std::string test_name = std::string(sweep.name) + "/" +
                                      case_name(p);
        ::testing::RegisterTest(
            "Sweep/EveryCategory", test_name.c_str(), nullptr,
            ::testing::PrintToString(p).c_str(), __FILE__, __LINE__,
            [body = sweep.body, p]() -> EveryCategory* {
              return new EveryCategory(body, p);
            });
      }
    }
  }
  return true;
}();

/// Dynamic-tool agreement: on cases where the exact engine sees a race,
/// ThreadSanitizer-sim (same engine + support gates) must agree whenever
/// it supports the case.
TEST(CrossTool, TsanAgreesWithExactEngineWhenSupported) {
  auto tsan = race::make_tsan();
  Rng rng(31337);
  for (const Category c : all_categories()) {
    const TestCase tc = generate_case(c, Flavor::C, rng);
    const race::ExecResult r =
        race::execute(tc.program, {.num_threads = 4, .seed = 1});
    const bool exact_races = !race::analyze_trace(r.trace).empty();
    const auto verdict = tsan->analyze(tc.program, Flavor::C);
    if (verdict.verdict == race::Verdict::Unsupported) continue;
    if (exact_races) {
      EXPECT_EQ(verdict.verdict, race::Verdict::Race) << tc.source;
    }
  }
}

/// TSR monotonicity: a detector's unsupported count never decreases when
/// the suite is extended.
TEST(CrossTool, UnsupportedCountsAreAdditive) {
  auto romp = race::make_romp();
  SuiteSpec small;
  small.per_racy_category = 1;
  small.per_free_category = 1;
  small.seed = 5;
  SuiteSpec large = small;
  large.per_racy_category = 3;
  large.per_free_category = 3;

  const auto count_unsupported = [&](const SuiteSpec& spec) {
    std::size_t n = 0;
    for (const TestCase& tc : generate_suite(Flavor::Fortran, spec)) {
      if (romp->analyze(tc.program, tc.flavor).verdict ==
          race::Verdict::Unsupported) {
        ++n;
      }
    }
    return n;
  };
  EXPECT_LE(count_unsupported(small), count_unsupported(large));
}

}  // namespace
}  // namespace hpcgpt::drb
