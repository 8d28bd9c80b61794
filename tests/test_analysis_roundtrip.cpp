#include <gtest/gtest.h>

#include <string>

#include "hpcgpt/analysis/verifier.hpp"
#include "hpcgpt/drb/drb.hpp"
#include "hpcgpt/minilang/ast.hpp"
#include "hpcgpt/minilang/parse.hpp"
#include "hpcgpt/minilang/render.hpp"
#include "hpcgpt/support/rng.hpp"

namespace hpcgpt::analysis {
namespace {

using minilang::Flavor;

// The analyzer runs on ASTs, but consumers of the lint CLI hand it source
// text. These tests pin the contract that rendering a generated program
// and parsing it back yields the *same analyzer verdicts* — parse/render
// round-trips must not create or destroy findings.

struct CaseParam {
  int category;  // index into drb::all_categories()
  int flavor;    // 0 = C, 1 = Fortran
};

class VerdictRoundTrip : public ::testing::TestWithParam<CaseParam> {};

TEST_P(VerdictRoundTrip, ParsedSourceReproducesVerdicts) {
  const drb::Category cat = drb::all_categories()[GetParam().category];
  const Flavor flavor =
      GetParam().flavor == 0 ? Flavor::C : Flavor::Fortran;
  for (const std::uint64_t seed : {2023ull, 7ull}) {
    Rng rng(seed);
    const drb::TestCase tc = drb::generate_case(cat, flavor, rng);
    minilang::Program parsed;
    ASSERT_NO_THROW(parsed = minilang::parse_any(tc.source)) << tc.source;

    // Full verifier: identical verdict, summary and leading finding.
    const Report direct = verify(tc.program);
    const Report reparsed = verify(parsed);
    EXPECT_EQ(direct.has_errors(), reparsed.has_errors()) << tc.source;
    EXPECT_EQ(direct.summary(), reparsed.summary()) << tc.source;
    ASSERT_EQ(direct.first_error() != nullptr,
              reparsed.first_error() != nullptr);
    if (direct.first_error() != nullptr) {
      EXPECT_EQ(direct.first_error()->variable,
                reparsed.first_error()->variable);
      EXPECT_EQ(direct.first_error()->message,
                reparsed.first_error()->message);
    }

    // Compat mode too — the LLOV delegation must see the same programs.
    const Report c_direct = verify(tc.program, Scope::Llov);
    const Report c_reparsed = verify(parsed, Scope::Llov);
    EXPECT_EQ(c_direct.has_errors(), c_reparsed.has_errors()) << tc.source;
    EXPECT_EQ(c_direct.summary(), c_reparsed.summary()) << tc.source;
  }
}

std::string param_name(const ::testing::TestParamInfo<CaseParam>& info) {
  const drb::Category cat = drb::all_categories()[info.param.category];
  std::string name = drb::category_name(cat);
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name + (info.param.flavor == 0 ? "_C" : "_F");
}

std::vector<CaseParam> all_params() {
  std::vector<CaseParam> out;
  for (int c = 0; c < static_cast<int>(drb::kCategoryCount); ++c) {
    out.push_back({c, 0});
    out.push_back({c, 1});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllCategories, VerdictRoundTrip,
                         ::testing::ValuesIn(all_params()), param_name);

}  // namespace
}  // namespace hpcgpt::analysis
