// The mini-language front end's contract: every renderer output parses to
// the AST it always parsed to (a pinned digest), every malformed source is
// a ParseError (pinned regressions plus a seeded mutation fuzzer), and any
// program that parses renders to both surfaces and parses back to the same
// canonical fingerprint.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "hpcgpt/analysis/verifier.hpp"
#include "hpcgpt/drb/drb.hpp"
#include "hpcgpt/minilang/fingerprint.hpp"
#include "hpcgpt/minilang/parse.hpp"
#include "hpcgpt/minilang/render.hpp"
#include "hpcgpt/race/detector.hpp"
#include "hpcgpt/support/error.hpp"
#include "hpcgpt/support/hash.hpp"
#include "hpcgpt/support/rng.hpp"

namespace hpcgpt::minilang {
namespace {

// ------------------------------------------------------------ pinned ASTs

/// Folds parse_c/parse_f, parse_any and canonical fingerprints of every
/// renderer output the system parses: DRB cases of every category in both
/// surfaces (whole units and snippets), the same cases with one inserted
/// top-level assignment (the CI edit shape), and both evaluation suites.
std::uint64_t renderer_output_digest() {
  Fnv1aHasher h;
  const auto fold = [&h](const std::string& source, Flavor flavor) {
    const Program p =
        flavor == Flavor::C ? parse_c(source) : parse_f(source);
    h.u64(fingerprint(p));
    h.u64(fingerprint(parse_any(source)));
    h.u64(canonical_fingerprint(p));
  };
  Rng rng(2027);
  for (const Flavor flavor : {Flavor::C, Flavor::Fortran}) {
    for (const drb::Category category : drb::all_categories()) {
      for (int k = 0; k < 4; ++k) {
        const drb::TestCase tc = drb::generate_case(category, flavor, rng);
        fold(tc.source, flavor);
        fold(render_snippet(tc.program, flavor), flavor);
        Program edited = tc.program.clone();
        edited.decls.push_back({"ci_edit", false, 0, 0});
        const std::size_t at = rng.next_below(edited.body.size() + 1);
        const auto stamp = static_cast<std::int64_t>(rng.next_below(1000000));
        edited.body.insert(
            edited.body.begin() + static_cast<std::ptrdiff_t>(at),
            assign(scalar_ref("ci_edit"), int_lit(stamp)));
        fold(render(edited, flavor), flavor);
      }
    }
    for (const drb::TestCase& tc : drb::evaluation_suite(flavor)) {
      fold(tc.source, flavor);
    }
  }
  return h.value();
}

TEST(FrontEnd, RendererOutputsParseToTheParentsAsts) {
  // Computed with the two separate C and Fortran parsers this front end
  // replaced; any AST change on renderer output moves it.
  EXPECT_EQ(renderer_output_digest(), 0x52b4cf1f94d007ddull);
}

TEST(FrontEnd, SurfaceOfEveryRenderingIsItsFlavor) {
  Rng rng(77);
  for (const Flavor flavor : {Flavor::C, Flavor::Fortran}) {
    for (const drb::Category category : drb::all_categories()) {
      const drb::TestCase tc = drb::generate_case(category, flavor, rng);
      EXPECT_EQ(surface_of(tc.source), flavor) << tc.source;
      EXPECT_EQ(surface_of(render_snippet(tc.program, flavor)), flavor);
    }
  }
}

// ------------------------------------------------------------ regressions

const char* kSingleCountC = R"(int a[64];
int single_count = 0;
int main() {
  int i;
  #pragma omp parallel for shared(single_count)
  for (i = 0; i < 63; i++) {
    a[i] = a[(i + 1)];
  }
  return 0;
}
)";

const char* kEndpointF = R"(program p
  integer :: a(64)
  integer :: endpoint = 0
  integer :: i
!$omp parallel do shared(endpoint)
  do i = 0 + 1, 63
    a(i) = a((i + 1))
  end do
!$omp end parallel do
end program
)";

std::string replace(std::string text, const std::string& from,
                    const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

/// Verdicts of the four tools and the full-scope verifier.
std::vector<bool> race_verdicts(const Program& program, Flavor flavor) {
  std::vector<bool> races;
  for (const auto& tool : race::make_all_tools()) {
    races.push_back(tool->analyze(program, flavor).verdict ==
                    race::Verdict::Race);
  }
  races.push_back(analysis::verify(program).has_errors());
  return races;
}

TEST(FrontEndRegression, ClauseArgumentsAreNotConstructs) {
  // `shared(single_count)` once made the loop a `single` block, and every
  // tool (and the lint) called the racy loop clean.
  const std::vector<bool> all_race(5, true);
  for (const char* name : {"count", "single_count"}) {
    const Program c = parse_c(replace(kSingleCountC, "single_count", name));
    ASSERT_EQ(c.body.size(), 1u);
    EXPECT_EQ(c.body[0].kind, Stmt::Kind::ParallelFor);
    EXPECT_EQ(c.body[0].clauses.shared, std::vector<std::string>{name});
    EXPECT_EQ(race_verdicts(c, Flavor::C), all_race) << name;
  }
  // Names that contain `end`, `single` or `format` are arguments too.
  for (const char* name : {"endpoint", "single_count"}) {
    const Program f = parse_f(replace(kEndpointF, "endpoint", name));
    ASSERT_EQ(f.body.size(), 1u);
    EXPECT_EQ(f.body[0].kind, Stmt::Kind::ParallelFor);
    EXPECT_EQ(f.body[0].clauses.shared, std::vector<std::string>{name});
    EXPECT_EQ(race_verdicts(f, Flavor::Fortran), all_race) << name;
  }
  const Program region = parse_c(
      "int format = 0;\nint main() {\n  #pragma omp parallel shared(format)\n"
      "  {\n    format = 1;\n  }\n  return 0;\n}\n");
  EXPECT_EQ(region.body[0].kind, Stmt::Kind::ParallelRegion);
  EXPECT_EQ(region.body[0].clauses.shared,
            std::vector<std::string>{"format"});
}

TEST(FrontEndRegression, NumbersAreIntegerLiteralsInRange) {
  EXPECT_THROW(parse_c("int x = 0;\nint main() {\n  #pragma omp parallel "
                       "num_threads(x)\n  {\n    x = 1;\n  }\n}\n"),
               ParseError);
  EXPECT_THROW(parse_f("!$omp parallel num_threads(x)\n  x = 1\n"
                       "!$omp end parallel\n"),
               ParseError);
  EXPECT_THROW(parse_f("program p\n  integer :: a(x)\nend program\n"),
               ParseError);
  EXPECT_THROW(parse_f("program p\n  integer :: x = 5 + 3\nend program\n"),
               ParseError);
  EXPECT_THROW(parse_c("int a[10];\nint main() {\n  int i;\n  for (i = 0; i < "
                       "99999999999999999999; i++) {\n    a[i] = 1;\n  }\n}"),
               ParseError);
  EXPECT_THROW(parse_f("x = 9223372036854775808\n"), ParseError);
  EXPECT_EQ(parse_f("x = 9223372036854775807\n").body[0].value->value,
            INT64_MAX);
  EXPECT_EQ(parse_c("x = 9223372036854775807;").body[0].value->value,
            INT64_MAX);
}

std::string repeat(const std::string& s, std::size_t n) {
  std::string out;
  out.reserve(s.size() * n);
  for (std::size_t i = 0; i < n; ++i) out += s;
  return out;
}

TEST(FrontEndRegression, NestingIsBounded) {
  // 200,000 parentheses used to overflow the stack in either surface.
  const std::string parens = repeat("(", 200000) + "1" + repeat(")", 200000);
  EXPECT_THROW(parse_c("int main() {\n  x = " + parens + ";\n}\n"),
               ParseError);
  EXPECT_THROW(parse_f("program p\n  x = " + parens + "\nend program\n"),
               ParseError);
  // A flat chain builds an AST as deep as it is long.
  EXPECT_THROW(parse_c("x = 1" + repeat(" + 1", 200000) + ";"), ParseError);
  EXPECT_THROW(parse_f("x = mod(" + repeat("mod(", 5000) + "1, 2" +
                       repeat(", 2)", 5000) + ", 2)\n"),
               ParseError);
  EXPECT_THROW(parse_c(repeat("if (1) {\n", 5000) + "x = 1;\n" +
                       repeat("}\n", 5000)),
               ParseError);
  EXPECT_THROW(parse_f(repeat("if 1 then\n", 5000) + "x = 1\n" +
                       repeat("end if\n", 5000)),
               ParseError);
  // Within the bound both surfaces parse, and the rendering parses back.
  const std::size_t n = kMaxNesting / 3;
  const Program p = parse_c(repeat("if (1) {\n", n) + "x = " +
                            repeat("(1 + ", n) + "1" + repeat(")", n) + ";\n" +
                            repeat("}\n", n));
  EXPECT_EQ(canonical_fingerprint(parse_f(render(p, Flavor::Fortran))),
            canonical_fingerprint(p));
}

TEST(FrontEndRegression, CommentsDoNotPickTheSurface) {
  const std::string c_unit =
      "// sample program for the CI bot\nint a[8];\nint main() {\n  int i;\n"
      "  #pragma omp parallel for\n  for (i = 0; i < 8; i++) {\n"
      "    a[i] = i;\n  }\n  return 0;\n}\n";
  EXPECT_EQ(surface_of(c_unit), Flavor::C);
  EXPECT_EQ(parse_any(c_unit).body[0].kind, Stmt::Kind::ParallelFor);
  // `/* end do */` and `program` inside identifiers do not count either.
  EXPECT_EQ(surface_of("/* end do */ myprogram = 1;"), Flavor::C);
  // A `!` comment, `!$omp` or a Fortran keyword does.
  EXPECT_EQ(surface_of("! a note\nx = 1\n"), Flavor::Fortran);
  EXPECT_EQ(surface_of("!$omp barrier\n"), Flavor::Fortran);
  EXPECT_EQ(surface_of("integer :: x\n"), Flavor::Fortran);
}

TEST(FrontEndRegression, KeywordsOfEitherSurfaceAreNotNames) {
  // A Fortran variable named `for` parsed, but its C rendering (the
  // service's normal form) did not.
  EXPECT_THROW(parse_f("program p\n  integer :: for = 0\n  for = 1\n"
                       "end program\n"),
               ParseError);
  for (const char* word :
       {"int", "main", "return", "for", "if", "program", "integer", "use",
        "implicit", "do", "end", "then", "mod", "omp_get_thread_num"}) {
    const std::string w = word;
    EXPECT_THROW(parse_c("int " + w + " = 0;"), ParseError) << w;
    EXPECT_THROW(parse_c("x = " + w + ";"), ParseError) << w;
    EXPECT_THROW(parse_c("for (" + w + " = 0; " + w + " < 4; " + w +
                         "++) { x = 1; }"),
                 ParseError)
        << w;
    EXPECT_THROW(parse_f("integer :: " + w + "\n"), ParseError) << w;
    EXPECT_THROW(parse_f("x = " + w + "\n"), ParseError) << w;
    EXPECT_THROW(parse_f("!$omp parallel private(" + w + ")\n  x = 1\n"
                         "!$omp end parallel\n"),
                 ParseError)
        << w;
  }
}

TEST(FrontEndRegression, ReductionOperatorIsRequiredInBothSurfaces) {
  EXPECT_THROW(parse_c("#pragma omp parallel for reduction(:s)\n"
                       "for (i = 0; i < 4; i++) { s = s + i; }"),
               ParseError);
  EXPECT_THROW(parse_f("!$omp parallel do reduction(:s)\ndo i = 0 + 1, 4\n"
                       "  s = s + i\nend do\n"),
               ParseError);
  const Program p = parse_c(
      "#pragma omp parallel for reduction(max:m) reduction(*:b)\n"
      "for (i = 0; i < 4; i++) { m = i; }");
  const auto& r = p.body[0].clauses.reductions;
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].op, 'm');
  EXPECT_EQ(r[1].op, '*');
  EXPECT_EQ(r[1].var, "b");
}

TEST(FrontEndRegression, FortranEndDirectivesMatchTheirConstruct) {
  // An `!$omp do` inside a region: the region's end is not the loop's.
  const Program p = parse_f(
      "!$omp parallel\n!$omp do\ndo i = 0 + 1, 4\n  a(i) = 1\nend do\n"
      "!$omp end parallel\n");
  ASSERT_EQ(p.body.size(), 1u);
  EXPECT_EQ(p.body[0].kind, Stmt::Kind::ParallelRegion);
  EXPECT_EQ(p.body[0].body[0].kind, Stmt::Kind::ParallelFor);
  EXPECT_THROW(parse_f("!$omp critical\n  x = 1\n!$omp end single\n"),
               ParseError);
}

// ----------------------------------------------------------------- fuzzer

/// Runs `parse`; an input it rejects must be rejected with ParseError.
std::optional<Program> try_parse(Program (*parse)(std::string_view),
                                 const std::string& source) {
  try {
    return parse(source);
  } catch (const ParseError&) {
    return std::nullopt;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-ParseError exception: " << e.what() << "\non:\n"
                  << source;
    return std::nullopt;
  }
}

/// The contract for one input: each entry point returns a program or
/// throws ParseError, and every program it returns renders to both
/// surfaces, each rendering parses back, and all three share one
/// canonical fingerprint.
void check_contract(const std::string& source) {
  for (Program (*parse)(std::string_view) : {&parse_c, &parse_f, &parse_any}) {
    const std::optional<Program> p = try_parse(parse, source);
    if (!p) continue;
    try {
      const std::uint64_t want = canonical_fingerprint(*p);
      const std::string c = render(*p, Flavor::C);
      const std::string f = render(*p, Flavor::Fortran);
      EXPECT_EQ(canonical_fingerprint(parse_c(c)), want)
          << source << "\n-- C:\n" << c;
      EXPECT_EQ(canonical_fingerprint(parse_f(f)), want)
          << source << "\n-- Fortran:\n" << f;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "rendering does not parse back: " << e.what()
                    << "\non:\n" << source;
    }
  }
}

std::vector<std::string> fuzz_seeds() {
  std::vector<std::string> seeds;
  Rng rng(5150);
  for (const Flavor flavor : {Flavor::C, Flavor::Fortran}) {
    for (const drb::Category category : drb::all_categories()) {
      seeds.push_back(drb::generate_case(category, flavor, rng).source);
    }
  }
  std::ifstream in(HPCGPT_TEST_DATA_DIR "/lint_sample.c");
  std::ostringstream sample;
  sample << in.rdbuf();
  seeds.push_back(sample.str());
  EXPECT_FALSE(seeds.back().empty());
  return seeds;
}

/// Source split into identifier/number runs, whitespace runs and single
/// other bytes: the unit of the token mutations.
std::vector<std::string> rough_tokens(const std::string& s) {
  std::vector<std::string> out;
  const auto cls = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ? 0
           : std::isspace(static_cast<unsigned char>(c))          ? 1
                                                                 : 2;
  };
  for (std::size_t i = 0; i < s.size();) {
    std::size_t j = i + 1;
    while (cls(s[i]) != 2 && j < s.size() && cls(s[j]) == cls(s[i])) ++j;
    out.push_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) out += p;
  return out;
}

std::string mutate(std::string s, const std::vector<std::string>& seeds,
                   Rng& rng) {
  static const std::string kBytes =
      "()[]{};,:=+-*/%<>!#$&\n \t0123456789aeiodnxyz_";
  const auto at = [&](const std::string& t) {
    return static_cast<std::size_t>(rng.next_below(t.size() + 1));
  };
  switch (rng.next_below(7)) {
    case 0: {  // byte flips
      for (std::uint64_t k = rng.next_below(4) + 1; k > 0 && !s.empty(); --k) {
        s[rng.next_below(s.size())] =
            rng.next_bool() ? kBytes[rng.next_below(kBytes.size())]
                            : static_cast<char>(rng.next_below(256));
      }
      return s;
    }
    case 1:
    case 2: {  // token deletion / duplication
      std::vector<std::string> t = rough_tokens(s);
      if (t.empty()) return s;
      const std::size_t i = rng.next_below(t.size());
      if (rng.next_bool()) {
        t.erase(t.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        t.insert(t.begin() + static_cast<std::ptrdiff_t>(i), t[i]);
      }
      return join(t);
    }
    case 3: {  // splice with another seed
      const std::string& other = seeds[rng.next_below(seeds.size())];
      return s.substr(0, at(s)) + other.substr(at(other));
    }
    case 4: {  // digit-run growth
      const std::size_t digit = s.find_first_of("0123456789", at(s));
      if (digit == std::string::npos) return s;
      std::string run;
      for (std::uint64_t k = rng.next_below(24) + 1; k > 0; --k) {
        run += static_cast<char>('0' + rng.next_below(10));
      }
      return s.insert(digit, run);
    }
    default: {  // nesting bombs around a number, or of statements
      static const std::size_t kDepths[] = {8, kMaxNesting - 4, kMaxNesting + 4,
                                            5000};
      const std::size_t n = kDepths[rng.next_below(4)];
      const std::size_t digit = s.find_first_of("0123456789", at(s));
      if (rng.next_bool() && digit != std::string::npos) {
        const char* open[] = {"(", "-", "(1 + ", "mod(1, "};
        const char* close[] = {")", "", ")", ")"};
        const std::size_t kind = rng.next_below(4);
        s.insert(digit + 1, repeat(close[kind], n));
        return s.insert(digit, repeat(open[kind], n));
      }
      const bool fortran = rng.next_bool();
      const std::size_t i = at(s);
      return s.substr(0, i) +
             repeat(fortran ? "\nif 1 then\n" : "\nif (1) {\n", n) +
             "x = 1" + (fortran ? "\n" : ";\n") +
             repeat(fortran ? "end if\n" : "}\n", n) + s.substr(i);
    }
  }
}

class FrontEndFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FrontEndFuzz, EveryInputParsesOrIsAParseError) {
  const std::vector<std::string> seeds = fuzz_seeds();
  for (const std::string& seed : seeds) check_contract(seed);
  Rng rng(8191u * static_cast<unsigned>(GetParam()) + 29);
  for (int rep = 0; rep < 600; ++rep) {
    std::string input = seeds[rng.next_below(seeds.size())];
    for (std::uint64_t k = rng.next_below(3) + 1; k > 0; --k) {
      input = mutate(std::move(input), seeds, rng);
    }
    check_contract(input);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrontEndFuzz, ::testing::Range(0, 4));

}  // namespace
}  // namespace hpcgpt::minilang
