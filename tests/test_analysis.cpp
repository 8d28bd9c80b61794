#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "hpcgpt/analysis/access.hpp"
#include "hpcgpt/analysis/affine.hpp"
#include "hpcgpt/analysis/mhp.hpp"
#include "hpcgpt/analysis/stmt_index.hpp"
#include "hpcgpt/analysis/verifier.hpp"
#include "hpcgpt/drb/drb.hpp"
#include "hpcgpt/minilang/ast.hpp"
#include "hpcgpt/minilang/parse.hpp"
#include "hpcgpt/minilang/render.hpp"
#include "hpcgpt/race/detector.hpp"
#include "hpcgpt/support/rng.hpp"

namespace hpcgpt::analysis {
namespace {

using namespace hpcgpt::minilang;

// ------------------------------------------------------- fixture programs
// These mirror the test_race.cpp fixtures so the delegation tests below
// exercise the same programs through both the old and the new interface.

Program vector_add() {  // race-free: independent elements
  Program p;
  p.name = "vector-add";
  p.decls.push_back({"a", true, 64, 1});
  p.decls.push_back({"b", true, 64, 2});
  p.decls.push_back({"c", true, 64, 0});
  std::vector<Stmt> body;
  body.push_back(assign(array_ref("c", scalar_ref("i")),
                        bin_op('+', array_ref("a", scalar_ref("i")),
                               array_ref("b", scalar_ref("i")))));
  p.body.push_back(
      parallel_for("i", int_lit(0), int_lit(64), std::move(body)));
  return p;
}

Program loop_carried() {  // racy: a[i] depends on a[i-1]
  Program p;
  p.name = "loop-carried";
  p.decls.push_back({"a", true, 64, 1});
  std::vector<Stmt> body;
  body.push_back(assign(
      array_ref("a", scalar_ref("i")),
      bin_op('+', array_ref("a", bin_op('-', scalar_ref("i"), int_lit(1))),
             int_lit(1))));
  p.body.push_back(
      parallel_for("i", int_lit(1), int_lit(64), std::move(body)));
  return p;
}

Program shared_tmp(bool with_private) {
  Program p;
  p.name = with_private ? "private-tmp" : "shared-tmp";
  p.decls.push_back({"a", true, 64, 0});
  p.decls.push_back({"b", true, 64, 0});
  p.decls.push_back({"tmp", false, 0, 0});
  std::vector<Stmt> init;
  init.push_back(assign(array_ref("a", scalar_ref("i")), scalar_ref("i")));
  p.body.push_back(seq_for("i", int_lit(0), int_lit(64), std::move(init)));
  Clauses c;
  if (with_private) c.priv = {"tmp"};
  std::vector<Stmt> body;
  body.push_back(assign(scalar_ref("tmp"),
                        bin_op('*', array_ref("a", scalar_ref("i")),
                               int_lit(2))));
  body.push_back(assign(array_ref("b", scalar_ref("i")), scalar_ref("tmp")));
  p.body.push_back(parallel_for("i", int_lit(0), int_lit(64),
                                std::move(body), c));
  return p;
}

Program barrier_region(bool with_barrier) {
  // Each thread writes a[tid]; then reads a[tid+1]. Race-free only with
  // the barrier between the phases.
  Program p;
  p.name = with_barrier ? "barrier-ok" : "barrier-missing";
  p.decls.push_back({"a", true, 8, 0});
  p.decls.push_back({"b", true, 8, 0});
  Clauses c;
  c.num_threads = 4;
  std::vector<Stmt> body;
  body.push_back(assign(array_ref("a", thread_id()), thread_id()));
  if (with_barrier) body.push_back(barrier());
  body.push_back(assign(
      array_ref("b", thread_id()),
      array_ref("a", bin_op('+', thread_id(), int_lit(1)))));
  p.body.push_back(parallel_region(std::move(body), c));
  return p;
}

Program master_region() {
  // Only the master thread writes; race-free by single-thread execution.
  Program p;
  p.name = "master-does-work";
  p.decls.push_back({"a", true, 8, 0});
  Clauses c;
  c.num_threads = 4;
  std::vector<Stmt> inner;
  inner.push_back(assign(array_ref("a", int_lit(0)), int_lit(7)));
  std::vector<Stmt> body;
  body.push_back(master(std::move(inner)));
  p.body.push_back(parallel_region(std::move(body), c));
  return p;
}

Program halves_copy() {
  // for i in [0,32): a[i+32] = a[i]. Reads and writes touch disjoint
  // halves; only the range test can prove that.
  Program p;
  p.name = "halves-copy";
  p.decls.push_back({"a", true, 64, 1});
  std::vector<Stmt> body;
  body.push_back(assign(
      array_ref("a", bin_op('+', scalar_ref("i"), int_lit(32))),
      array_ref("a", scalar_ref("i"))));
  p.body.push_back(
      parallel_for("i", int_lit(0), int_lit(32), std::move(body)));
  return p;
}

Program gcd_disjoint() {
  // write a[2*i], read a[4*i+1]: even vs odd indices never meet, which the
  // GCD test proves (gcd(2,4)=2 does not divide 1).
  Program p;
  p.name = "gcd-disjoint";
  p.decls.push_back({"a", true, 64, 1});
  std::vector<Stmt> body;
  body.push_back(assign(
      array_ref("a", bin_op('*', int_lit(2), scalar_ref("i"))),
      array_ref("a", bin_op('+', bin_op('*', int_lit(4), scalar_ref("i")),
                            int_lit(1)))));
  p.body.push_back(
      parallel_for("i", int_lit(0), int_lit(16), std::move(body)));
  return p;
}

Program region_only() {
  Program p;
  p.name = "region-only";
  p.decls.push_back({"x", false, 0, 0});
  std::vector<Stmt> body;
  body.push_back(assign(scalar_ref("x"), int_lit(1)));
  p.body.push_back(parallel_region(std::move(body), {}));
  return p;
}

// ------------------------------------------------------- affine + index

TEST(Affine, DecomposesLinearSubscripts) {
  const ExprPtr e = bin_op('+', bin_op('*', int_lit(3), scalar_ref("i")),
                           int_lit(7));
  const AffineIndex a = affine_in(*e, "i");
  EXPECT_TRUE(a.affine);
  EXPECT_EQ(a.scale, 3);
  EXPECT_EQ(a.offset, 7);
}

TEST(Affine, DecomposesPlainAndShiftedLoopVariable) {
  const ExprPtr plain = scalar_ref("i");
  const AffineIndex p = affine_in(*plain, "i");
  EXPECT_TRUE(p.affine);
  EXPECT_EQ(p.scale, 1);
  EXPECT_EQ(p.offset, 0);

  const ExprPtr shifted = bin_op('-', scalar_ref("i"), int_lit(3));
  const AffineIndex s = affine_in(*shifted, "i");
  EXPECT_TRUE(s.affine);
  EXPECT_EQ(s.scale, 1);
  EXPECT_EQ(s.offset, -3);
}

TEST(Affine, ConstantIsScaleZero) {
  const ExprPtr e = int_lit(5);
  const AffineIndex a = affine_in(*e, "i");
  EXPECT_TRUE(a.affine);
  EXPECT_EQ(a.scale, 0);
  EXPECT_EQ(a.offset, 5);
}

TEST(Affine, RejectsModuloAndForeignVariables) {
  const ExprPtr m = bin_op('%', scalar_ref("i"), int_lit(4));
  EXPECT_FALSE(affine_in(*m, "i").affine);
  const ExprPtr f = scalar_ref("j");
  EXPECT_FALSE(affine_in(*f, "i").affine);
  // A thread-id subscript is not a function of the loop variable.
  EXPECT_FALSE(affine_in(*thread_id(), "i").affine);
}

TEST(StmtIndexTest, PreOrderNumberingCoversNestedBodies) {
  const Program p = shared_tmp(false);
  const StmtIndex index = StmtIndex::build(p);
  // seq-for + its assign + parallel-for + its two assigns = 5 statements.
  EXPECT_EQ(index.size(), 5u);
  // Pre-order: the seq-for (toplevel first) gets id 0, its child id 1.
  EXPECT_EQ(index.id_of(&p.body[0]), 0);
  EXPECT_EQ(index.stmt_of(0), &p.body[0]);
  EXPECT_EQ(index.id_of(&p.body[1]), 2);
  // Unknown nodes map to -1 instead of asserting.
  const Stmt foreign = barrier();
  EXPECT_EQ(index.id_of(&foreign), -1);
}

// ------------------------------------------------------- access collection

TEST(Access, ClassifiesSharedVsPrivatized) {
  const Program p = shared_tmp(true);
  const StmtIndex index = StmtIndex::build(p);
  const LoopAccesses acc = collect_loop_accesses(p.body[1], index);
  EXPECT_EQ(acc.shared.count("tmp"), 0u);
  ASSERT_EQ(acc.privatized.count("tmp"), 1u);
  EXPECT_TRUE(acc.privatized.at("tmp").unprot_write);
  // The loop variable never shows up as an access.
  EXPECT_EQ(acc.shared.count("i"), 0u);
  EXPECT_EQ(acc.arrays.count("a"), 1u);
  EXPECT_EQ(acc.arrays.count("b"), 1u);
}

TEST(Access, TracksReadAndWriteOrder) {
  const Program p = shared_tmp(false);
  const StmtIndex index = StmtIndex::build(p);
  const LoopAccesses acc = collect_loop_accesses(p.body[1], index);
  ASSERT_EQ(acc.shared.count("tmp"), 1u);
  const ScalarUse& use = acc.shared.at("tmp");
  EXPECT_TRUE(use.unprot_write);
  EXPECT_TRUE(use.unprot_read);
  // tmp is written (stmt 1 of the loop) before it is read (stmt 2).
  ASSERT_GE(use.first_write_order, 0);
  ASSERT_GE(use.first_read_order, 0);
  EXPECT_LT(use.first_write_order, use.first_read_order);
  EXPECT_EQ(use.stmts.size(), 2u);
}

// ------------------------------------------------------- MHP pass

TEST(Mhp, BarrierSplitsRegionIntoPhases) {
  const Program p = barrier_region(true);
  const StmtIndex index = StmtIndex::build(p);
  const MhpInfo info = compute_mhp(p, index);
  EXPECT_EQ(info.parallel_constructs, 1u);
  EXPECT_EQ(info.phases, 2u);
  const int write_a = index.id_of(&p.body[0].body[0]);
  const int read_a = index.id_of(&p.body[0].body[2]);
  ASSERT_NE(write_a, -1);
  ASSERT_NE(read_a, -1);
  // Across the barrier the two statements can no longer race...
  EXPECT_FALSE(info.may_happen_in_parallel(write_a, read_a));
  // ...but each statement is still concurrent with itself (all threads
  // execute it).
  EXPECT_TRUE(info.may_happen_in_parallel(write_a, write_a));
}

TEST(Mhp, NoBarrierMeansOnePhase) {
  const Program p = barrier_region(false);
  const StmtIndex index = StmtIndex::build(p);
  const MhpInfo info = compute_mhp(p, index);
  EXPECT_EQ(info.phases, 1u);
  const int write_a = index.id_of(&p.body[0].body[0]);
  const int read_a = index.id_of(&p.body[0].body[1]);
  EXPECT_TRUE(info.may_happen_in_parallel(write_a, read_a));
}

TEST(Mhp, SerialStatementsNeverConcurrent) {
  const Program p = shared_tmp(false);
  const StmtIndex index = StmtIndex::build(p);
  const MhpInfo info = compute_mhp(p, index);
  // The sequential init loop is serial code.
  EXPECT_FALSE(info.may_happen_in_parallel(0, 0));
  EXPECT_FALSE(info.may_happen_in_parallel(0, 1));
}

TEST(Mhp, MissingBarrierIsAnError) {
  const Report r = verify(barrier_region(false));
  ASSERT_TRUE(r.has_errors());
  const Diagnostic* e = r.first_error();
  EXPECT_EQ(e->pass, PassId::Mhp);
  EXPECT_EQ(e->variable, "a");
  EXPECT_FALSE(e->message.empty());
}

TEST(Mhp, BarrierMakesRegionClean) {
  const Report r = verify(barrier_region(true));
  EXPECT_FALSE(r.has_errors());
  EXPECT_TRUE(r.saw_parallel_region);
}

TEST(Mhp, MasterRegionIsSingleThreaded) {
  const Report r = verify(master_region());
  EXPECT_FALSE(r.has_errors());
  EXPECT_EQ(r.count(PassId::Mhp, Severity::Warning), 0u);
}

// ------------------------------------------------------- scoping pass

TEST(Scoping, SharedScalarWriteIsTheCompatRaceVerdict) {
  const Report r =
      verify(shared_tmp(false), Scope::Llov);
  ASSERT_TRUE(r.has_errors());
  const Diagnostic* e = r.first_error();
  EXPECT_EQ(e->pass, PassId::Scoping);
  EXPECT_EQ(e->variable, "tmp");
  EXPECT_EQ(e->message, "shared scalar written without protection");
}

TEST(Scoping, PrivateClauseSilencesTheRace) {
  const Report r =
      verify(shared_tmp(true), Scope::Llov);
  EXPECT_FALSE(r.has_errors());
}

TEST(Scoping, PrivateReadBeforeWriteIsAWarning) {
  // private(t): t is read before any write -> undefined value warning.
  Program p;
  p.name = "undef-private";
  p.decls.push_back({"a", true, 16, 0});
  p.decls.push_back({"t", false, 0, 3});
  Clauses c;
  c.priv = {"t"};
  std::vector<Stmt> body;
  body.push_back(assign(array_ref("a", scalar_ref("i")), scalar_ref("t")));
  body.push_back(assign(scalar_ref("t"), int_lit(1)));
  p.body.push_back(parallel_for("i", int_lit(0), int_lit(16),
                                std::move(body), c));
  const Report r = verify(p);
  EXPECT_FALSE(r.has_errors());
  EXPECT_EQ(r.count(PassId::Scoping, Severity::Warning), 1u);
}

TEST(Scoping, OverwrittenFirstprivateGetsANote) {
  Program p;
  p.name = "redundant-firstprivate";
  p.decls.push_back({"a", true, 16, 0});
  p.decls.push_back({"t", false, 0, 3});
  Clauses c;
  c.firstprivate = {"t"};
  std::vector<Stmt> body;
  body.push_back(assign(scalar_ref("t"), int_lit(2)));
  body.push_back(assign(array_ref("a", scalar_ref("i")), scalar_ref("t")));
  p.body.push_back(parallel_for("i", int_lit(0), int_lit(16),
                                std::move(body), c));
  const Report r = verify(p);
  EXPECT_FALSE(r.has_errors());
  EXPECT_GE(r.count(PassId::Scoping, Severity::Note), 1u);
}

TEST(Scoping, NonAccumulatingReductionIsAWarning) {
  Program p;
  p.name = "broken-reduction";
  p.decls.push_back({"a", true, 16, 1});
  p.decls.push_back({"s", false, 0, 0});
  Clauses c;
  c.reductions.push_back({'+', "s"});
  std::vector<Stmt> body;
  body.push_back(assign(scalar_ref("s"), array_ref("a", scalar_ref("i"))));
  p.body.push_back(parallel_for("i", int_lit(0), int_lit(16),
                                std::move(body), c));
  const Report r = verify(p);
  EXPECT_EQ(r.count(PassId::Scoping, Severity::Warning), 1u);
}

TEST(Scoping, UnusedClauseVariableGetsANote) {
  Program p;
  p.name = "unused-clause";
  p.decls.push_back({"a", true, 16, 0});
  p.decls.push_back({"t", false, 0, 0});
  Clauses c;
  c.priv = {"t"};  // never touched by the loop body
  std::vector<Stmt> body;
  body.push_back(assign(array_ref("a", scalar_ref("i")), int_lit(1)));
  p.body.push_back(parallel_for("i", int_lit(0), int_lit(16),
                                std::move(body), c));
  const Report r = verify(p);
  EXPECT_GE(r.count(PassId::Scoping, Severity::Note), 1u);
}

// ------------------------------------------------------- dependence pass

TEST(Dependence, LoopCarriedSivIsAnError) {
  const Report r = verify(loop_carried());
  ASSERT_TRUE(r.has_errors());
  const Diagnostic* e = r.first_error();
  EXPECT_EQ(e->pass, PassId::Dependence);
  EXPECT_EQ(e->variable, "a");
  EXPECT_EQ(e->message, "loop-carried dependence (SIV test)");
}

TEST(Dependence, VectorAddIsClean) {
  const Report r = verify(vector_add());
  EXPECT_FALSE(r.has_errors());
  EXPECT_TRUE(r.saw_parallel_loop);
}

TEST(Dependence, RangeTestRefutesDisjointHalves) {
  // Compat mode reproduces the original false positive; the full verifier
  // refutes it via the range test and explains why in a note.
  const Report compat =
      verify(halves_copy(), Scope::Llov);
  ASSERT_TRUE(compat.has_errors());
  EXPECT_EQ(compat.first_error()->message,
            "loop-carried dependence (SIV test)");

  const Report full = verify(halves_copy());
  EXPECT_FALSE(full.has_errors());
  ASSERT_GE(full.count(PassId::Dependence, Severity::Note), 1u);
  bool saw_range_note = false;
  for (const Diagnostic& d : full.diagnostics) {
    if (d.message.find("range test") != std::string::npos)
      saw_range_note = true;
  }
  EXPECT_TRUE(saw_range_note);
}

TEST(Dependence, GcdTestRefutesDisjointStrides) {
  const Report compat =
      verify(gcd_disjoint(), Scope::Llov);
  ASSERT_TRUE(compat.has_errors());
  EXPECT_EQ(compat.first_error()->message,
            "coupled subscripts with unequal strides (MIV)");

  const Report full = verify(gcd_disjoint());
  EXPECT_FALSE(full.has_errors());
  bool saw_gcd_note = false;
  for (const Diagnostic& d : full.diagnostics) {
    if (d.message.find("GCD test") != std::string::npos) saw_gcd_note = true;
  }
  EXPECT_TRUE(saw_gcd_note);
}

TEST(Dependence, NonAffineSubscriptGetsASkipNote) {
  Program p;
  p.name = "non-affine";
  p.decls.push_back({"a", true, 16, 0});
  std::vector<Stmt> body;
  body.push_back(assign(
      array_ref("a", bin_op('%', scalar_ref("i"), int_lit(4))), int_lit(1)));
  p.body.push_back(
      parallel_for("i", int_lit(0), int_lit(16), std::move(body)));
  const Report r = verify(p);
  EXPECT_FALSE(r.has_errors());
  bool saw_skip = false;
  for (const Diagnostic& d : r.diagnostics) {
    if (d.message.find("not affine") != std::string::npos) saw_skip = true;
  }
  EXPECT_TRUE(saw_skip);
}

// ------------------------------------------------------- report plumbing

TEST(Report, CountsSummaryAndRendering) {
  const Report r = verify(loop_carried());
  EXPECT_EQ(r.count(PassId::Dependence, Severity::Error), 1u);
  EXPECT_EQ(r.count(PassId::Mhp), 0u);
  const std::string s = r.summary();
  EXPECT_NE(s.find("dependence"), std::string::npos);
  const std::string line = to_string(*r.first_error());
  EXPECT_NE(line.find("[dependence]"), std::string::npos);
  EXPECT_NE(line.find("'a'"), std::string::npos);
  EXPECT_NE(r.render().find(s), std::string::npos);
}

TEST(Report, RationaleTextIsAlwaysNonEmpty) {
  EXPECT_FALSE(rationale_text(verify(loop_carried())).empty());
  EXPECT_FALSE(rationale_text(verify(vector_add())).empty());
  // Error rationales name the variable.
  const std::string racy = rationale_text(verify(loop_carried()));
  EXPECT_NE(racy.find("'a'"), std::string::npos);
}

TEST(Report, RationaleForEmptyReportIsTheCleanSentence) {
  const Report empty;  // no diagnostics, no constructs analysed
  const std::string text = rationale_text(empty);
  EXPECT_FALSE(text.empty());
  EXPECT_NE(text.find("no conflicting accesses"), std::string::npos);
}

TEST(Report, RationaleFollowsFirstErrorAcrossMultiErrorReports) {
  // Hand-built two-error report: the rationale must track first_error(),
  // i.e. document order, not severity or pass precedence.
  Report r;
  r.diagnostics.push_back({PassId::Scoping, Severity::Error, "t", {1, 2},
                           "shared scalar written without protection"});
  r.diagnostics.push_back({PassId::Dependence, Severity::Error, "a", {1, 3},
                           "loop-carried dependence (SIV test)"});
  const std::string forward = rationale_text(r);
  EXPECT_NE(forward.find("'t'"), std::string::npos);
  EXPECT_NE(forward.find("scoping"), std::string::npos);
  std::swap(r.diagnostics[0], r.diagnostics[1]);
  const std::string reversed = rationale_text(r);
  EXPECT_NE(reversed.find("'a'"), std::string::npos);
  EXPECT_NE(reversed.find("dependence"), std::string::npos);
}

TEST(Report, RationaleCountsWarningsWithCorrectPlural) {
  Report r;
  r.diagnostics.push_back({PassId::Dependence, Severity::Warning, "a", {1},
                           "subscript could not be proven disjoint"});
  const std::string one = rationale_text(r);
  EXPECT_NE(one.find("1 access "), std::string::npos);
  r.diagnostics.push_back({PassId::Dependence, Severity::Warning, "b", {2},
                           "subscript could not be proven disjoint"});
  const std::string two = rationale_text(r);
  EXPECT_NE(two.find("2 accesses "), std::string::npos);
}

TEST(Report, RationaleSurvivesFortranRenderRoundTrip) {
  // The Task-2 explanation must be identical whether the program arrived
  // as an AST or as Fortran-flavoured source text (the service's
  // flavour-independence contract, satellite of the render round-trip).
  for (const auto make : {&loop_carried, &vector_add}) {
    const minilang::Program original = make();
    const minilang::Program reparsed = minilang::parse_any(
        minilang::render(original, minilang::Flavor::Fortran));
    EXPECT_EQ(rationale_text(verify(original)),
              rationale_text(verify(reparsed)));
  }
}

// ---------------------------------------------------------- deduplication

TEST(Deduplicate, DropsLaterIdenticalIdentityKeepsFirstMessage) {
  std::vector<Diagnostic> diags;
  diags.push_back({PassId::Scoping, Severity::Error, "t", {1, 2}, "first"});
  // Same identity (pass/severity/variable/stmts), reworded message: a
  // duplicate — the first wording survives.
  diags.push_back({PassId::Scoping, Severity::Error, "t", {1, 2}, "reworded"});
  // Different statement span: not a duplicate.
  diags.push_back({PassId::Scoping, Severity::Error, "t", {1, 3}, "first"});
  // Different severity: not a duplicate.
  diags.push_back({PassId::Scoping, Severity::Note, "t", {1, 2}, "first"});
  EXPECT_EQ(deduplicate(diags), 1u);
  ASSERT_EQ(diags.size(), 3u);
  EXPECT_EQ(diags[0].message, "first");
  EXPECT_EQ(diags[1].stmts, (std::vector<int>{1, 3}));
  EXPECT_EQ(diags[2].severity, Severity::Note);
}

TEST(Deduplicate, EmptyAndSingletonAreNoOps) {
  std::vector<Diagnostic> none;
  EXPECT_EQ(deduplicate(none), 0u);
  std::vector<Diagnostic> one;
  one.push_back({PassId::Mhp, Severity::Error, "a", {0}, "m"});
  EXPECT_EQ(deduplicate(one), 0u);
  EXPECT_EQ(one.size(), 1u);
}

TEST(Deduplicate, VerifierReportsCarryNoDuplicateFindings) {
  // End to end: Scope::Full reports out of the verifier never contain
  // two findings with the same identity fingerprint, and the compat
  // verdicts of Table 5 are untouched by the collapse.
  for (const drb::Category cat : drb::all_categories()) {
    Rng rng(11);
    const drb::TestCase tc =
        drb::generate_case(cat, minilang::Flavor::C, rng);
    const Report r = verify(tc.program);
    std::vector<std::uint64_t> keys;
    for (const Diagnostic& d : r.diagnostics) keys.push_back(fingerprint(d));
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
        << "duplicate finding in " << drb::category_name(cat) << "\n"
        << r.render();
  }
}

// ------------------------------------------------------- LLOV delegation

TEST(Delegation, LlovVerdictsMatchThroughAnalysis) {
  auto llov = race::make_llov();
  const auto racy =
      llov->analyze(loop_carried(), minilang::Flavor::C);
  EXPECT_EQ(racy.verdict, race::Verdict::Race);
  ASSERT_EQ(racy.races.size(), 1u);
  EXPECT_EQ(racy.races[0].var, "a");
  EXPECT_EQ(racy.races[0].detail, "loop-carried dependence (SIV test)");

  const auto clean = llov->analyze(vector_add(), minilang::Flavor::C);
  EXPECT_EQ(clean.verdict, race::Verdict::NoRace);
}

TEST(Delegation, RegionOnlyProgramsStayUnsupported) {
  auto llov = race::make_llov();
  const auto r = llov->analyze(region_only(), minilang::Flavor::C);
  EXPECT_EQ(r.verdict, race::Verdict::Unsupported);
  ASSERT_TRUE(r.unsupported_kind.has_value());
  EXPECT_EQ(*r.unsupported_kind, race::UnsupportedKind::NonLoopParallelism);
  EXPECT_EQ(r.unsupported_reason,
            "only loop-shaped parallel constructs are verified");
}

TEST(Delegation, StaticVerifierCoversRegionsAndRefutesFalsePositives) {
  auto verifier = race::make_static_verifier();
  // Regions: no Unsupported verdicts, real phase analysis instead.
  const auto racy =
      verifier->analyze(barrier_region(false), minilang::Flavor::C);
  EXPECT_EQ(racy.verdict, race::Verdict::Race);
  ASSERT_FALSE(racy.races.empty());
  EXPECT_EQ(racy.races[0].var, "a");
  const auto ok =
      verifier->analyze(barrier_region(true), minilang::Flavor::C);
  EXPECT_EQ(ok.verdict, race::Verdict::NoRace);

  // Strictly more precise than LLOV on the halves-copy false positive.
  auto llov = race::make_llov();
  EXPECT_EQ(llov->analyze(halves_copy(), minilang::Flavor::C).verdict,
            race::Verdict::Race);
  EXPECT_EQ(verifier->analyze(halves_copy(), minilang::Flavor::C).verdict,
            race::Verdict::NoRace);
}

TEST(Delegation, UnsupportedMessagesAreCanonical) {
  EXPECT_EQ(
      race::unsupported_message(race::UnsupportedKind::NonLoopParallelism),
      "only loop-shaped parallel constructs are verified");
  race::DetectionResult r;
  r.mark_unsupported(race::UnsupportedKind::ExecutionFault);
  EXPECT_EQ(r.verdict, race::Verdict::Unsupported);
  EXPECT_EQ(r.unsupported_reason,
            race::unsupported_message(race::UnsupportedKind::ExecutionFault));
}

// ------------------------------------------------------- DRB acceptance

// Known-racy generated programs must receive at least one Error that names
// the correct conflicting variable with a non-empty explanation.
TEST(DrbAcceptance, MissingDataSharingNamesTheScalar) {
  for (const std::uint64_t seed : {1ull, 7ull, 2023ull, 4096ull}) {
    Rng rng(seed);
    const drb::TestCase tc = drb::generate_case(
        drb::Category::MissingDataSharingClauses, minilang::Flavor::C, rng);
    // The racy variable is the one scalar declaration of the program.
    std::string racy_var;
    for (const auto& d : tc.program.decls) {
      if (!d.is_array) racy_var = d.name;
    }
    ASSERT_FALSE(racy_var.empty());
    const Report r = verify(tc.program);
    ASSERT_TRUE(r.has_errors()) << tc.source;
    EXPECT_EQ(r.first_error()->variable, racy_var) << tc.source;
    EXPECT_FALSE(r.first_error()->message.empty());
  }
}

TEST(DrbAcceptance, AffineRacyCategoriesAlwaysError) {
  using drb::Category;
  // Categories whose racy variants always carry affine subscripts (the
  // accelerator category's indirect-histogram b[a[i]] variant and the
  // unresolvable overlap-mod variant are the analyzer's documented
  // non-affine false-negative sources and are excluded).
  const Category affine_racy[] = {Category::MissingDataSharingClauses,
                                  Category::MissingSynchronization,
                                  Category::SimdDataRaces};
  for (const Category cat : affine_racy) {
    for (const std::uint64_t seed : {3ull, 17ull, 99ull}) {
      Rng rng(seed);
      const drb::TestCase tc =
          drb::generate_case(cat, minilang::Flavor::C, rng);
      const Report r = verify(tc.program);
      EXPECT_TRUE(r.has_errors())
          << drb::category_name(cat) << " seed " << seed << "\n"
          << tc.source;
    }
  }
}

TEST(DrbAcceptance, RaceFreeCategoriesStayClean) {
  using drb::Category;
  for (const Category cat : drb::all_categories()) {
    if (drb::category_has_race(cat)) continue;
    for (const minilang::Flavor flavor :
         {minilang::Flavor::C, minilang::Flavor::Fortran}) {
      for (const std::uint64_t seed : {5ull, 23ull, 2023ull}) {
        Rng rng(seed);
        const drb::TestCase tc = drb::generate_case(cat, flavor, rng);
        const Report r = verify(tc.program);
        EXPECT_FALSE(r.has_errors())
            << drb::category_name(cat) << " seed " << seed << "\n"
            << r.render() << "\n"
            << tc.source;
      }
    }
  }
}

}  // namespace
}  // namespace hpcgpt::analysis
