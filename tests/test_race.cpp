#include <gtest/gtest.h>

#include "hpcgpt/minilang/ast.hpp"
#include "hpcgpt/race/detector.hpp"
#include "hpcgpt/race/features.hpp"
#include "hpcgpt/race/hb.hpp"
#include "hpcgpt/race/interp.hpp"
#include "hpcgpt/support/error.hpp"

namespace hpcgpt::race {
namespace {

using namespace hpcgpt::minilang;

// ------------------------------------------------------- fixture programs

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

Program shared_tmp(bool with_private) {  // missing-data-sharing category
  Program p;
  p.name = with_private ? "private-tmp" : "shared-tmp";
  p.decls.push_back({"a", true, 64, 0});
  p.decls.push_back({"b", true, 64, 0});
  p.decls.push_back({"tmp", false, 0, 0});
  // Sequential init a[i] = i so per-iteration tmp values differ — a lost
  // update is then observable in b.
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

Program sum_program(bool use_critical, bool use_atomic,
                    bool use_reduction) {
  Program p;
  p.name = "sum";
  p.decls.push_back({"a", true, 40, 2});
  p.decls.push_back({"sum", false, 0, 0});
  Clauses c;
  if (use_reduction) c.reductions.push_back({'+', "sum"});
  std::vector<Stmt> update;
  update.push_back(assign(scalar_ref("sum"),
                          bin_op('+', scalar_ref("sum"),
                                 array_ref("a", scalar_ref("i")))));
  std::vector<Stmt> body;
  if (use_critical) {
    body.push_back(critical(std::move(update)));
  } else if (use_atomic) {
    Stmt a = std::move(update[0]);
    a.kind = Stmt::Kind::Atomic;
    body.push_back(std::move(a));
  } else {
    body = std::move(update);
  }
  p.body.push_back(parallel_for("i", int_lit(0), int_lit(40),
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

Program hidden_race() {
  // The racy write is guarded by a condition that is false at runtime:
  // dynamic tools observe no conflicting access, static analysis does.
  Program p;
  p.name = "hidden-race";
  p.decls.push_back({"a", true, 64, 0});  // all zeros -> condition false
  p.decls.push_back({"x", false, 0, 0});
  std::vector<Stmt> then_branch;
  then_branch.push_back(assign(scalar_ref("x"),
                               array_ref("a", scalar_ref("i"))));
  std::vector<Stmt> body;
  body.push_back(if_stmt(
      bin_op('>', array_ref("a", scalar_ref("i")), int_lit(5)),
      std::move(then_branch)));
  p.body.push_back(
      parallel_for("i", int_lit(0), int_lit(64), std::move(body)));
  return p;
}

// ------------------------------------------------------- interpreter

TEST(Interp, VectorAddComputesCorrectValues) {
  const ExecResult r = execute(vector_add(), {.num_threads = 4, .seed = 3});
  const auto& c = r.arrays.at("c");
  for (const std::int64_t v : c) EXPECT_EQ(v, 3);
}

TEST(Interp, ReductionProducesExactSum) {
  const Program p = sum_program(false, false, /*use_reduction=*/true);
  for (const std::uint64_t seed : {1ull, 9ull, 77ull}) {
    const ExecResult r = execute(p, {.num_threads = 4, .seed = seed});
    EXPECT_EQ(r.scalars.at("sum"), 80);  // 40 elements of 2
  }
}

TEST(Interp, CriticalSumIsExactUnderAnySchedule) {
  const Program p = sum_program(/*use_critical=*/true, false, false);
  for (const std::uint64_t seed : {2ull, 5ull, 123ull}) {
    const ExecResult r = execute(p, {.num_threads = 4, .seed = seed});
    EXPECT_EQ(r.scalars.at("sum"), 80);
  }
}

TEST(Interp, AtomicSumIsExact) {
  const Program p = sum_program(false, /*use_atomic=*/true, false);
  const ExecResult r = execute(p, {.num_threads = 4, .seed = 11});
  EXPECT_EQ(r.scalars.at("sum"), 80);
}

TEST(Interp, SharedTmpCorruptsResults) {
  // With tmp shared, some b[i] receive another iteration's value under at
  // least one schedule; with private(tmp) results are always 6.
  const Program racy = shared_tmp(false);
  bool corrupted = false;
  for (std::uint64_t seed = 1; seed <= 10 && !corrupted; ++seed) {
    const ExecResult r = execute(racy, {.num_threads = 4, .seed = seed});
    const auto& b = r.arrays.at("b");
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (b[i] != 2 * static_cast<std::int64_t>(i)) corrupted = true;
    }
  }
  EXPECT_TRUE(corrupted) << "shared tmp never interleaved badly";

  const Program safe = shared_tmp(true);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const ExecResult r = execute(safe, {.num_threads = 4, .seed = seed});
    const auto& b = r.arrays.at("b");
    for (std::size_t i = 0; i < b.size(); ++i) {
      EXPECT_EQ(b[i], 2 * static_cast<std::int64_t>(i));
    }
  }
}

TEST(Interp, TraceContainsForkJoinAndAccesses) {
  const ExecResult r = execute(vector_add(), {.num_threads = 2, .seed = 1});
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace.front().kind, EventKind::Fork);
  EXPECT_EQ(r.trace.back().kind, EventKind::Join);
  std::size_t reads = 0;
  std::size_t writes = 0;
  for (const Event& e : r.trace) {
    reads += (e.kind == EventKind::Read);
    writes += (e.kind == EventKind::Write);
  }
  EXPECT_EQ(reads, 128u);  // a[i] and b[i] per iteration
  EXPECT_EQ(writes, 64u);  // c[i]
}

TEST(Interp, PrivateVariablesEmitNoEvents) {
  const ExecResult r = execute(shared_tmp(true), {.num_threads = 2});
  for (const Event& e : r.trace) EXPECT_NE(e.var, "tmp");
}

TEST(Interp, CriticalSectionsAreMutuallyExclusive) {
  const Program p = sum_program(true, false, false);
  const ExecResult r = execute(p, {.num_threads = 4, .seed = 9});
  int holder = -1;
  for (const Event& e : r.trace) {
    if (e.kind == EventKind::Acquire && e.lock == 0) {
      EXPECT_EQ(holder, -1) << "critical section overlap";
      holder = e.thread;
    } else if (e.kind == EventKind::Release && e.lock == 0) {
      EXPECT_EQ(holder, e.thread);
      holder = -1;
    }
  }
}

TEST(Interp, BarrierEmitsOneEventPerThread) {
  const ExecResult r = execute(barrier_region(true), {.num_threads = 4});
  std::size_t barriers = 0;
  for (const Event& e : r.trace) barriers += (e.kind == EventKind::Barrier);
  EXPECT_EQ(barriers, 4u);
}

TEST(Interp, MasterRunsOnThreadZeroOnly) {
  Program p;
  p.name = "master-only";
  p.decls.push_back({"x", false, 0, 0});
  Clauses c;
  c.num_threads = 4;
  std::vector<Stmt> inner;
  inner.push_back(assign(scalar_ref("x"), int_lit(5)));
  std::vector<Stmt> body;
  body.push_back(master(std::move(inner)));
  p.body.push_back(parallel_region(std::move(body), c));
  const ExecResult r = execute(p);
  EXPECT_EQ(r.scalars.at("x"), 5);
  for (const Event& e : r.trace) {
    if (e.kind == EventKind::Write) {
      EXPECT_EQ(e.thread, 0);
    }
  }
}

TEST(Interp, NumThreadsClauseOverridesOption) {
  Program p = vector_add();
  p.body[0].clauses.num_threads = 3;
  const ExecResult r = execute(p, {.num_threads = 8});
  int max_thread = 0;
  for (const Event& e : r.trace) max_thread = std::max(max_thread, e.thread);
  EXPECT_EQ(max_thread, 2);
}

TEST(Interp, OutOfBoundsThrows) {
  Program p;
  p.name = "oob";
  p.decls.push_back({"a", true, 4, 0});
  std::vector<Stmt> body;
  body.push_back(assign(array_ref("a", scalar_ref("i")), int_lit(1)));
  p.body.push_back(parallel_for("i", int_lit(0), int_lit(10), std::move(body)));
  EXPECT_THROW(execute(p), InvalidArgument);
}

TEST(Interp, UndeclaredVariableThrows) {
  Program p;
  p.name = "undeclared";
  std::vector<Stmt> body;
  body.push_back(assign(scalar_ref("ghost"), int_lit(1)));
  p.body.push_back(std::move(body[0]));
  p.body.pop_back();
  p.body.push_back(assign(scalar_ref("ghost"), int_lit(1)));
  EXPECT_THROW(execute(p), InvalidArgument);
}

TEST(Interp, DivisionByZeroThrows) {
  Program p;
  p.name = "div0";
  p.decls.push_back({"x", false, 0, 0});
  p.body.push_back(assign(scalar_ref("x"),
                          bin_op('/', int_lit(1), int_lit(0))));
  EXPECT_THROW(execute(p), InvalidArgument);
}

// ------------------------------------------------------- HB engine

std::vector<RaceReport> run_hb(const Program& p, HbOptions opt = {},
                               std::uint64_t seed = 1) {
  const ExecResult r = execute(p, {.num_threads = 4, .seed = seed});
  return analyze_trace(r.trace, opt);
}

TEST(HbEngine, FlagsLoopCarriedDependence) {
  EXPECT_FALSE(run_hb(loop_carried()).empty());
}

TEST(HbEngine, VectorAddIsClean) {
  EXPECT_TRUE(run_hb(vector_add()).empty());
}

TEST(HbEngine, SharedTmpFlagged) {
  const auto races = run_hb(shared_tmp(false));
  ASSERT_FALSE(races.empty());
  EXPECT_EQ(races[0].var, "tmp");
}

TEST(HbEngine, PrivateTmpClean) {
  EXPECT_TRUE(run_hb(shared_tmp(true)).empty());
}

TEST(HbEngine, UnsynchronizedSumFlagged) {
  EXPECT_FALSE(run_hb(sum_program(false, false, false)).empty());
}

TEST(HbEngine, CriticalAtomicReductionAllClean) {
  EXPECT_TRUE(run_hb(sum_program(true, false, false)).empty());
  EXPECT_TRUE(run_hb(sum_program(false, true, false)).empty());
  EXPECT_TRUE(run_hb(sum_program(false, false, true)).empty());
}

TEST(HbEngine, BarrierOrdersPhases) {
  EXPECT_TRUE(run_hb(barrier_region(true)).empty());
  EXPECT_FALSE(run_hb(barrier_region(false)).empty());
}

TEST(HbEngine, BarrierBlindProfileFalsePositive) {
  HbOptions blind;
  blind.respect_barriers = false;
  EXPECT_FALSE(run_hb(barrier_region(true), blind).empty())
      << "ignoring barriers must flag the barrier-synchronized program";
}

TEST(HbEngine, AtomicBlindProfileFalsePositive) {
  HbOptions blind;
  blind.respect_atomics = false;
  EXPECT_FALSE(run_hb(sum_program(false, true, false), blind).empty());
}

TEST(HbEngine, CoarseShadowCausesFalseSharing) {
  // Two adjacent scalars written by different threads: distinct addresses
  // (clean under exact analysis) but the same 2-element shadow cell.
  Program p;
  p.name = "adjacent-scalars";
  p.decls.push_back({"x", false, 0, 0});
  p.decls.push_back({"y", false, 0, 0});
  Clauses c;
  c.num_threads = 2;
  std::vector<Stmt> write_x;
  write_x.push_back(assign(scalar_ref("x"), int_lit(1)));
  std::vector<Stmt> write_y;
  write_y.push_back(assign(scalar_ref("y"), int_lit(2)));
  std::vector<Stmt> body;
  body.push_back(if_stmt(bin_op('q', thread_id(), int_lit(0)),
                         std::move(write_x)));
  body.push_back(if_stmt(bin_op('q', thread_id(), int_lit(1)),
                         std::move(write_y)));
  p.body.push_back(parallel_region(std::move(body), c));

  EXPECT_TRUE(run_hb(p).empty());
  HbOptions coarse;
  coarse.shadow_granularity = 2;
  EXPECT_FALSE(run_hb(p, coarse).empty());
}

TEST(HbEngine, HiddenRaceInvisibleDynamically) {
  EXPECT_TRUE(run_hb(hidden_race()).empty())
      << "condition is false at runtime: no conflicting access observed";
}

// ------------------------------------------------------- detectors

TEST(Detectors, ToolInfoMatchesTable4) {
  const auto tools = make_all_tools();
  ASSERT_EQ(tools.size(), 4u);
  EXPECT_EQ(tools[0]->info().name, "LLOV");
  EXPECT_EQ(tools[1]->info().name, "Intel Inspector");
  EXPECT_EQ(tools[2]->info().name, "ROMP");
  EXPECT_EQ(tools[3]->info().name, "ThreadSanitizer");
  EXPECT_EQ(tools[3]->info().compiler, "Clang/LLVM 10.0.0");
  EXPECT_EQ(tools[0]->info().kind, "static");
}

TEST(Detectors, TsanClassifiesCoreCases) {
  auto tsan = make_tsan();
  EXPECT_EQ(tsan->analyze(loop_carried(), Flavor::C).verdict, Verdict::Race);
  EXPECT_EQ(tsan->analyze(vector_add(), Flavor::C).verdict, Verdict::NoRace);
  EXPECT_EQ(tsan->analyze(shared_tmp(false), Flavor::C).verdict,
            Verdict::Race);
  EXPECT_EQ(tsan->analyze(shared_tmp(true), Flavor::C).verdict,
            Verdict::NoRace);
  EXPECT_EQ(tsan->analyze(sum_program(true, false, false), Flavor::C).verdict,
            Verdict::NoRace);
}

TEST(Detectors, TsanMissesHiddenRace) {
  auto tsan = make_tsan();
  EXPECT_EQ(tsan->analyze(hidden_race(), Flavor::C).verdict,
            Verdict::NoRace);
}

TEST(Detectors, LlovCatchesHiddenRaceStatically) {
  auto llov = make_llov();
  EXPECT_EQ(llov->analyze(hidden_race(), Flavor::C).verdict, Verdict::Race);
}

TEST(Detectors, LlovClassifiesCoreCases) {
  auto llov = make_llov();
  EXPECT_EQ(llov->analyze(loop_carried(), Flavor::C).verdict, Verdict::Race);
  EXPECT_EQ(llov->analyze(vector_add(), Flavor::C).verdict, Verdict::NoRace);
  EXPECT_EQ(llov->analyze(shared_tmp(false), Flavor::C).verdict,
            Verdict::Race);
  EXPECT_EQ(llov->analyze(shared_tmp(true), Flavor::C).verdict,
            Verdict::NoRace);
  EXPECT_EQ(llov->analyze(sum_program(false, false, true), Flavor::C).verdict,
            Verdict::NoRace);
  EXPECT_EQ(llov->analyze(sum_program(false, false, false), Flavor::C).verdict,
            Verdict::Race);
}

TEST(Detectors, LlovUnsupportedOnPureRegions) {
  auto llov = make_llov();
  const auto r = llov->analyze(barrier_region(true), Flavor::C);
  EXPECT_EQ(r.verdict, Verdict::Unsupported);
  EXPECT_FALSE(r.unsupported_reason.empty());
}

TEST(Detectors, LlovSilentOnNonAffine) {
  // Racy via i % 2 overlap, but outside affine analysis: LLOV misses it.
  Program p;
  p.name = "mod-race";
  p.decls.push_back({"a", true, 64, 0});
  std::vector<Stmt> body;
  body.push_back(assign(
      array_ref("a", bin_op('%', scalar_ref("i"), int_lit(2))),
      scalar_ref("i")));
  p.body.push_back(parallel_for("i", int_lit(0), int_lit(64),
                                std::move(body)));
  auto llov = make_llov();
  EXPECT_EQ(llov->analyze(p, Flavor::C).verdict, Verdict::NoRace);
  auto tsan = make_tsan();
  EXPECT_EQ(tsan->analyze(p, Flavor::C).verdict, Verdict::Race);
}

TEST(Detectors, RompFalsePositiveOnAtomics) {
  auto romp = make_romp();
  EXPECT_EQ(romp->analyze(sum_program(false, true, false), Flavor::C).verdict,
            Verdict::Race)
      << "ROMP-sim lacks atomic OMPT callbacks";
  EXPECT_EQ(romp->analyze(sum_program(true, false, false), Flavor::C).verdict,
            Verdict::NoRace);
}

TEST(Detectors, InspectorBarrierBlindness) {
  auto inspector = make_inspector();
  EXPECT_EQ(inspector->analyze(barrier_region(true), Flavor::C).verdict,
            Verdict::Race)
      << "Inspector-sim ignores barrier ordering";
}

TEST(Detectors, SupportGapsMatchToolchains) {
  Program target_prog = vector_add();
  target_prog.body[0].clauses.target = true;
  Program simd_prog = vector_add();
  simd_prog.body[0].clauses.simd = true;

  auto tsan = make_tsan();
  EXPECT_EQ(tsan->analyze(target_prog, Flavor::C).verdict, Verdict::NoRace);
  EXPECT_EQ(tsan->analyze(target_prog, Flavor::Fortran).verdict,
            Verdict::Unsupported);
  EXPECT_EQ(tsan->analyze(simd_prog, Flavor::Fortran).verdict,
            Verdict::Unsupported);

  auto inspector = make_inspector();
  EXPECT_EQ(inspector->analyze(target_prog, Flavor::C).verdict,
            Verdict::Unsupported);

  auto romp = make_romp();
  EXPECT_EQ(romp->analyze(target_prog, Flavor::C).verdict,
            Verdict::Unsupported);
  EXPECT_EQ(romp->analyze(simd_prog, Flavor::Fortran).verdict,
            Verdict::Unsupported);
  EXPECT_EQ(romp->analyze(simd_prog, Flavor::C).verdict, Verdict::NoRace);
}

TEST(Detectors, FaultingProgramReportsUnsupported) {
  Program p;
  p.name = "oob";
  p.decls.push_back({"a", true, 2, 0});
  std::vector<Stmt> body;
  body.push_back(assign(array_ref("a", scalar_ref("i")), int_lit(1)));
  p.body.push_back(parallel_for("i", int_lit(0), int_lit(10), std::move(body)));
  auto tsan = make_tsan();
  EXPECT_EQ(tsan->analyze(p, Flavor::C).verdict, Verdict::Unsupported);
}

TEST(Detectors, EraserLocksetBehaviour) {
  auto eraser = make_eraser();
  // Catches the classic unsynchronized-sum race...
  EXPECT_EQ(eraser->analyze(sum_program(false, false, false),
                            Flavor::C).verdict,
            Verdict::Race);
  // ...and accepts lock discipline (critical / atomic).
  EXPECT_EQ(eraser->analyze(sum_program(true, false, false),
                            Flavor::C).verdict,
            Verdict::NoRace);
  EXPECT_EQ(eraser->analyze(sum_program(false, true, false),
                            Flavor::C).verdict,
            Verdict::NoRace);
  // Write-then-read handoff stays in the Shared state — the state
  // machine was designed to tolerate exactly this, so the barrier
  // program passes.
  EXPECT_EQ(eraser->analyze(barrier_region(true), Flavor::C).verdict,
            Verdict::NoRace);

  // Defining blind spot: two threads *writing* the same location in
  // barrier-separated phases is race-free, but lockset sees a
  // shared-modified location with an empty candidate set.
  Program p;
  p.name = "barrier-write-write";
  p.decls.push_back({"a", true, 4, 0});
  Clauses c;
  c.num_threads = 4;
  std::vector<Stmt> body;
  body.push_back(assign(array_ref("a", thread_id()), int_lit(1)));
  body.push_back(barrier());
  body.push_back(assign(
      array_ref("a", bin_op('%', bin_op('+', thread_id(), int_lit(1)),
                            int_lit(4))),
      int_lit(2)));
  p.body.push_back(parallel_region(std::move(body), c));
  EXPECT_EQ(eraser->analyze(p, Flavor::C).verdict, Verdict::Race)
      << "lockset cannot see barrier ordering";
  // ...while the happens-before engine gets it right.
  const ExecResult r = execute(p, {.num_threads = 4, .seed = 1});
  EXPECT_TRUE(analyze_trace(r.trace).empty());
}

TEST(Detectors, EraserExclusiveStateToleratesInitHandoff) {
  // Serial init (thread 0 / master identity) then parallel read-only use:
  // locations go Virgin -> Exclusive -> Shared, never Shared-Modified, so
  // pure lockset stays quiet despite the lock-free handoff.
  Program p;
  p.name = "init-then-read";
  p.decls.push_back({"a", true, 16, 0});
  p.decls.push_back({"b", true, 16, 0});
  std::vector<Stmt> init;
  init.push_back(assign(array_ref("a", scalar_ref("i")), scalar_ref("i")));
  p.body.push_back(seq_for("i", int_lit(0), int_lit(16), std::move(init)));
  std::vector<Stmt> body;
  body.push_back(assign(array_ref("b", scalar_ref("i")),
                        array_ref("a", scalar_ref("i"))));
  p.body.push_back(parallel_for("i", int_lit(0), int_lit(16),
                                std::move(body)));
  auto eraser = make_eraser();
  EXPECT_EQ(eraser->analyze(p, Flavor::C).verdict, Verdict::NoRace);
}

// ------------------------------------------------------- features

TEST(Features, ScansConstructs) {
  const ProgramFeatures f1 = scan_features(sum_program(false, true, false));
  EXPECT_TRUE(f1.has_parallel_for);
  EXPECT_TRUE(f1.has_atomic);
  EXPECT_FALSE(f1.has_critical);

  const ProgramFeatures f2 = scan_features(barrier_region(true));
  EXPECT_TRUE(f2.has_parallel_region);
  EXPECT_TRUE(f2.has_barrier);

  const ProgramFeatures f3 = scan_features(hidden_race());
  EXPECT_TRUE(f3.has_conditional);
}

}  // namespace
}  // namespace hpcgpt::race
