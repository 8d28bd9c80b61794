#include "hpcgpt/race/features.hpp"

#include "hpcgpt/analysis/affine.hpp"

namespace hpcgpt::race {

using minilang::Expr;
using minilang::Program;
using minilang::Stmt;

namespace {

void scan_expr(const Expr& e, const std::string& loop_var,
               ProgramFeatures& f) {
  if (e.kind == Expr::Kind::ArrayRef) {
    if (!analysis::affine_in(*e.index, loop_var).affine) {
      f.has_nonaffine_subscript = true;
    }
    scan_expr(*e.index, loop_var, f);
  }
  if (e.lhs) scan_expr(*e.lhs, loop_var, f);
  if (e.rhs) scan_expr(*e.rhs, loop_var, f);
}

void scan_stmt(const Stmt& s, const std::string& loop_var,
               ProgramFeatures& f) {
  ++f.statement_count;
  switch (s.kind) {
    case Stmt::Kind::ParallelFor:
      f.has_parallel_for = true;
      if (s.clauses.simd) f.has_simd = true;
      if (s.clauses.target) f.has_target = true;
      if (!s.clauses.reductions.empty()) f.has_reduction = true;
      for (const Stmt& inner : s.body) scan_stmt(inner, s.loop_var, f);
      return;
    case Stmt::Kind::ParallelRegion:
      f.has_parallel_region = true;
      if (!s.clauses.reductions.empty()) f.has_reduction = true;
      for (const Stmt& inner : s.body) scan_stmt(inner, loop_var, f);
      return;
    case Stmt::Kind::Atomic:
      f.has_atomic = true;
      break;
    case Stmt::Kind::Critical:
      f.has_critical = true;
      break;
    case Stmt::Kind::Barrier:
      f.has_barrier = true;
      return;
    case Stmt::Kind::Master:
    case Stmt::Kind::Single:
      f.has_master_or_single = true;
      break;
    case Stmt::Kind::If:
      f.has_conditional = true;
      break;
    default:
      break;
  }
  if (s.cond) scan_expr(*s.cond, loop_var, f);
  if (s.target) scan_expr(*s.target, loop_var, f);
  if (s.value) scan_expr(*s.value, loop_var, f);
  const std::string& inner_var =
      s.kind == Stmt::Kind::SeqFor ? s.loop_var : loop_var;
  for (const Stmt& inner : s.body) scan_stmt(inner, inner_var, f);
}

}  // namespace

ProgramFeatures scan_features(const Program& program) {
  ProgramFeatures f;
  for (const Stmt& s : program.body) scan_stmt(s, "", f);
  return f;
}

}  // namespace hpcgpt::race
