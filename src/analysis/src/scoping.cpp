#include "hpcgpt/analysis/scoping.hpp"

namespace hpcgpt::analysis {

using minilang::Reduction;
using minilang::Stmt;

namespace {

void emit(std::vector<Diagnostic>& out, Severity severity,
          const std::string& var, std::vector<int> stmts, std::string msg) {
  Diagnostic d;
  d.pass = PassId::Scoping;
  d.severity = severity;
  d.variable = var;
  d.stmts = std::move(stmts);
  d.message = std::move(msg);
  out.push_back(std::move(d));
}

}  // namespace

void run_scoping_pass(const Stmt& loop, const LoopAccesses& accesses,
                      const StmtIndex& /*index*/,
                      Scope scope, std::vector<Diagnostic>& out) {
  // ---- the three verdict rules, per scalar, first match wins ----
  // (conditions, order, and messages are the original detector's)
  for (const auto& [name, use] : accesses.shared) {
    if (use.unprot_write && use.any_other_thread_access) {
      emit(out, Severity::Error, name, use.stmts,
           "shared scalar written without protection");
    } else if (use.unprot_write) {
      // Written by every iteration with no clause: write-write race.
      emit(out, Severity::Error, name, use.stmts,
           "unprivatized scalar assigned in parallel loop");
    } else if (use.prot_write && use.unprot_read) {
      emit(out, Severity::Error, name, use.stmts,
           "protected write but unprotected read of shared scalar");
    }
  }

  if (scope == Scope::Llov) return;

  // ---- clause lints (never verdict-bearing) ----
  for (const std::string& name : loop.clauses.priv) {
    const auto it = accesses.privatized.find(name);
    if (it == accesses.privatized.end()) {
      emit(out, Severity::Note, name, {},
           "private clause names a variable the loop never touches");
      continue;
    }
    const ScalarUse& use = it->second;
    if (use.first_read_order != -1 &&
        (use.first_write_order == -1 ||
         use.first_read_order < use.first_write_order)) {
      emit(out, Severity::Warning, name, use.stmts,
           "private copy may be read before it is written (its value is "
           "undefined inside the loop)");
    }
  }
  for (const std::string& name : loop.clauses.firstprivate) {
    const auto it = accesses.privatized.find(name);
    if (it == accesses.privatized.end()) {
      emit(out, Severity::Note, name, {},
           "firstprivate clause names a variable the loop never touches");
      continue;
    }
    const ScalarUse& use = it->second;
    if (use.first_write_order != -1 &&
        (use.first_read_order == -1 ||
         use.first_write_order < use.first_read_order)) {
      emit(out, Severity::Note, name, use.stmts,
           "firstprivate copy is overwritten before any read — private(...) "
           "would suffice");
    }
  }
  for (const Reduction& r : loop.clauses.reductions) {
    const auto it = accesses.reductions.find(r.var);
    if (it == accesses.reductions.end()) {
      emit(out, Severity::Note, r.var, {},
           "reduction clause names a variable the loop never touches");
      continue;
    }
    if (it->second.non_accumulating_write) {
      emit(out, Severity::Warning, r.var, it->second.stmts,
           "reduction variable is assigned without accumulating — the "
           "combined result discards other iterations");
    }
  }
}

}  // namespace hpcgpt::analysis
