#include "hpcgpt/analysis/verifier.hpp"

#include "hpcgpt/analysis/access.hpp"
#include "hpcgpt/analysis/stmt_index.hpp"

namespace hpcgpt::analysis {

using minilang::Program;
using minilang::Stmt;

namespace {

/// Appends `fresh` to `out`; in Scope::Llov only the first error survives
/// (the original detector reported one race per loop and the scoping pass
/// pre-empted the dependence pass).
void merge(std::vector<Diagnostic>& out, std::vector<Diagnostic>&& fresh,
           bool full) {
  if (full) {
    for (Diagnostic& d : fresh) out.push_back(std::move(d));
    return;
  }
  for (Diagnostic& d : fresh) {
    if (d.severity != Severity::Error) continue;
    out.push_back(std::move(d));
    return;
  }
}

class Verifier {
 public:
  Verifier(const Program& program, Scope scope)
      : program_(program), scope_(scope), full_(scope == Scope::Full) {}

  Report run() {
    const StmtIndex index = StmtIndex::build(program_);
    report_.statements = index.size();

    if (full_) {
      const MhpInfo mhp = compute_mhp(program_, index);
      run_mhp_pass(program_, index, mhp, report_.diagnostics);
    }

    for (const Stmt& s : program_.body) {
      visit(s, index);
      // The original detector stopped after the first toplevel statement
      // that yielded a race.
      if (!full_ && report_.has_errors()) break;
    }
    // Identical findings (same pass + statement span + variable) reported
    // through more than one access pair collapse to their first
    // occurrence; verdicts are unaffected (see deduplicate()).
    deduplicate(report_.diagnostics);
    return std::move(report_);
  }

 private:
  void visit(const Stmt& s, const StmtIndex& index) {
    switch (s.kind) {
      case Stmt::Kind::ParallelFor:
        report_.saw_parallel_loop = true;
        analyze_loop(s, index);
        return;
      case Stmt::Kind::ParallelRegion:
        report_.saw_parallel_region = true;
        if (full_) descend(s, index);
        return;
      case Stmt::Kind::SeqFor:
      case Stmt::Kind::If:
        descend(s, index);
        return;
      default:
        if (full_) descend(s, index);
        return;
    }
  }

  void descend(const Stmt& s, const StmtIndex& index) {
    for (const Stmt& inner : s.body) visit(inner, index);
  }

  void analyze_loop(const Stmt& loop, const StmtIndex& index) {
    const LoopAccesses accesses = collect_loop_accesses(loop, index);

    std::vector<Diagnostic> scoping;
    run_scoping_pass(loop, accesses, index, scope_, scoping);
    const bool scoping_error = [&] {
      for (const Diagnostic& d : scoping) {
        if (d.severity == Severity::Error) return true;
      }
      return false;
    }();
    merge(report_.diagnostics, std::move(scoping), full_);

    // The original detector never reached the subscript tests once a
    // scalar rule fired; keep that pre-emption in Scope::Llov.
    if (!full_ && scoping_error) return;

    std::vector<Diagnostic> dependence;
    run_dependence_pass(loop, accesses, index, scope_, dependence);
    merge(report_.diagnostics, std::move(dependence), full_);
  }

  const Program& program_;
  const Scope scope_;
  const bool full_;
  Report report_;
};

}  // namespace

Report verify(const Program& program, Scope scope) {
  return Verifier(program, scope).run();
}

std::string rationale_text(const Report& report) {
  if (const Diagnostic* e = report.first_error()) {
    return "Static analysis flags '" + e->variable + "' (" +
           pass_name(e->pass) + " pass): " + e->message + ".";
  }
  std::size_t warnings = 0;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.severity == Severity::Warning) ++warnings;
  }
  if (warnings > 0) {
    return "Static analysis found no provable conflict, though " +
           std::to_string(warnings) +
           (warnings == 1 ? " access could not be proven disjoint."
                          : " accesses could not be proven disjoint.");
  }
  return "Static analysis found no conflicting accesses across the "
         "verified parallel constructs.";
}

}  // namespace hpcgpt::analysis
