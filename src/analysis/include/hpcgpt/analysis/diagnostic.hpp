#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hpcgpt::analysis {

/// The three composable passes of the static race verifier. The pass that
/// produced a finding is part of the diagnostic so downstream consumers
/// (the lint CLI, the datagen rationale text, the agreement eval) can
/// attribute and summarize findings per pass.
enum class PassId {
  Mhp,         ///< may-happen-in-parallel region/phase analysis
  Scoping,     ///< data-sharing & scoping clause lint
  Dependence,  ///< loop dependence testing on affine subscripts
};

/// Finding severity. Only `Error` findings are race verdicts; `Warning`
/// marks likely-but-unproven problems and `Note` records analysis facts
/// (skipped subscripts, refuted dependences, redundant clauses).
enum class Severity { Error, Warning, Note };

/// How much of the analyzer runs. `Full` is every pass with every
/// refinement. `Llov` restricts it to exactly the scope and precision of
/// the original single-pass LLOV-style detector, so `race::LlovDetector`
/// delegates here without changing a single Table 5 verdict: parallel
/// loops only, found at the top level or under sequential loops and
/// conditionals; the three scalar race rules without the clause lints;
/// no GCD or range refinement and no notes; at most one error per loop,
/// and analysis stops after the first toplevel statement that yields one.
enum class Scope { Full, Llov };

std::string pass_name(PassId pass);
std::string severity_name(Severity severity);

/// One structured finding. `stmts` are pre-order statement ids over the
/// analysed program (see StmtIndex); most findings carry the construct id
/// plus the ids of the conflicting accesses.
struct Diagnostic {
  PassId pass = PassId::Scoping;
  Severity severity = Severity::Error;
  std::string variable;      ///< the conflicting/misscoped variable
  std::vector<int> stmts;    ///< statement ids involved
  std::string message;       ///< human-readable explanation
};

/// Full field equality (including the message text).
bool operator==(const Diagnostic& a, const Diagnostic& b);

/// "[pass] severity: 'var' — message (stmts i,j)".
std::string to_string(const Diagnostic& d);

/// Stable structured identity of a finding: pass, severity, variable and
/// the statement span — the message text is excluded, so rewording a
/// diagnostic does not change its identity. This is the deduplication key
/// and the per-diagnostic fingerprint the analysis service reports.
std::uint64_t fingerprint(const Diagnostic& d);

/// Order- and content-sensitive hash over a whole report: every field of
/// every diagnostic (messages included) plus the structural flags. Two
/// reports fingerprint identically exactly when they are bitwise-equal —
/// the check the service's cached-vs-fresh tests assert.
struct Report;
std::uint64_t fingerprint(const Report& report);

/// Removes diagnostics whose identity fingerprint (pass + severity +
/// variable + statement span) already appeared earlier in the list,
/// keeping first occurrences in order. Because only later *identical-key*
/// findings are dropped, first_error() and has_errors() are unaffected —
/// verdicts (Table 5, Scope::Llov) cannot change. Returns the number of
/// diagnostics removed.
std::size_t deduplicate(std::vector<Diagnostic>& diagnostics);

/// Result of one verifier run: every finding of every pass, in program
/// traversal order, plus the structural facts the LLOV-compatible verdict
/// mapping needs (loop-shaped vs region-shaped parallelism).
struct Report {
  std::vector<Diagnostic> diagnostics;
  /// Structural flags with the verifier's traversal semantics: toplevel
  /// statements, descending sequential loops and conditionals.
  bool saw_parallel_loop = false;
  bool saw_parallel_region = false;
  std::size_t statements = 0;  ///< statements indexed

  bool has_errors() const;
  const Diagnostic* first_error() const;
  std::size_t count(PassId pass) const;
  std::size_t count(PassId pass, Severity severity) const;

  /// One line per pass: "mhp: 0 | scoping: 1 error, 1 note | ...".
  std::string summary() const;
  /// All diagnostics (one per line) followed by the summary line.
  std::string render() const;
};

}  // namespace hpcgpt::analysis
