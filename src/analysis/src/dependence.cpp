#include "hpcgpt/analysis/dependence.hpp"

#include <cstdlib>
#include <optional>
#include <sstream>

namespace hpcgpt::analysis {

using minilang::Expr;
using minilang::Stmt;

namespace {

void emit(std::vector<Diagnostic>& out, Severity severity,
          const std::string& var, std::vector<int> stmts, std::string msg) {
  Diagnostic d;
  d.pass = PassId::Dependence;
  d.severity = severity;
  d.variable = var;
  d.stmts = std::move(stmts);
  d.message = std::move(msg);
  out.push_back(std::move(d));
}

/// Constant-folds a bound expression (affine with no loop variable =
/// literals and their arithmetic).
std::optional<std::int64_t> const_value(const Expr* e) {
  if (e == nullptr) return std::nullopt;
  const AffineIndex a = affine_in(*e, "");
  if (a.affine && a.scale == 0) return a.offset;
  return std::nullopt;
}

std::int64_t gcd64(std::int64_t a, std::int64_t b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    const std::int64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

}  // namespace

void run_dependence_pass(const Stmt& loop, const LoopAccesses& accesses,
                         const StmtIndex& /*index*/,
                         Scope scope, std::vector<Diagnostic>& out) {
  const bool full = scope == Scope::Full;
  // Constant trip count, when the bounds fold (the range test needs it).
  std::optional<std::int64_t> trip;
  std::optional<std::int64_t> lo;
  if (full) {
    lo = const_value(loop.lo.get());
    const auto hi = const_value(loop.hi.get());
    if (lo && hi) trip = *hi - *lo > 0 ? *hi - *lo : 0;
  }

  for (const auto& [name, accs] : accesses.arrays) {
    bool all_analyzable = true;
    std::vector<int> non_affine_stmts;
    for (const ArrayAccess& a : accs) {
      if (!a.analyzable) {
        all_analyzable = false;
        non_affine_stmts.push_back(a.stmt);
      }
    }
    if (!all_analyzable) {
      // Silent on the verdict level: the original tool's main
      // false-negative source. The note keeps the gap visible.
      if (full) {
        emit(out, Severity::Note, name, non_affine_stmts,
             "subscript is not affine in the loop variable — dependence "
             "test skipped");
      }
      continue;
    }

    // Pair loop identical to the original detector; one error per array
    // is enough (the first matches the original verdict exactly).
    bool done = false;
    for (std::size_t i = 0; i < accs.size() && !done; ++i) {
      if (!accs[i].is_write) continue;
      for (std::size_t j = 0; j < accs.size() && !done; ++j) {
        const AffineIndex& w = accs[i].index;
        const AffineIndex& o = accs[j].index;
        const std::vector<int> pair = {accs[i].stmt, accs[j].stmt};
        if (i == j) {
          // A write conflicts with itself across iterations only when the
          // subscript is loop-invariant (every iteration hits the same
          // element) — and only if the loop actually has two iterations.
          if (w.scale == 0) {
            if (trip && *trip <= 1) {
              if (full) {
                emit(out, Severity::Note, name, pair,
                     "loop-invariant write refuted by the range test: the "
                     "loop runs at most one iteration");
              }
              continue;
            }
            emit(out, Severity::Error, name, pair,
                 "loop-invariant subscript written by all iterations");
            done = true;
          }
          continue;
        }
        if (w.scale == o.scale) {
          const std::int64_t diff = o.offset - w.offset;
          if (w.scale == 0) {
            // ZIV: two loop-invariant subscripts conflict iff equal
            // (every iteration touches that one element).
            if (diff == 0) {
              if (trip && *trip <= 1) {
                if (full) {
                  emit(out, Severity::Note, name, pair,
                       "loop-invariant conflict refuted by the range test: "
                       "the loop runs at most one iteration");
                }
                continue;
              }
              emit(out, Severity::Error, name, pair,
                   "loop-invariant subscript conflict");
              done = true;
            }
            continue;
          }
          // Strong SIV test: a dependence exists iff the offset difference
          // is a multiple of the common stride. Without the range test the
          // distance is NOT checked against the trip count — the original
          // tool's false-positive source on disjoint-halves kernels
          // (write a[i], read a[i + n/2]).
          if (diff != 0 && diff % w.scale == 0) {
            const std::int64_t distance = diff / w.scale;
            if (trip && (distance >= *trip || distance <= -*trip)) {
              if (full) {
                std::ostringstream msg;
                msg << "dependence distance " << distance
                    << " exceeds the loop trip count " << *trip
                    << " — refuted by the range test (the accesses touch "
                       "disjoint index ranges)";
                emit(out, Severity::Note, name, pair, msg.str());
              }
              continue;
            }
            emit(out, Severity::Error, name, pair,
                 "loop-carried dependence (SIV test)");
            done = true;
          }
          continue;
        }
        // Different strides (MIV). The original tool reports these
        // conservatively; the GCD test refutes pairs whose Diophantine
        // system has no integer solution, and when one subscript is
        // loop-invariant the solution can be checked against the bounds.
        const std::int64_t diff = o.offset - w.offset;
        if (full) {
          const std::int64_t g = gcd64(w.scale, o.scale);
          if (g != 0 && diff % g != 0) {
            if (full) {
              emit(out, Severity::Note, name, pair,
                   "offset difference is not divisible by gcd(strides) — "
                   "refuted by the GCD test");
            }
            continue;
          }
          const bool w_fixed = w.scale == 0;
          const bool o_fixed = o.scale == 0;
          if (w_fixed != o_fixed && lo && trip) {
            const AffineIndex& fixed = w_fixed ? w : o;
            const AffineIndex& varying = w_fixed ? o : w;
            // The varying access hits the fixed element at exactly one
            // iteration; refute when that iteration is outside [lo, hi).
            if ((fixed.offset - varying.offset) % varying.scale == 0) {
              const std::int64_t at =
                  (fixed.offset - varying.offset) / varying.scale;
              if (at < *lo || at >= *lo + *trip) {
                if (full) {
                  emit(out, Severity::Note, name, pair,
                       "conflicting iteration lies outside the loop bounds "
                       "— refuted by the range test");
                }
                continue;
              }
            }
          }
        }
        emit(out, Severity::Error, name, pair,
             "coupled subscripts with unequal strides (MIV)");
        done = true;
      }
    }
  }
}

}  // namespace hpcgpt::analysis
