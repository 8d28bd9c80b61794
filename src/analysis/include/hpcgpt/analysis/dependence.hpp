#pragma once

#include <vector>

#include "hpcgpt/analysis/access.hpp"
#include "hpcgpt/analysis/diagnostic.hpp"
#include "hpcgpt/minilang/ast.hpp"

namespace hpcgpt::analysis {

/// Cross-iteration dependence testing (ZIV / strong SIV / MIV) over the
/// 1-D affine array accesses of one parallel loop. Scope::Full adds three
/// refinements the original tool lacks:
///  * the GCD test on coupled subscripts with unequal strides (a
///    dependence only when gcd(s1, s2) divides the offset difference;
///    the original reports MIV pairs unconditionally);
///  * the range test on constant-bound loops (a distance that places the
///    conflicting iteration outside the trip range is refuted, which
///    fixes the disjoint-halves false positive);
///  * Note findings for refuted dependences and skipped non-affine
///    subscripts, so the lint output explains silence.
void run_dependence_pass(const minilang::Stmt& loop,
                         const LoopAccesses& accesses, const StmtIndex& index,
                         Scope scope, std::vector<Diagnostic>& out);

}  // namespace hpcgpt::analysis
