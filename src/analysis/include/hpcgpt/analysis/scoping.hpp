#pragma once

#include <vector>

#include "hpcgpt/analysis/access.hpp"
#include "hpcgpt/analysis/diagnostic.hpp"
#include "hpcgpt/minilang/ast.hpp"

namespace hpcgpt::analysis {

/// Data-sharing & scoping lint for one parallel loop. The three Error
/// findings reproduce the original LLOV-style scalar analysis bit for bit
/// (same conditions, same order, same messages); everything else is
/// Warning/Note only: read-before-write privates, redundant firstprivate,
/// overwritten reductions and unused clauses, emitted in Scope::Full only.
void run_scoping_pass(const minilang::Stmt& loop, const LoopAccesses& accesses,
                      const StmtIndex& index, Scope scope,
                      std::vector<Diagnostic>& out);

}  // namespace hpcgpt::analysis
