#pragma once

#include <string>

#include "hpcgpt/analysis/dependence.hpp"
#include "hpcgpt/analysis/diagnostic.hpp"
#include "hpcgpt/analysis/mhp.hpp"
#include "hpcgpt/analysis/scoping.hpp"
#include "hpcgpt/minilang/ast.hpp"

namespace hpcgpt::analysis {

/// Runs the passes `scope` selects over `program` and collects their
/// findings, in program traversal order (per construct: scoping before
/// dependence). Scope::Llov skips the MHP pass (regions are merely
/// recorded; the LLOV verdict mapping turns "regions but no loops" into
/// Unsupported, like the real tool's loop-verifier scope).
Report verify(const minilang::Program& program, Scope scope = Scope::Full);

/// One-sentence rationale for a Task-2 instruction record: the leading
/// error finding rendered as prose, or a "no conflicting accesses" line
/// for clean reports. Always non-empty.
std::string rationale_text(const Report& report);

}  // namespace hpcgpt::analysis
