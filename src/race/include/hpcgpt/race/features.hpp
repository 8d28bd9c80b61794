#pragma once

#include "hpcgpt/minilang/ast.hpp"

namespace hpcgpt::race {

/// Structural features of a program that drive tool-support decisions
/// (which constructs a tool handles) and the static analyzer.
struct ProgramFeatures {
  bool has_parallel_for = false;
  bool has_parallel_region = false;
  bool has_simd = false;
  bool has_target = false;
  bool has_atomic = false;
  bool has_critical = false;
  bool has_barrier = false;
  bool has_reduction = false;
  bool has_master_or_single = false;
  bool has_conditional = false;
  /// A subscript that is not affine in the loop variable (e.g. i % 2,
  /// a[b[i]], thread-id indexing) — outside polyhedral analyses.
  bool has_nonaffine_subscript = false;
  std::size_t statement_count = 0;
};

ProgramFeatures scan_features(const minilang::Program& program);

}  // namespace hpcgpt::race
