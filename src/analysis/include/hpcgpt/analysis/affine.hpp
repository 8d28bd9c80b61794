#pragma once

#include <cstdint>
#include <string>

#include "hpcgpt/minilang/ast.hpp"

namespace hpcgpt::analysis {

/// Affine subscript decomposition w.r.t. a loop variable:
/// index == scale*loop_var + offset. The race detectors' feature scan
/// calls this too, so the detectors and the verifier can never disagree
/// about which subscripts are analyzable.
struct AffineIndex {
  bool affine = false;
  std::int64_t scale = 0;
  std::int64_t offset = 0;
};

/// Tries to express `index` as scale*loop_var + offset with constant
/// coefficients. Any other shape (modulo, nested arrays, other variables,
/// thread ids) yields affine == false.
AffineIndex affine_in(const minilang::Expr& index,
                      const std::string& loop_var);

}  // namespace hpcgpt::analysis
