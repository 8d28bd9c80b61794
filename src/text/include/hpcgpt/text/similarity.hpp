#pragma once

#include <string_view>

namespace hpcgpt::text {

/// Word-level similarity used by the filtering/pruning stage of the
/// instruction pipeline (paper §3.2: "do not generate the same or similar
/// questions as generated before") to detect near-duplicate instructions.
///
/// The metric operates on lowercased, punctuation-stripped word sequences
/// and returns a value in [0, 1], where 1 means identical.

/// ROUGE-L F1: longest-common-subsequence based similarity, the standard
/// instruction-dedup metric (Self-Instruct uses ROUGE-L > 0.7 as the cut).
double rouge_l(std::string_view a, std::string_view b);

}  // namespace hpcgpt::text
