#include "hpcgpt/text/similarity.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "hpcgpt/support/strings.hpp"

namespace hpcgpt::text {

namespace {

std::size_t lcs_length(const std::vector<std::string>& a,
                       const std::vector<std::string>& b) {
  if (a.empty() || b.empty()) return 0;
  // Rolling single-row DP: O(|a|*|b|) time, O(|b|) space.
  std::vector<std::size_t> row(b.size() + 1, 0);
  for (const std::string& wa : a) {
    std::size_t diagonal = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      const std::size_t above = row[j + 1];
      row[j + 1] = (wa == b[j]) ? diagonal + 1 : std::max(above, row[j]);
      diagonal = above;
    }
  }
  return row[b.size()];
}

}  // namespace

double rouge_l(std::string_view a, std::string_view b) {
  const auto wa = strings::normalized_words(a);
  const auto wb = strings::normalized_words(b);
  if (wa.empty() && wb.empty()) return 1.0;
  if (wa.empty() || wb.empty()) return 0.0;
  const double lcs = static_cast<double>(lcs_length(wa, wb));
  if (lcs == 0.0) return 0.0;
  const double precision = lcs / static_cast<double>(wb.size());
  const double recall = lcs / static_cast<double>(wa.size());
  return 2.0 * precision * recall / (precision + recall);
}

}  // namespace hpcgpt::text
