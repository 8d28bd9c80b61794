#include "hpcgpt/retrieval/embedder.hpp"

#include <algorithm>
#include <cmath>

#include "hpcgpt/support/strings.hpp"

namespace hpcgpt::retrieval {

void TfidfEmbedder::fit(const std::vector<std::string>& corpus) {
  vocab_.clear();
  doc_freq_.clear();
  documents_ = corpus.size();
  std::size_t total_words = 0;
  for (const std::string& doc : corpus) {
    std::vector<std::string> words = strings::normalized_words(doc);
    total_words += words.size();
    std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());
    for (const std::string& w : words) {
      const auto [it, inserted] =
          vocab_.try_emplace(w, static_cast<TermId>(vocab_.size()));
      if (inserted) doc_freq_.push_back(0);
      ++doc_freq_[it->second];
    }
  }
  avg_doc_len_ = documents_ > 0
                     ? static_cast<double>(total_words) /
                           static_cast<double>(documents_)
                     : 0.0;
  idf_.resize(doc_freq_.size());
  for (std::size_t i = 0; i < doc_freq_.size(); ++i) {
    idf_[i] = std::log((1.0 + static_cast<double>(documents_)) /
                       (1.0 + static_cast<double>(doc_freq_[i]))) +
              1.0;
  }
}

SparseVector TfidfEmbedder::term_counts(const std::string& text) const {
  std::vector<TermId> ids;
  for (const std::string& w : strings::normalized_words(text)) {
    const auto it = vocab_.find(w);
    if (it != vocab_.end()) ids.push_back(it->second);
  }
  std::sort(ids.begin(), ids.end());
  SparseVector counts;
  for (std::size_t i = 0; i < ids.size();) {
    std::size_t j = i;
    while (j < ids.size() && ids[j] == ids[i]) ++j;
    counts.emplace_back(ids[i], static_cast<float>(j - i));
    i = j;
  }
  return counts;
}

SparseVector TfidfEmbedder::embed(const std::string& text) const {
  SparseVector v = term_counts(text);
  for (auto& [term, weight] : v) {
    weight = static_cast<float>(static_cast<double>(weight) * idf_[term]);
  }
  // Normalize against the norm of the float-rounded weights (not the
  // pre-rounding doubles) and divide in double: the only precision the
  // unit norm loses is the final per-component float rounding.
  double norm_sq = 0.0;
  for (const auto& [term, weight] : v) {
    norm_sq += static_cast<double>(weight) * static_cast<double>(weight);
  }
  if (norm_sq > 0.0) {
    const double inv = 1.0 / std::sqrt(norm_sq);
    for (auto& [term, weight] : v) {
      weight = static_cast<float>(static_cast<double>(weight) * inv);
    }
  }
  return v;
}

}  // namespace hpcgpt::retrieval
