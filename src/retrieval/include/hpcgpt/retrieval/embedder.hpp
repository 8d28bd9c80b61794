#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace hpcgpt::retrieval {

/// Term identifier in a fitted TfidfEmbedder vocabulary.
using TermId = std::uint32_t;

/// Document identifier: position in an engine's document list. Docs
/// are appended with strictly increasing ids, which keeps every postings
/// list sorted as it is appended, so each can be compressed as it grows.
using DocId = std::uint32_t;

/// Sparse embedding: (term id, weight) pairs sorted by ascending term id.
/// Flat and contiguous — one allocation per vector instead of the old
/// `std::map`'s node per term, which dominated the query hot path.
using SparseVector = std::vector<std::pair<TermId, float>>;

/// TF-IDF document embedder over normalized words.
///
/// This is the embedding component of `SearchEngine` (engine.hpp), the
/// LangChain-style vector store the paper proposes (§5) for updating
/// HPC-GPT with new data without retraining: text is chunked, embedded
/// and matched against prompts by similarity.
class TfidfEmbedder {
 public:
  /// Learns the vocabulary and document frequencies from `corpus`.
  void fit(const std::vector<std::string>& corpus);

  /// Sparse TF-IDF vector, L2-normalized, sorted by term id.
  SparseVector embed(const std::string& text) const;

  /// Raw term-frequency counts (no idf, no normalization), sorted by term
  /// id — the BM25 weighting input.
  SparseVector term_counts(const std::string& text) const;

  std::size_t vocabulary_size() const { return vocab_.size(); }
  bool fitted() const { return documents_ > 0; }
  std::size_t documents() const { return documents_; }
  /// Number of fitted documents containing `term`.
  std::size_t doc_frequency(TermId term) const { return doc_freq_[term]; }
  double idf(TermId term) const { return idf_[term]; }
  /// Mean fitted document length in normalized words (BM25's avgdl),
  /// frozen at fit() time so incremental adds don't reweight old docs.
  double average_doc_length() const { return avg_doc_len_; }

 private:
  std::map<std::string, TermId> vocab_;
  std::vector<double> idf_;
  std::vector<std::uint32_t> doc_freq_;
  std::size_t documents_ = 0;
  double avg_doc_len_ = 0.0;
};

/// A scored retrieval hit.
struct Hit {
  std::size_t index = 0;  ///< the document's DocId in its engine
  double score = 0.0;
  std::string text;
};

}  // namespace hpcgpt::retrieval
