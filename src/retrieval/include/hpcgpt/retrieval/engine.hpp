#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hpcgpt/retrieval/embedder.hpp"
#include "hpcgpt/retrieval/index.hpp"

namespace hpcgpt::retrieval {

/// Every retrieval knob in one validated bag (mirrors serve::ServeConfig;
/// the CLI flags map 1:1 onto these fields).
struct RetrievalConfig {
  /// Which query path top_k() takes.
  ///  - Scan: brute-force over every stored document (the paper-scale
  ///    baseline; exact).
  ///  - Indexed: WAND top-k over the compressed inverted index — returns
  ///    the *same ranking* as Scan while touching a fraction of the index.
  enum class Engine { Scan, Indexed };
  /// Document-side impact weighting stored in the index.
  enum class Weighting { Tfidf, Bm25 };

  Engine engine = Engine::Indexed;
  Weighting weighting = Weighting::Tfidf;
  double bm25_k1 = 1.2;
  double bm25_b = 0.75;

  /// Throws InvalidArgument (std::invalid_argument) on nonsense.
  void validate() const;
};

std::string_view engine_name(RetrievalConfig::Engine engine);
RetrievalConfig::Engine engine_by_name(std::string_view name);

/// The retrieval engine: a compressed inverted index with WAND top-k, and
/// the brute-force scan kept as the reference path. A document is
/// searchable as soon as add() returns. top_k() is const and safe to call
/// concurrently; add() needs external serialization against queries.
class SearchEngine {
 public:
  explicit SearchEngine(TfidfEmbedder embedder, RetrievalConfig config = {});

  void add(std::string chunk);
  void add_all(const std::vector<std::string>& chunks);
  std::size_t size() const { return texts_.size(); }

  /// The k best chunks for `query`, best first (score desc, index asc),
  /// routed through config().engine.
  std::vector<Hit> top_k(const std::string& query, std::size_t k) const;
  /// Same, forcing a specific engine — the equivalence property tests and
  /// the scan-vs-indexed bench compare paths over one shared index.
  std::vector<Hit> top_k_with(const std::string& query, std::size_t k,
                              RetrievalConfig::Engine engine) const;

  const RetrievalConfig& config() const { return config_; }
  const TfidfEmbedder& embedder() const { return embedder_; }
  const InvertedIndex::Stats& stats() const { return index_.stats(); }

 private:
  /// Quantized document-side term weights (sorted by term id, zero
  /// impacts dropped) — the single source both scan and WAND score from.
  using DocVec = std::vector<std::pair<TermId, std::uint8_t>>;

  DocVec doc_weights(const std::string& text) const;
  std::vector<std::pair<TermId, double>> query_weights(
      const std::string& query) const;
  double doc_score(const DocVec& doc,
                   const std::vector<std::pair<TermId, double>>& query) const;
  std::vector<Hit> scan_top_k(
      const std::vector<std::pair<TermId, double>>& query,
      std::size_t k) const;
  std::vector<Hit> indexed_top_k(
      const std::vector<std::pair<TermId, double>>& query,
      std::size_t k) const;
  /// Pads `hits` to k with never-matched docs in index order at score 0
  /// (exactly what the scan's ranking does below the matched docs).
  void fill_unmatched(std::vector<Hit>& hits, std::size_t k) const;

  TfidfEmbedder embedder_;
  RetrievalConfig config_;
  double impact_scale_ = 1.0 / 255.0;
  InvertedIndex index_;
  std::vector<std::string> texts_;
  std::vector<DocVec> vectors_;
};

}  // namespace hpcgpt::retrieval
