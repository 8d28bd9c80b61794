#include "hpcgpt/retrieval/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "hpcgpt/obs/metrics.hpp"
#include "hpcgpt/obs/trace.hpp"

namespace hpcgpt::retrieval {

namespace {

[[noreturn]] void invalid(const std::string& what) {
  throw std::invalid_argument("RetrievalConfig: " + what);
}

}  // namespace

void RetrievalConfig::validate() const {
  if (bm25_k1 <= 0.0) invalid("bm25_k1 must be > 0");
  if (bm25_b < 0.0 || bm25_b > 1.0) invalid("bm25_b must be in [0, 1]");
}

std::string_view engine_name(RetrievalConfig::Engine engine) {
  switch (engine) {
    case RetrievalConfig::Engine::Scan: return "scan";
    case RetrievalConfig::Engine::Indexed: return "indexed";
  }
  return "indexed";
}

RetrievalConfig::Engine engine_by_name(std::string_view name) {
  if (name == "scan") return RetrievalConfig::Engine::Scan;
  if (name == "indexed") return RetrievalConfig::Engine::Indexed;
  throw std::invalid_argument("unknown retrieval engine: " + std::string(name) +
                              " (expected scan|indexed)");
}

SearchEngine::SearchEngine(TfidfEmbedder embedder, RetrievalConfig config)
    : embedder_(std::move(embedder)), config_(config) {
  config_.validate();
  if (config_.weighting == RetrievalConfig::Weighting::Bm25) {
    // BM25's per-term doc weight is bounded by k1 + 1; quantize against it.
    impact_scale_ = (config_.bm25_k1 + 1.0) / 255.0;
  }
}

SearchEngine::DocVec SearchEngine::doc_weights(const std::string& text) const {
  DocVec out;
  if (config_.weighting == RetrievalConfig::Weighting::Tfidf) {
    // L2-normalized TF-IDF weights are in [0, 1].
    for (const auto& [term, weight] : embedder_.embed(text)) {
      const double q = std::round(static_cast<double>(weight) / impact_scale_);
      const auto impact =
          static_cast<std::uint8_t>(std::clamp(q, 0.0, 255.0));
      if (impact > 0) out.emplace_back(term, impact);
    }
    return out;
  }
  const SparseVector counts = embedder_.term_counts(text);
  double dl = 0.0;
  for (const auto& [term, tf] : counts) dl += static_cast<double>(tf);
  const double avgdl = std::max(embedder_.average_doc_length(), 1e-9);
  const double k1 = config_.bm25_k1;
  const double b = config_.bm25_b;
  for (const auto& [term, tf_f] : counts) {
    const double tf = static_cast<double>(tf_f);
    const double w =
        tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl));
    const double q = std::round(w / impact_scale_);
    const auto impact = static_cast<std::uint8_t>(std::clamp(q, 0.0, 255.0));
    if (impact > 0) out.emplace_back(term, impact);
  }
  return out;
}

std::vector<std::pair<TermId, double>> SearchEngine::query_weights(
    const std::string& query) const {
  std::vector<std::pair<TermId, double>> out;
  if (config_.weighting == RetrievalConfig::Weighting::Tfidf) {
    for (const auto& [term, weight] : embedder_.embed(query)) {
      if (weight > 0.0f) out.emplace_back(term, static_cast<double>(weight));
    }
    return out;
  }
  const double n = static_cast<double>(embedder_.documents());
  for (const auto& [term, tf] : embedder_.term_counts(query)) {
    const double df = static_cast<double>(embedder_.doc_frequency(term));
    const double idf = std::log(1.0 + (n - df + 0.5) / (df + 0.5));
    const double weight = static_cast<double>(tf) * idf;
    if (weight > 0.0) out.emplace_back(term, weight);
  }
  return out;
}

void SearchEngine::add(std::string chunk) {
  const auto doc = static_cast<DocId>(texts_.size());
  DocVec weights = doc_weights(chunk);
  index_.add_document(doc, weights);
  vectors_.push_back(std::move(weights));
  texts_.push_back(std::move(chunk));
}

void SearchEngine::add_all(const std::vector<std::string>& chunks) {
  for (const std::string& c : chunks) add(c);
}

// Exact per-document score: merge-join of the quantized doc vector with
// the query, accumulated in ascending term-id order. WAND's evaluation
// uses the identical expression and order, so both paths produce bitwise
// equal doubles — the foundation of the ranking-equivalence guarantee.
double SearchEngine::doc_score(
    const DocVec& doc,
    const std::vector<std::pair<TermId, double>>& query) const {
  double score = 0.0;
  auto id = doc.begin();
  auto iq = query.begin();
  while (id != doc.end() && iq != query.end()) {
    if (id->first < iq->first) {
      ++id;
    } else if (iq->first < id->first) {
      ++iq;
    } else {
      score += iq->second * (static_cast<double>(id->second) * impact_scale_);
      ++id;
      ++iq;
    }
  }
  return score;
}

std::vector<Hit> SearchEngine::top_k(const std::string& query,
                                     std::size_t k) const {
  return top_k_with(query, k, config_.engine);
}

std::vector<Hit> SearchEngine::top_k_with(
    const std::string& query, std::size_t k,
    RetrievalConfig::Engine engine) const {
  HPCGPT_TRACE("retrieval.query");
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& queries = registry.counter("retrieval.query.count");
  static obs::Histogram& seconds = registry.histogram("retrieval.query.seconds");
  const auto start = std::chrono::steady_clock::now();
  queries.add();

  const std::vector<std::pair<TermId, double>> weights = query_weights(query);
  std::vector<Hit> hits;
  switch (engine) {
    case RetrievalConfig::Engine::Scan:
      hits = scan_top_k(weights, k);
      break;
    case RetrievalConfig::Engine::Indexed:
      hits = indexed_top_k(weights, k);
      break;
  }

  seconds.observe(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count());
  return hits;
}

std::vector<Hit> SearchEngine::scan_top_k(
    const std::vector<std::pair<TermId, double>>& query, std::size_t k) const {
  std::vector<Hit> hits;
  hits.reserve(texts_.size());
  for (std::size_t i = 0; i < texts_.size(); ++i) {
    Hit h;
    h.index = i;
    h.score = doc_score(vectors_[i], query);
    hits.push_back(std::move(h));
  }
  const std::size_t keep = std::min(k, hits.size());
  std::partial_sort(hits.begin(),
                    hits.begin() + static_cast<std::ptrdiff_t>(keep),
                    hits.end(), [](const Hit& x, const Hit& y) {
                      return x.score > y.score ||
                             (x.score == y.score && x.index < y.index);
                    });
  hits.resize(keep);
  for (Hit& h : hits) h.text = texts_[h.index];
  return hits;
}

void SearchEngine::fill_unmatched(std::vector<Hit>& hits,
                                  std::size_t k) const {
  if (hits.size() >= k) return;
  std::vector<std::size_t> taken;
  taken.reserve(hits.size());
  for (const Hit& h : hits) taken.push_back(h.index);
  std::sort(taken.begin(), taken.end());
  for (std::size_t i = 0; i < texts_.size() && hits.size() < k; ++i) {
    if (std::binary_search(taken.begin(), taken.end(), i)) continue;
    Hit h;
    h.index = i;
    h.score = 0.0;
    h.text = texts_[i];
    hits.push_back(std::move(h));
  }
}

std::vector<Hit> SearchEngine::indexed_top_k(
    const std::vector<std::pair<TermId, double>>& query, std::size_t k) const {
  WandStats wstats;
  const std::vector<ScoredDoc> scored =
      wand_top_k(index_, query, impact_scale_, k, &wstats);
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& docs_scored =
      registry.counter("retrieval.query.docs_scored");
  static obs::Counter& blocks_skipped =
      registry.counter("retrieval.query.blocks_skipped");
  static obs::Counter& postings_decoded =
      registry.counter("retrieval.query.postings_decoded");
  docs_scored.add(wstats.docs_scored);
  blocks_skipped.add(wstats.blocks_skipped);
  postings_decoded.add(wstats.postings_decoded);

  std::vector<Hit> hits;
  hits.reserve(scored.size());
  for (const ScoredDoc& s : scored) {
    Hit h;
    h.index = s.doc;
    h.score = s.score;
    h.text = texts_[s.doc];
    hits.push_back(std::move(h));
  }
  fill_unmatched(hits, k);
  return hits;
}

}  // namespace hpcgpt::retrieval
