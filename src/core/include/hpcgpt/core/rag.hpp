#pragma once

#include <string>

#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/retrieval/engine.hpp"

namespace hpcgpt::core {

/// Retrieval-augmented answering (the paper's §5 LangChain route, wired
/// end-to-end): retrieve the chunks most relevant to `question`, splice
/// them into the prompt as context, and let the model answer. The engine
/// can be updated with new facts at any time without touching weights.
struct RagOptions {
  std::size_t top_k = 2;
  std::size_t max_new_tokens = 48;
  /// Below this relevance score the context is considered irrelevant and
  /// the model answers unaided.
  double min_score = 0.05;
};

struct RagAnswer {
  std::string text;
  std::vector<retrieval::Hit> context;  ///< chunks actually used
  bool used_context = false;
};

/// Drops trailing hits below `min_score` (hits arrive best-first, so the
/// cut keeps a relevant prefix).
void trim_context(std::vector<retrieval::Hit>& hits, double min_score);

/// The paper's chunk-matching prompt shape: context first, then the
/// question — mirroring the Listing 2 "knowledge then question" order the
/// model was trained with. Shared by rag_ask and the serve path's
/// RAG pre-stage.
std::string rag_prompt(const std::vector<retrieval::Hit>& context,
                       const std::string& question);

/// Retrieval routed through the SearchEngine (the query path, scan or
/// indexed, is the engine's RetrievalConfig::engine).
RagAnswer rag_ask(HpcGpt& model, const retrieval::SearchEngine& engine,
                  const std::string& question, const RagOptions& options = {});

}  // namespace hpcgpt::core
