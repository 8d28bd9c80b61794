#include "hpcgpt/core/rag.hpp"

namespace hpcgpt::core {

void trim_context(std::vector<retrieval::Hit>& hits, double min_score) {
  while (!hits.empty() && hits.back().score < min_score) hits.pop_back();
}

std::string rag_prompt(const std::vector<retrieval::Hit>& context,
                       const std::string& question) {
  std::string prompt = "The HPC knowledge is: ";
  for (const retrieval::Hit& hit : context) {
    prompt += hit.text;
    prompt += ' ';
  }
  prompt += "Based on the knowledge above, answer: " + question;
  return prompt;
}

RagAnswer rag_ask(HpcGpt& model, const retrieval::SearchEngine& engine,
                  const std::string& question, const RagOptions& options) {
  RagAnswer answer;
  answer.context = engine.top_k(question, options.top_k);
  trim_context(answer.context, options.min_score);
  if (answer.context.empty()) {
    answer.text = model.ask(question, options.max_new_tokens);
    return answer;
  }
  answer.text =
      model.ask(rag_prompt(answer.context, question), options.max_new_tokens);
  answer.used_context = true;
  return answer;
}

}  // namespace hpcgpt::core
