#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace hpcgpt::core {

/// Why a generation stopped. `Rejected` means the request never ran
/// (submitted to a server after shutdown, or shed because it can never
/// fit the server's KV page budget) — the other three are normal
/// terminations.
enum class FinishReason { Eos, Budget, ContextLimit, Rejected };

constexpr std::string_view finish_reason_name(FinishReason reason) {
  switch (reason) {
    case FinishReason::Eos: return "eos";
    case FinishReason::Budget: return "budget";
    case FinishReason::ContextLimit: return "context_limit";
    case FinishReason::Rejected: return "rejected";
  }
  return "?";
}

/// One generation request — the single request surface shared by
/// HpcGpt::generate / HpcGpt::classify_race, the evaluation harness and
/// serve::InferenceServer::submit, replacing the previous three ad-hoc
/// signatures.
struct GenerationRequest {
  /// Free-form question (Task 1) or code snippet (Task 2 classification).
  std::string prompt;
  /// Generation budget. 0 means "use the callee's default" (48 for
  /// HpcGpt::generate, ServeConfig::max_new_tokens for the server).
  std::size_t max_new_tokens = 0;
  /// Optional context budget in prompt tokens (the paper's 8k-token
  /// analogue). 0 disables the check; when set and exceeded, the request
  /// finishes with FinishReason::ContextLimit and no text — the typed
  /// form of the old RaceVerdict::TooLong.
  std::size_t token_limit = 0;
  /// Caller-chosen correlation id; the server assigns a fresh nonzero id
  /// when left at 0 and echoes it in the result.
  std::uint64_t id = 0;
};

/// The typed outcome every generation surface returns: text plus the
/// per-request accounting (token usage, stop cause, latency) that the
/// string-only API could not carry.
struct GenerationResult {
  std::uint64_t id = 0;
  std::string text;
  std::size_t prompt_tokens = 0;     ///< tokens ingested via prefill
  std::size_t generated_tokens = 0;  ///< tokens emitted by decoding
  FinishReason finish = FinishReason::Eos;
  double latency_seconds = 0.0;  ///< request start → result available

  /// False only for requests that never ran.
  bool ok() const { return finish != FinishReason::Rejected; }
};

}  // namespace hpcgpt::core
