#pragma once

#include <string>
#include <vector>

#include "hpcgpt/core/generation.hpp"
#include "hpcgpt/datagen/record.hpp"
#include "hpcgpt/nn/adam.hpp"
#include "hpcgpt/nn/transformer.hpp"
#include "hpcgpt/text/tokenizer.hpp"

namespace hpcgpt::core {

/// Identity of a base model in the experiment zoo. Each stands in for one
/// of the paper's baselines at laptop scale; they share the architecture
/// and tokenizer and differ in pre-training breadth and (for the
/// commercial-LLM sims) incidental HPC exposure.
enum class BaseModel { Llama, Llama2, Gpt35, Gpt4 };

std::string base_model_name(BaseModel base);

/// Data-parallel training-engine knobs, shared by pretrain and finetune
/// (they configure the nn::Trainer; see DESIGN.md "Training engine").
/// The defaults reproduce the classic one-sequence-per-step sequential
/// loop exactly, so existing training runs are unchanged unless opted in.
struct TrainOptions {
  /// Data-parallel workers (model replicas). 0 = usable_cores(), the
  /// CPUs in the affinity mask.
  /// Any value trains bitwise the same weights as workers=1.
  std::size_t workers = 1;
  /// Sequences accumulated (and gradient-averaged) per optimizer step.
  std::size_t micro_batch = 1;
  /// Fine-tuning only: concatenate short instruction pairs up to the
  /// context window (targets masked with -1 at boundaries) so train
  /// steps feed the GEMM at batch width instead of width ~30.
  bool pack_sequences = false;
};

/// Hyper-parameters of one model instance.
struct ModelOptions {
  std::string name = "llama_sim";
  nn::TransformerConfig config;
  std::size_t pretrain_steps = 300;
  /// Number of labelled HPC instances mixed into the pre-training stream —
  /// models the "web data happens to include some HPC text" advantage of
  /// the GPT-3.5/GPT-4 baselines over LLaMA.
  std::size_t hpc_exposure = 0;
  float pretrain_lr = 3e-3f;
  std::uint64_t seed = 1;
  /// Inference weight storage (CLI --quant). Applied after construction /
  /// bundle load via HpcGpt::set_quant_mode; Fp32 keeps the trainable
  /// model. Quantization happens post-training: pretrain/finetune require
  /// Fp32 and a quantized instance cannot be re-saved.
  tensor::QuantMode quant = tensor::QuantMode::Fp32;
  /// Engine knobs for the pre-training loop (packing does not apply:
  /// pre-training windows already fill the training width).
  TrainOptions train;
};

/// The default architecture used throughout the experiments (sized to
/// train on one CPU core in seconds-to-minutes).
nn::TransformerConfig default_architecture();

/// Canonical options per base model.
ModelOptions spec_for(BaseModel base);

/// Supervised fine-tuning settings (§4.1: LoRA + PEFT, fp16, lr 2e-5 at
/// paper scale — scaled up here for the small model).
struct FinetuneOptions {
  std::size_t epochs = 2;
  float learning_rate = 2e-3f;
  /// Subsample cap on training records (0 = all) — wall-clock control.
  std::size_t max_records = 0;
  std::uint64_t shuffle_seed = 5;
  /// Engine knobs for the fine-tuning loop.
  TrainOptions train;
};

struct FinetuneReport {
  std::size_t records_used = 0;
  /// Train steps taken (packed sequences when packing is on).
  std::size_t steps = 0;
  double first_epoch_loss = 0.0;
  double last_epoch_loss = 0.0;
  std::size_t trainable_parameters = 0;
  double wall_seconds = 0.0;
  /// Total input tokens fed through train steps, and the resulting
  /// training throughput (tokens / wall_seconds) — the headline number
  /// the A-series perf bench tracks.
  std::size_t tokens = 0;
  double tokens_per_second = 0.0;
  /// Resolved data-parallel worker count used by the engine.
  std::size_t workers = 1;
};

/// Outcome of a race-classification query.
enum class RaceVerdict { Yes, No, TooLong };

/// Typed outcome of the unified classify_race surface: the verdict plus
/// the same per-request accounting every other generation path reports.
/// TooLong pairs with FinishReason::ContextLimit.
struct RaceClassification {
  RaceVerdict verdict = RaceVerdict::No;
  GenerationResult result;
};

/// An HPC-GPT model instance: shared tokenizer + transformer + the
/// pre-train / fine-tune / ask / classify operations of the Figure 1
/// pipeline.
class HpcGpt {
 public:
  HpcGpt(ModelOptions options, text::BpeTokenizer tokenizer);

  const std::string& name() const { return options_.name; }
  const text::BpeTokenizer& tokenizer() const { return tokenizer_; }
  nn::Transformer& model() { return model_; }

  /// Quantizes the transformer's weights for inference (int8/fp16); see
  /// nn::Transformer::set_quant_mode for the exact semantics. The serve
  /// flow is load-then-quantize: bundles always carry fp32 weights.
  void set_quant_mode(tensor::QuantMode mode) {
    model_.set_quant_mode(mode);
    options_.quant = model_.quant_mode();
  }
  tensor::QuantMode quant_mode() const { return model_.quant_mode(); }

  /// Language-model pre-training on raw text. `hpc_examples` (possibly
  /// empty) are labelled instances serialized into the stream per
  /// options_.hpc_exposure.
  void pretrain(const std::vector<std::string>& corpus,
                const std::vector<datagen::InstructionRecord>& hpc_examples);

  /// Supervised fine-tuning on instruction records (loss on answer tokens
  /// only). Uses LoRA/PEFT when the architecture config enables it.
  FinetuneReport finetune(
      const std::vector<datagen::InstructionRecord>& records,
      const FinetuneOptions& options = {});

  /// Free-form question answering (greedy decoding) with full
  /// per-request accounting: token usage, finish reason and latency. The
  /// single entry point behind ask(), the CLI, the evaluation harness
  /// and the inference server. request.id is echoed into the result.
  GenerationResult generate(const GenerationRequest& request);

  /// Convenience wrapper over generate(): returns only the text.
  std::string ask(const std::string& question,
                  std::size_t max_new_tokens = 48);

  /// The exact token prompt ask() would feed the model for `question`:
  /// [BOS] question [SEP], left-clamped so `max_new_tokens` still fit in
  /// the context window. Exposed so external engines (the batching
  /// inference server) can drive prefill/decode_step themselves. When
  /// `unclamped_tokens` is set it receives the length before clamping
  /// (question_prompt_tokens), so one encode serves both.
  std::vector<text::TokenId> prompt_ids(
      const std::string& question, std::size_t max_new_tokens,
      std::size_t* unclamped_tokens = nullptr) const;

  /// Race classification in the Table 1 format over the unified request
  /// surface: request.prompt is the code snippet, request.token_limit the
  /// 8k-context analogue (the verdict is TooLong / ContextLimit when the
  /// encoded instruction prompt exceeds it — the effect that produces
  /// TSR < 1 in Table 5).
  RaceClassification classify_race(const GenerationRequest& request);

  /// Token count of the encoded free-form prompt for `question` (before
  /// any context clamping) — what token_limit checks compare against.
  std::size_t question_prompt_tokens(const std::string& question) const;

  /// Builds the exact Task-2 instruction text around a snippet.
  static std::string race_instruction(const std::string& snippet);

  /// Token count of the encoded classification prompt for `snippet`.
  std::size_t prompt_tokens(const std::string& snippet) const;

  /// Serializes the deployable bundle: model name + tokenizer merges +
  /// fp16 weights. load() restores a ready-to-serve instance — the
  /// artifact the Figure-1 deployment stage ships to the web server.
  std::string save_bundle();
  static HpcGpt load_bundle(const std::string& blob);
  void save_bundle_file(const std::string& path);
  static HpcGpt load_bundle_file(const std::string& path);

 private:
  HpcGpt(ModelOptions options, text::BpeTokenizer tokenizer,
         nn::Transformer model);

  std::vector<text::TokenId> encode_prompt(const std::string& question) const;

  ModelOptions options_;
  text::BpeTokenizer tokenizer_;
  nn::Transformer model_;
};

/// Trains the shared BPE tokenizer on a corpus representative of both
/// tasks (KB text + code snippets), so every model sees identical token
/// streams.
text::BpeTokenizer build_shared_tokenizer(std::size_t vocab_size = 512,
                                          std::uint64_t seed = 3);

}  // namespace hpcgpt::core
