#include "hpcgpt/core/hpcgpt.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "hpcgpt/drb/drb.hpp"
#include "hpcgpt/kb/kb.hpp"
#include "hpcgpt/nn/checkpoint.hpp"
#include "hpcgpt/nn/sampler.hpp"
#include "hpcgpt/nn/trainer.hpp"
#include "hpcgpt/obs/metrics.hpp"
#include "hpcgpt/obs/trace.hpp"
#include "hpcgpt/support/error.hpp"
#include "hpcgpt/support/timer.hpp"

namespace hpcgpt::core {

using text::BpeTokenizer;
using text::TokenId;

namespace {

/// Training-loop metrics (process-wide): step counts and mean per-step
/// wall time of the two Figure-1 training stages (one observation per
/// epoch since the engine owns the inner loop — the per-worker timing
/// detail lives in the nn.train.* metrics), so regressions in the
/// backprop path show up in `hpcgpt obs dump` without a dedicated bench.
struct TrainingMetrics {
  obs::Counter& pretrain_steps;
  obs::Histogram& pretrain_step_seconds;
  obs::Counter& finetune_steps;
  obs::Histogram& finetune_step_seconds;
};

TrainingMetrics& training_metrics() {
  auto& r = obs::MetricsRegistry::global();
  static TrainingMetrics m{
      r.counter("core.pretrain.steps"),
      r.histogram("core.pretrain.step_seconds"),
      r.counter("core.finetune.steps"),
      r.histogram("core.finetune.step_seconds"),
  };
  return m;
}

}  // namespace

std::string base_model_name(BaseModel base) {
  switch (base) {
    case BaseModel::Llama: return "LLaMA";
    case BaseModel::Llama2: return "LLaMA 2";
    case BaseModel::Gpt35: return "GPT-3.5";
    case BaseModel::Gpt4: return "GPT-4";
  }
  return "?";
}

nn::TransformerConfig default_architecture() {
  nn::TransformerConfig c;
  c.vocab_size = 512;
  c.d_model = 48;
  c.n_heads = 4;
  c.n_layers = 2;
  c.d_ff = 96;
  c.max_seq = 288;
  return c;
}

ModelOptions spec_for(BaseModel base) {
  ModelOptions o;
  o.config = default_architecture();
  switch (base) {
    case BaseModel::Llama:
      o.name = "llama_sim";
      o.pretrain_steps = 300;
      o.hpc_exposure = 0;
      o.seed = 101;
      break;
    case BaseModel::Llama2:
      // "trained on 40% more data": more pre-training steps.
      o.name = "llama2_sim";
      o.pretrain_steps = 450;
      o.hpc_exposure = 0;
      o.seed = 102;
      break;
    case BaseModel::Gpt35:
      o.name = "gpt35_sim";
      o.pretrain_steps = 500;
      o.hpc_exposure = 120;
      o.seed = 103;
      break;
    case BaseModel::Gpt4:
      o.name = "gpt4_sim";
      o.pretrain_steps = 800;
      o.hpc_exposure = 380;
      o.seed = 104;
      break;
  }
  return o;
}

HpcGpt::HpcGpt(ModelOptions options, BpeTokenizer tokenizer)
    : options_(std::move(options)),
      tokenizer_(std::move(tokenizer)),
      model_([&] {
        nn::TransformerConfig c = options_.config;
        c.vocab_size = std::max(c.vocab_size, tokenizer_.vocab_size());
        // Quantization is an inference-time repack applied after any
        // pretraining this instance will do, not at construction.
        c.quant = tensor::QuantMode::Fp32;
        return nn::Transformer(c, options_.seed);
      }()) {
  if (options_.quant != tensor::QuantMode::Fp32) {
    // Requested an inference-only instance: repack immediately. A later
    // pretrain()/finetune() on it fails with the train-on-quantized error.
    set_quant_mode(options_.quant);
  }
}

HpcGpt::HpcGpt(ModelOptions options, BpeTokenizer tokenizer,
               nn::Transformer model)
    : options_(std::move(options)),
      tokenizer_(std::move(tokenizer)),
      model_(std::move(model)) {
  options_.config = model_.config();
}

void HpcGpt::pretrain(
    const std::vector<std::string>& corpus,
    const std::vector<datagen::InstructionRecord>& hpc_examples) {
  // Build one token stream: documents separated by EOS, plus the model's
  // share of labelled HPC instances serialized as instruction⟂answer text.
  std::vector<TokenId> stream;
  for (const std::string& doc : corpus) {
    const auto ids = tokenizer_.encode(doc);
    stream.push_back(BpeTokenizer::kBos);
    stream.insert(stream.end(), ids.begin(), ids.end());
    stream.push_back(BpeTokenizer::kEos);
  }
  const std::size_t exposure =
      std::min(options_.hpc_exposure, hpc_examples.size());
  for (std::size_t i = 0; i < exposure; ++i) {
    const datagen::InstructionRecord& r = hpc_examples[i];
    const auto q = tokenizer_.encode(r.instruction);
    const auto a = tokenizer_.encode(r.output);
    stream.push_back(BpeTokenizer::kBos);
    stream.insert(stream.end(), q.begin(), q.end());
    stream.push_back(BpeTokenizer::kSep);
    stream.insert(stream.end(), a.begin(), a.end());
    stream.push_back(BpeTokenizer::kEos);
  }
  require(stream.size() > 8, "pretrain: corpus too small");

  const std::size_t window =
      std::min<std::size_t>(options_.config.max_seq, 128);
  Rng rng(options_.seed * 31 + 7);
  HPCGPT_TRACE("core.pretrain");
  TrainingMetrics& metrics = training_metrics();

  // Draw every window up front with the exact RNG call sequence of the
  // classic loop (one next_below per step), then hand the whole epoch to
  // the engine — window selection stays bit-identical across worker and
  // micro-batch settings.
  std::vector<nn::TrainSequence> sequences;
  sequences.reserve(options_.pretrain_steps);
  for (std::size_t step = 0; step < options_.pretrain_steps; ++step) {
    const std::size_t max_start =
        stream.size() > window + 1 ? stream.size() - window - 1 : 0;
    const std::size_t start =
        max_start == 0 ? 0
                       : static_cast<std::size_t>(rng.next_below(max_start));
    const std::size_t len = std::min(window, stream.size() - start - 1);
    nn::TrainSequence seq;
    seq.ids.assign(stream.begin() + static_cast<std::ptrdiff_t>(start),
                   stream.begin() + static_cast<std::ptrdiff_t>(start + len));
    seq.targets.resize(len);
    for (std::size_t i = 0; i < len; ++i) {
      seq.targets[i] = stream[start + i + 1];
    }
    sequences.push_back(std::move(seq));
  }

  nn::TrainerOptions topts;
  topts.adam.learning_rate = options_.pretrain_lr;
  topts.workers = options_.train.workers;
  topts.micro_batch = options_.train.micro_batch;
  nn::Trainer trainer(model_, topts);
  Timer epoch_timer;
  const nn::TrainStats stats = trainer.run_epoch(sequences);
  metrics.pretrain_steps.add(stats.sequences);
  if (stats.sequences > 0) {
    metrics.pretrain_step_seconds.observe(
        epoch_timer.seconds() / static_cast<double>(stats.sequences));
  }
}

namespace {

/// Encodes one SFT example: [BOS] question [SEP] answer [EOS], loss only
/// on the answer span (including the EOS so the model learns to stop).
struct Encoded {
  std::vector<TokenId> ids;
  std::vector<std::int32_t> targets;
};

Encoded encode_sft(const BpeTokenizer& tok,
                   const datagen::InstructionRecord& r,
                   std::size_t max_seq) {
  Encoded e;
  const auto q = tok.encode(r.instruction);
  const auto a = tok.encode(r.output);
  e.ids.push_back(BpeTokenizer::kBos);
  e.ids.insert(e.ids.end(), q.begin(), q.end());
  e.ids.push_back(BpeTokenizer::kSep);
  const std::size_t answer_start = e.ids.size();  // SEP position predicts a[0]
  e.ids.insert(e.ids.end(), a.begin(), a.end());
  e.ids.push_back(BpeTokenizer::kEos);
  if (e.ids.size() > max_seq) {
    e.ids.clear();  // over-long example: skipped by the caller
    return e;
  }
  e.targets.assign(e.ids.size(), -1);
  for (std::size_t t = answer_start - 1; t + 1 < e.ids.size(); ++t) {
    e.targets[t] = e.ids[t + 1];
  }
  return e;
}

}  // namespace

FinetuneReport HpcGpt::finetune(
    const std::vector<datagen::InstructionRecord>& records,
    const FinetuneOptions& options) {
  Timer timer;
  std::vector<const datagen::InstructionRecord*> order;
  order.reserve(records.size());
  for (const auto& r : records) order.push_back(&r);
  Rng rng(options.shuffle_seed);
  shuffle(order, rng);
  if (options.max_records > 0 && order.size() > options.max_records) {
    order.resize(options.max_records);
  }

  nn::TrainerOptions topts;
  topts.adam.learning_rate = options.learning_rate;
  topts.workers = options.train.workers;
  topts.micro_batch = options.train.micro_batch;
  nn::Trainer trainer(model_, topts);

  FinetuneReport report;
  report.records_used = order.size();
  report.workers = trainer.workers();
  report.trainable_parameters =
      nn::parameter_count(model_.parameters(), /*trainable_only=*/true);

  HPCGPT_TRACE("core.finetune");
  TrainingMetrics& metrics = training_metrics();
  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    HPCGPT_TRACE("core.finetune.epoch");
    shuffle(order, rng);
    std::vector<nn::TrainSequence> sequences;
    sequences.reserve(order.size());
    for (const datagen::InstructionRecord* r : order) {
      Encoded e = encode_sft(tokenizer_, *r, options_.config.max_seq);
      if (e.ids.empty()) continue;  // over-long example: skipped
      sequences.push_back(
          nn::TrainSequence{std::move(e.ids), std::move(e.targets)});
    }
    if (options.train.pack_sequences) {
      sequences = nn::pack_sequences(sequences, options_.config.max_seq);
    }
    Timer epoch_timer;
    const nn::TrainStats stats = trainer.run_epoch(sequences);
    metrics.finetune_steps.add(stats.sequences);
    if (stats.sequences > 0) {
      metrics.finetune_step_seconds.observe(
          epoch_timer.seconds() / static_cast<double>(stats.sequences));
    }
    report.steps += stats.sequences;
    report.tokens += stats.tokens;
    if (epoch == 0) report.first_epoch_loss = stats.mean_loss;
    report.last_epoch_loss = stats.mean_loss;
  }
  report.wall_seconds = timer.seconds();
  report.tokens_per_second =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.tokens) / report.wall_seconds
          : 0.0;
  return report;
}

std::vector<TokenId> HpcGpt::encode_prompt(const std::string& question) const {
  std::vector<TokenId> ids;
  ids.push_back(BpeTokenizer::kBos);
  const auto q = tokenizer_.encode(question);
  ids.insert(ids.end(), q.begin(), q.end());
  ids.push_back(BpeTokenizer::kSep);
  return ids;
}

std::vector<TokenId> HpcGpt::prompt_ids(const std::string& question,
                                        std::size_t max_new_tokens,
                                        std::size_t* unclamped_tokens) const {
  std::vector<TokenId> ids = encode_prompt(question);
  if (unclamped_tokens != nullptr) *unclamped_tokens = ids.size();
  const std::size_t cap = options_.config.max_seq > max_new_tokens
                              ? options_.config.max_seq - max_new_tokens
                              : 1;
  if (ids.size() > cap) {
    ids.erase(ids.begin() + 1,
              ids.begin() + 1 + static_cast<std::ptrdiff_t>(ids.size() - cap));
  }
  return ids;
}

GenerationResult HpcGpt::generate(const GenerationRequest& request) {
  HPCGPT_TRACE("core.generate");
  Timer timer;
  GenerationResult result;
  result.id = request.id;
  const std::size_t budget =
      request.max_new_tokens > 0 ? request.max_new_tokens : 48;
  std::size_t unclamped = 0;
  const std::vector<TokenId> ids =
      prompt_ids(request.prompt, budget, &unclamped);
  if (request.token_limit > 0 && unclamped > request.token_limit) {
    result.prompt_tokens = unclamped;
    result.finish = FinishReason::ContextLimit;
    result.latency_seconds = timer.seconds();
    return result;
  }
  result.prompt_tokens = ids.size();
  nn::SampleOptions opts;
  opts.max_new_tokens = budget;
  // KV-cached decoding: identical output to the full-forward path
  // (tested in DecodeCache.*), O(T·d) per token instead of O(T²·d).
  const auto out = nn::generate_cached(model_, ids, opts);
  result.generated_tokens = out.size();
  result.text = tokenizer_.decode(out);
  // generate_cached stops on the stop token, the budget or the context
  // edge; the sizes recover which one fired.
  if (out.size() >= budget) {
    result.finish = FinishReason::Budget;
  } else if (ids.size() + out.size() >= model_.config().max_seq) {
    result.finish = FinishReason::ContextLimit;
  } else {
    result.finish = FinishReason::Eos;
  }
  result.latency_seconds = timer.seconds();
  return result;
}

std::string HpcGpt::ask(const std::string& question,
                        std::size_t max_new_tokens) {
  GenerationRequest request;
  request.prompt = question;
  request.max_new_tokens = max_new_tokens;
  return generate(request).text;
}

std::string HpcGpt::race_instruction(const std::string& snippet) {
  return "Given the code snippet: \"" + snippet +
         "\", help me detect if adding pragma will cause a data race "
         "problem? Answer 'yes' if it causes a data race problem and 'no' "
         "if it will not cause a data race problem.";
}

std::size_t HpcGpt::prompt_tokens(const std::string& snippet) const {
  return encode_prompt(race_instruction(snippet)).size();
}

RaceClassification HpcGpt::classify_race(const GenerationRequest& request) {
  HPCGPT_TRACE("core.classify_race");
  Timer timer;
  RaceClassification rc;
  rc.result.id = request.id;
  const std::vector<TokenId> prompt =
      encode_prompt(race_instruction(request.prompt));
  rc.result.prompt_tokens = prompt.size();
  const auto yes = tokenizer_.encode("yes");
  const auto no = tokenizer_.encode("no");
  const std::size_t longest = std::max(yes.size(), no.size());
  const std::size_t limit = request.token_limit > 0
                                ? request.token_limit
                                : options_.config.max_seq;
  if (prompt.size() + longest > limit ||
      prompt.size() + longest > options_.config.max_seq) {
    rc.verdict = RaceVerdict::TooLong;
    rc.result.finish = FinishReason::ContextLimit;
    rc.result.latency_seconds = timer.seconds();
    return rc;
  }
  const double lp_yes = nn::continuation_logprob(model_, prompt, yes);
  const double lp_no = nn::continuation_logprob(model_, prompt, no);
  rc.verdict = lp_yes >= lp_no ? RaceVerdict::Yes : RaceVerdict::No;
  const auto& answer = rc.verdict == RaceVerdict::Yes ? yes : no;
  rc.result.text = rc.verdict == RaceVerdict::Yes ? "yes" : "no";
  rc.result.generated_tokens = answer.size();
  rc.result.finish = FinishReason::Eos;
  rc.result.latency_seconds = timer.seconds();
  return rc;
}

std::size_t HpcGpt::question_prompt_tokens(const std::string& question) const {
  return encode_prompt(question).size();
}

namespace {

void put_chunk(std::string& out, const std::string& chunk) {
  const std::uint64_t n = chunk.size();
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((n >> (8 * i)) & 0xFF);
  out.append(buf, 8);
  out += chunk;
}

std::string get_chunk(const std::string& in, std::size_t& pos) {
  if (pos + 8 > in.size()) throw ParseError("bundle: truncated chunk header");
  std::uint64_t n = 0;
  for (int i = 0; i < 8; ++i) {
    n |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[pos + i]))
         << (8 * i);
  }
  pos += 8;
  if (pos + n > in.size()) throw ParseError("bundle: truncated chunk payload");
  std::string out = in.substr(pos, n);
  pos += n;
  return out;
}

}  // namespace

std::string HpcGpt::save_bundle() {
  std::string out = "hpcgpt-bundle-v1";
  put_chunk(out, options_.name);
  put_chunk(out, tokenizer_.save());
  put_chunk(out, nn::save_checkpoint(model_));
  return out;
}

HpcGpt HpcGpt::load_bundle(const std::string& blob) {
  const std::string magic = "hpcgpt-bundle-v1";
  if (blob.compare(0, magic.size(), magic) != 0) {
    throw ParseError("bundle: bad magic");
  }
  std::size_t pos = magic.size();
  ModelOptions options;
  options.name = get_chunk(blob, pos);
  BpeTokenizer tokenizer = BpeTokenizer::load(get_chunk(blob, pos));
  nn::Transformer model = nn::load_checkpoint(get_chunk(blob, pos));
  return HpcGpt(std::move(options), std::move(tokenizer), std::move(model));
}

void HpcGpt::save_bundle_file(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  require(out.good(), "save_bundle_file: cannot open " + path);
  const std::string blob = save_bundle();
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  require(out.good(), "save_bundle_file: write failed for " + path);
}

HpcGpt HpcGpt::load_bundle_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "load_bundle_file: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return load_bundle(buffer.str());
}

text::BpeTokenizer build_shared_tokenizer(std::size_t vocab_size,
                                          std::uint64_t seed) {
  std::vector<std::string> corpus = kb::unstructured_corpus();
  const kb::KnowledgeBase& base = kb::KnowledgeBase::builtin();
  for (std::size_t i = 0; i < base.plp.size(); ++i) {
    corpus.push_back(kb::flatten(base.plp[i], i % 3));
  }
  for (std::size_t i = 0; i < base.mlperf.size(); ++i) {
    corpus.push_back(kb::flatten(base.mlperf[i], i % 3));
  }
  // A representative snippet sample across categories and languages.
  Rng rng(seed);
  for (const drb::Category c : drb::all_categories()) {
    for (const minilang::Flavor f :
         {minilang::Flavor::C, minilang::Flavor::Fortran}) {
      for (int k = 0; k < 2; ++k) {
        const drb::TestCase tc = drb::generate_case(c, f, rng);
        corpus.push_back(minilang::render_snippet(tc.program, f));
      }
    }
  }
  corpus.push_back(HpcGpt::race_instruction("x = 1;"));
  corpus.push_back("yes no yes no");
  text::BpeTokenizer tok;
  tok.train(corpus, vocab_size);
  return tok;
}

}  // namespace hpcgpt::core
