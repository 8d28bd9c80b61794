// finetune_epoch: the fine-tuning run that produces the model (Figure 1),
// as a batch job. Each operation is one SFT epoch of HpcGpt::finetune,
// started from the same initial model state, with sequence packing and
// data-parallel workers on every usable core. The epoch covers a fixed
// subsample of the collected instruction dataset (FinetuneOptions::
// max_records): a full epoch takes longer than one measured window, and
// repeating it is what the determinism oracle checks.

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "hpcgpt/datagen/pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace hpcgpt;

constexpr std::size_t kMicroBatch = 8;
constexpr std::size_t kRecordsPerEpoch = 128;

struct Setup {
  text::BpeTokenizer tokenizer;
  std::vector<datagen::InstructionRecord> records;
};

std::unique_ptr<Setup> build(const Args& args) {
  auto s = std::make_unique<Setup>();
  s->tokenizer = core::build_shared_tokenizer();
  s->records = datagen::collect_all(args.seed).records;
  return s;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

void run_finetune_epoch(const Args& args, Report& report) {
  std::unique_ptr<Setup> s =
      timed_setup(report, [&] { return build(args); });
  report.detail("records", static_cast<double>(s->records.size()), "count");

  core::FinetuneOptions options;
  options.epochs = 1;
  options.max_records = kRecordsPerEpoch;
  options.train.workers = usable_cores();
  options.train.micro_batch = kMicroBatch;
  options.train.pack_sequences = true;

  const double window = args.seconds;
  const double trace_from = trace_start(args);
  RegistryWindow process_window;
  process_window.start = RegistrySnapshot(obs::MetricsRegistry::global());
  double gemm_flops_at_trace = 0.0;

  std::vector<double> epoch_ms, untraced_ms, traced_ms;
  std::vector<TimedSample> timed_ms, timed_ms_per_token;
  double tokens = 0.0;
  double train_seconds = 0.0;
  double first_loss = 0.0;
  std::size_t failed = 0;
  bool tracing = false;
  const Clock::time_point start = Clock::now();
  while (seconds_between(start, Clock::now()) < window) {
    if (!tracing && seconds_between(start, Clock::now()) >= trace_from) {
      gemm_flops_at_trace =
          RegistrySnapshot(obs::MetricsRegistry::global()).counter("tensor.gemm.flops");
      arm_tracing(true);
      tracing = true;
    }
    // Same initial state every epoch: a freshly constructed model (its
    // initialization is a pure function of the fixed seed).
    std::unique_ptr<core::HpcGpt> model = make_serving_model(s->tokenizer);
    const Clock::time_point t0 = Clock::now();
    const core::FinetuneReport fr = model->finetune(s->records, options);
    const double seconds = seconds_between(t0, Clock::now());
    const double loss = fr.last_epoch_loss;
    bool ok = std::isfinite(loss) && fr.tokens > 0;
    if (epoch_ms.empty() && failed == 0) {
      first_loss = loss;
    } else if (!same_bits(loss, first_loss)) {
      ok = false;
      std::printf("oracle mismatch: epoch mean loss %.17g != first epoch %.17g\n",
                  loss, first_loss);
    }
    if (!ok) {
      ++failed;
      continue;
    }
    const double ms = 1e3 * seconds;
    epoch_ms.push_back(ms);
    (tracing ? traced_ms : untraced_ms).push_back(ms);
    const double at = seconds_between(start, t0);
    timed_ms.push_back({at, ms});
    timed_ms_per_token.push_back({at, ms / static_cast<double>(fr.tokens)});
    tokens += static_cast<double>(fr.tokens);
    train_seconds += seconds;
  }
  if (tracing) arm_tracing(false);
  process_window.end = RegistrySnapshot(obs::MetricsRegistry::global());

  report.attempted = epoch_ms.size() + failed;
  report.failed = failed;
  report.check("epoch_loss_finite_and_bitwise_repeatable", failed == 0,
               std::to_string(failed) + " of " + std::to_string(report.attempted) +
                   " epochs; mean loss " + std::to_string(first_loss));

  const double epoch_p50_ms = subwindow_median(timed_ms, window, p50);
  report.e2e("latency_p50_ms", epoch_p50_ms);
  report.e2e("ms_per_token_p50", subwindow_median(timed_ms_per_token, window, p50));
  // Epochs per second of training; counting whole epochs per sub-window
  // would quantize the rate too coarsely.
  report.e2e("ops_per_s", ratio(1e3, epoch_p50_ms));
  report.detail("epochs", static_cast<double>(epoch_ms.size()), "count");
  report.detail("epoch_ms_p50", quantile(epoch_ms, 0.5), "ms");
  report.layer("bench.latency_p99_ms", quantile(epoch_ms, 0.99));
  report.detail("train_tokens_per_s", ratio(tokens, train_seconds), "1/s");

  report_substrate_layers(process_window, report);
  if (args.trace) {
    const TraceSummary trace = summarize_trace(obs::TraceSink::global().events());
    report_trace_layers(trace, 0.0,
                        process_window.end.counter("tensor.gemm.flops") -
                            gemm_flops_at_trace,
                        process_window.counter("obs.trace.dropped"), report);
    report.layer("obs.trace_overhead_share",
                 ratio(median(traced_ms), median(untraced_ms)) - 1.0);
  }
}

}  // namespace perfbench
