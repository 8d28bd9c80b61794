#include "hpcgpt/nn/trainer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <future>
#include <numeric>

#include "hpcgpt/obs/metrics.hpp"
#include "hpcgpt/obs/trace.hpp"
#include "hpcgpt/support/error.hpp"
#include "hpcgpt/support/timer.hpp"

namespace hpcgpt::nn {

namespace {

/// Process-wide training-engine metrics. grad_norm is a gauge in
/// milli-units (gauges are integral); the histogram keeps the
/// distribution at full precision.
struct TrainerMetrics {
  obs::Counter& steps;
  obs::Counter& tokens;
  obs::Counter& optimizer_steps;
  obs::Histogram& worker_step_seconds;
  obs::Histogram& reduce_seconds;
  obs::Histogram& optimizer_seconds;
  obs::Histogram& grad_norm;
  obs::Gauge& grad_norm_milli;
  obs::Gauge& workers;
};

TrainerMetrics& trainer_metrics() {
  static const double kNormBounds[] = {0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30};
  auto& r = obs::MetricsRegistry::global();
  static TrainerMetrics m{
      r.counter("nn.train.steps"),
      r.counter("nn.train.tokens"),
      r.counter("nn.train.optimizer_steps"),
      r.histogram("nn.train.worker_step_seconds"),
      r.histogram("nn.train.reduce_seconds"),
      r.histogram("nn.train.optimizer_seconds"),
      r.histogram("nn.train.grad_norm", kNormBounds),
      r.gauge("nn.train.grad_norm_milli"),
      r.gauge("nn.train.workers"),
  };
  return m;
}

/// Runs fn(w) for every worker w < count: w = 0 on the calling thread,
/// the others on `pool`, adopting the step's trace context. Returns once
/// every call has, rethrowing the first exception, so no task outlives
/// the caller's frame.
template <typename Fn>
void run_workers(ThreadPool* pool, std::size_t count,
                 const obs::TraceContext& context, Fn& fn) {
  if (count == 1) {
    fn(0);
    return;
  }
  std::vector<std::future<void>> pending;
  std::exception_ptr error;
  try {
    pending.reserve(count - 1);
    for (std::size_t w = 1; w < count; ++w) {
      pending.push_back(pool->submit([&fn, context, w] {
        HPCGPT_TRACE_ADOPT(context);
        fn(w);
      }));
    }
    fn(0);
  } catch (...) {
    error = std::current_exception();
  }
  for (auto& f : pending) {
    try {
      f.get();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

/// Sums slots [0, count) into slot 0 over elements [lo, hi) with a fixed
/// binary tree — slot k takes slot k + stride at stride 1, 2, 4, ... —
/// then scales by 1/count. An element's pairing depends only on `count`,
/// so every split of the element range gives the same bits.
void reduce_slots(std::vector<std::vector<float>>& slots, std::size_t count,
                  std::size_t lo, std::size_t hi) {
  for (std::size_t stride = 1; stride < count; stride *= 2) {
    for (std::size_t k = 0; k + stride < count; k += 2 * stride) {
      float* __restrict dst = slots[k].data();
      const float* __restrict src = slots[k + stride].data();
      for (std::size_t i = lo; i < hi; ++i) dst[i] += src[i];
    }
  }
  const float inv = 1.0f / static_cast<float>(count);
  float* __restrict g = slots[0].data();
  for (std::size_t i = lo; i < hi; ++i) g[i] *= inv;
}

}  // namespace

std::vector<TrainSequence> pack_sequences(
    std::span<const TrainSequence> sequences, std::size_t max_seq) {
  require(max_seq > 0, "pack_sequences: max_seq is 0");
  std::vector<TrainSequence> out;
  for (const TrainSequence& s : sequences) {
    if (s.ids.empty()) continue;
    require(s.ids.size() == s.targets.size(),
            "pack_sequences: ids/targets length mismatch");
    require(s.ids.size() <= max_seq,
            "pack_sequences: sequence longer than max_seq");
    if (!out.empty() && out.back().ids.size() + s.ids.size() <= max_seq) {
      TrainSequence& dst = out.back();
      // Mask the boundary: the last position of the previous example must
      // not be asked to predict the first token of this one.
      dst.targets.back() = -1;
      dst.ids.insert(dst.ids.end(), s.ids.begin(), s.ids.end());
      dst.targets.insert(dst.targets.end(), s.targets.begin(),
                         s.targets.end());
    } else {
      out.push_back(s);
    }
  }
  return out;
}

Trainer::Trainer(Transformer& model, TrainerOptions options)
    : model_(model), options_(options), optimizer_(options.adam) {
  workers_ = options_.workers != 0 ? options_.workers : usable_cores();
  require(options_.micro_batch > 0, "Trainer: micro_batch is 0");
}

Trainer::~Trainer() = default;

void Trainer::ensure_workers() {
  FlatParamView view(model_.parameters());
  const std::size_t lanes = std::min(workers_, options_.micro_batch);
  const bool rebuild = replicas_.size() + 1 != lanes ||
                       !view.same_shape(master_view_);
  master_view_ = std::move(view);
  if (rebuild) {
    replicas_.clear();
    for (std::size_t w = 1; w < lanes; ++w) {
      Replica replica;
      replica.model = model_.replica();
      replica.view = FlatParamView(replica.model->parameters());
      replicas_.push_back(std::move(replica));
    }
  }
  if (lanes > 1 && (!pool_ || pool_->size() != lanes - 1)) {
    pool_ = std::make_unique<ThreadPool>(lanes - 1);
  }
  slots_.resize(options_.micro_batch);
  for (auto& slot : slots_) slot.resize(master_view_.size());
  flat_values_.resize(master_view_.size());
}

TrainStats Trainer::run_epoch(std::span<const TrainSequence> sequences) {
  HPCGPT_TRACE("nn.train.epoch");
  ensure_workers();
  TrainerMetrics& metrics = trainer_metrics();
  metrics.workers.set(static_cast<std::int64_t>(workers_));

  // Skip empties up front so step membership and loss accounting see the
  // same sequence set regardless of where the empties fall.
  std::vector<const TrainSequence*> order;
  order.reserve(sequences.size());
  std::size_t longest = 0;
  for (const TrainSequence& s : sequences) {
    if (s.ids.empty()) continue;
    order.push_back(&s);
    longest = std::max(longest, s.ids.size());
  }

  TrainStats stats;
  const std::size_t n = order.size();
  // Per-sequence results land in pre-sized entries indexed by epoch
  // position and are summed sequentially below — loss accounting is
  // byte-identical for every worker count.
  std::vector<double> losses(n, 0.0);
  std::vector<std::size_t> positions(n, 0);

  // The master may have moved since the last epoch, so every replica
  // copies its values in before its first claim.
  master_view_.gather_values(flat_values_);
  for (Replica& replica : replicas_) replica.stale = true;

  const std::size_t flat = master_view_.size();
  std::vector<std::size_t> claims;  // a step's epoch positions, in claim order
  for (std::size_t start = 0; start < n; start += options_.micro_batch) {
    // Per-step trace: every worker's claims (wherever they run), the
    // gradient reduction and the optimizer all nest under this span. Pool
    // workers adopt step_context so their spans join the step's trace
    // instead of starting orphan traces on their own threads.
    HPCGPT_TRACE("nn.train.step");
    const obs::TraceContext step_context = obs::current_trace_context();
    const std::size_t batch = std::min(options_.micro_batch, n - start);
    const std::size_t active = std::min(replicas_.size() + 1, batch);

    // Longest first, ties by epoch position: step cost grows faster than
    // length, so the long sequences start first and the short ones fill
    // in around them.
    claims.resize(batch);
    std::iota(claims.begin(), claims.end(), start);
    std::sort(claims.begin(), claims.end(), [&](std::size_t a, std::size_t b) {
      const std::size_t la = order[a]->ids.size();
      const std::size_t lb = order[b]->ids.size();
      return la != lb ? la > lb : a < b;
    });
    std::atomic<std::size_t> next_claim{0};

    auto claim = [&](std::size_t w) {
      HPCGPT_TRACE("nn.train.shard");
      Transformer& net = w == 0 ? model_ : *replicas_[w - 1].model;
      const FlatParamView& view =
          w == 0 ? master_view_ : replicas_[w - 1].view;
      if (w > 0 && replicas_[w - 1].stale) {
        view.scatter_values(flat_values_);
        replicas_[w - 1].stale = false;
      }
      // On this worker's thread, before its first claim of the epoch.
      if (start == 0) net.reserve_training(longest);
      Timer claims_timer;
      for (std::size_t k = next_claim++; k < batch; k = next_claim++) {
        const std::size_t i = claims[k];
        // Only trainable gradients are ever written (frozen weights, norm
        // gains and embeddings skip theirs), so the view covers them all.
        for (Parameter* p : view.parameters()) p->zero_grad();
        const LossResult r = net.train_step(order[i]->ids, order[i]->targets);
        losses[i] = r.loss;
        positions[i] = r.positions;
        view.gather_grads(slots_[i - start]);
      }
      metrics.worker_step_seconds.observe(claims_timer.seconds());
    };
    run_workers(pool_.get(), active, step_context, claim);

    // The slots hold one gradient per sequence, in epoch order; neither
    // the claiming worker nor the timing can change their sum. A step of
    // one sequence hands its slot to Adam as is.
    Timer reduce_timer;
    if (batch > 1) {
      HPCGPT_TRACE("nn.train.reduce");
      const std::size_t chunk = (flat + active - 1) / active;
      auto reduce = [&](std::size_t w) {
        const std::size_t lo = std::min(flat, w * chunk);
        reduce_slots(slots_, batch, lo, std::min(flat, lo + chunk));
      };
      run_workers(pool_.get(), active, step_context, reduce);
    }
    metrics.reduce_seconds.observe(reduce_timer.seconds());

    Timer opt_timer;
    {
      HPCGPT_TRACE("nn.train.optimizer");
      stats.last_grad_norm = optimizer_.step(flat_values_, slots_[0]);
      master_view_.scatter_values(flat_values_);
      for (Replica& replica : replicas_) replica.stale = true;
    }
    metrics.optimizer_seconds.observe(opt_timer.seconds());
    metrics.optimizer_steps.add(1);
    metrics.grad_norm.observe(stats.last_grad_norm);
    metrics.grad_norm_milli.set(
        static_cast<std::int64_t>(std::lround(stats.last_grad_norm * 1e3)));
    ++stats.optimizer_steps;
  }

  double loss_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    loss_sum += losses[i];
    stats.target_positions += positions[i];
    stats.tokens += order[i]->ids.size();
  }
  stats.sequences = n;
  stats.mean_loss = n > 0 ? loss_sum / static_cast<double>(n) : 0.0;
  metrics.steps.add(n);
  metrics.tokens.add(stats.tokens);
  return stats;
}

}  // namespace hpcgpt::nn
