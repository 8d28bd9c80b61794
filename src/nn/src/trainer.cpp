#include "hpcgpt/nn/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <future>

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
  const bool rebuild = replicas_.size() + 1 != workers_ ||
                       !view.same_shape(master_view_);
  master_view_ = std::move(view);
  if (rebuild) {
    replicas_.clear();
    replica_views_.clear();
    for (std::size_t w = 1; w < workers_; ++w) {
      std::unique_ptr<Transformer> replica = model_.replica();
      replica_views_.emplace_back(replica->parameters());
      replicas_.push_back(std::move(replica));
    }
  }
  if (workers_ > 1 && (!pool_ || pool_->size() != workers_ - 1)) {
    pool_ = std::make_unique<ThreadPool>(workers_ - 1);
  }
  worker_grads_.resize(workers_);
  for (auto& g : worker_grads_) g.resize(master_view_.size());
  flat_values_.resize(master_view_.size());
  // Reused replicas may be stale if the master moved since the last epoch
  // (a reused trainer only syncs trainable values after each step):
  // re-broadcast before training. Fresh replicas are copies already.
  if (!rebuild && !replicas_.empty()) {
    master_view_.gather_values(flat_values_);
    broadcast_values();
  }
}

void Trainer::broadcast_values() {
  for (const FlatParamView& view : replica_views_) {
    view.scatter_values(flat_values_);
  }
}

TrainStats Trainer::run_epoch(std::span<const TrainSequence> sequences) {
  HPCGPT_TRACE("nn.train.epoch");
  ensure_workers();
  TrainerMetrics& metrics = trainer_metrics();
  metrics.workers.set(static_cast<std::int64_t>(workers_));

  // Skip empties up front so batch sharding and loss accounting see the
  // same sequence set regardless of where the empties fall.
  std::vector<const TrainSequence*> order;
  order.reserve(sequences.size());
  for (const TrainSequence& s : sequences) {
    if (!s.ids.empty()) order.push_back(&s);
  }

  TrainStats stats;
  const std::size_t n = order.size();
  // Per-sequence results land in pre-sized slots indexed by epoch
  // position and are summed sequentially below — loss accounting is
  // byte-identical for every worker count.
  std::vector<double> losses(n, 0.0);
  std::vector<std::size_t> positions(n, 0);

  const std::size_t flat = master_view_.size();
  for (std::size_t start = 0; start < n; start += options_.micro_batch) {
    // Per-step trace: shard work (wherever it runs), the gradient
    // reduction and the optimizer all nest under this span. Pool workers
    // adopt step_context so their shard spans join the step's trace
    // instead of starting orphan traces on their own threads.
    HPCGPT_TRACE("nn.train.step");
    const obs::TraceContext step_context = obs::current_trace_context();
    const std::size_t batch = std::min(options_.micro_batch, n - start);
    const std::size_t active = std::min(workers_, batch);
    const std::size_t per_worker = (batch + active - 1) / active;

    auto run_shard = [&](std::size_t w) {
      HPCGPT_TRACE("nn.train.shard");
      Timer shard_timer;
      const std::size_t lo = start + w * per_worker;
      const std::size_t hi = std::min(start + batch, lo + per_worker);
      Transformer& net = w == 0 ? model_ : *replicas_[w - 1];
      net.zero_grad();
      for (std::size_t i = lo; i < hi; ++i) {
        const TrainSequence& s = *order[i];
        const LossResult r = net.train_step(s.ids, s.targets);
        losses[i] = r.loss;
        positions[i] = r.positions;
      }
      const FlatParamView& view =
          w == 0 ? master_view_ : replica_views_[w - 1];
      view.gather_grads(worker_grads_[w]);
      metrics.worker_step_seconds.observe(shard_timer.seconds());
    };

    if (active == 1) {
      run_shard(0);
    } else {
      std::vector<std::future<void>> pending;
      pending.reserve(active - 1);
      for (std::size_t w = 1; w < active; ++w) {
        pending.push_back(pool_->submit([&run_shard, step_context, w] {
          ParallelInlineGuard inline_guard;
          HPCGPT_TRACE_ADOPT(step_context);
          run_shard(w);
        }));
      }
      {
        // Worker 0 keeps the calling thread busy — and inline, so its
        // tensor kernels don't steal the global pool out from under a
        // caller that is itself a pool worker.
        ParallelInlineGuard inline_guard;
        run_shard(0);
      }
      for (auto& f : pending) f.get();
    }

    // Fixed-order binary-tree reduction into worker 0's buffer. The
    // pairing depends only on `active`, never on thread timing, so the
    // float sum is deterministic run-to-run.
    Timer reduce_timer;
    {
      HPCGPT_TRACE("nn.train.reduce");
      for (std::size_t stride = 1; stride < active; stride *= 2) {
        for (std::size_t w = 0; w + stride < active; w += 2 * stride) {
          float* __restrict dst = worker_grads_[w].data();
          const float* __restrict src = worker_grads_[w + stride].data();
          for (std::size_t i = 0; i < flat; ++i) dst[i] += src[i];
        }
      }
      if (batch > 1) {
        const float inv = 1.0f / static_cast<float>(batch);
        float* __restrict g = worker_grads_[0].data();
        for (std::size_t i = 0; i < flat; ++i) g[i] *= inv;
      }
    }
    metrics.reduce_seconds.observe(reduce_timer.seconds());

    Timer opt_timer;
    {
      HPCGPT_TRACE("nn.train.optimizer");
      master_view_.gather_values(flat_values_);
      stats.last_grad_norm = optimizer_.step(flat_values_, worker_grads_[0]);
      master_view_.scatter_values(flat_values_);
      broadcast_values();
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
