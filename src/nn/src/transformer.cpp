#include "hpcgpt/nn/transformer.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <utility>

#include "hpcgpt/obs/metrics.hpp"
#include "hpcgpt/obs/trace.hpp"
#include "hpcgpt/support/error.hpp"
#include "hpcgpt/support/fastmath.hpp"
#include "hpcgpt/support/timer.hpp"
#include "hpcgpt/tensor/kernels.hpp"

namespace hpcgpt::nn {

using tensor::Matrix;

namespace {

constexpr float kNormEps = 1e-5f;

/// Process-wide inference metrics, resolved once. KV occupancy is
/// recorded in absolute cached positions; the serving layer knows the
/// config's max_seq if a percentage view is wanted.
struct InferenceMetrics {
  obs::Counter& prefill_calls;
  obs::Counter& prefill_tokens;
  obs::Histogram& prefill_seconds;
  obs::Counter& decode_rounds;
  obs::Counter& decode_lane_steps;
  obs::Histogram& decode_round_seconds;
  obs::Histogram& kv_occupancy;
};

InferenceMetrics& inference_metrics() {
  static const double kOccupancyBounds[] = {8,   16,  32,   64,  128,
                                            256, 512, 1024, 2048};
  auto& r = obs::MetricsRegistry::global();
  static InferenceMetrics m{
      r.counter("nn.prefill.calls"),
      r.counter("nn.prefill.tokens"),
      r.histogram("nn.prefill.seconds"),
      r.counter("nn.decode.rounds"),
      r.counter("nn.decode.lane_steps"),
      r.histogram("nn.decode.round_seconds"),
      r.histogram("nn.kv.occupancy", kOccupancyBounds),
  };
  return m;
}

/// normed[t] = x[t] * inv_rms[t] ⊙ gain ; inv_rms[t] = (mean(x[t]²)+eps)^-½
void rmsnorm_forward(const Parameter& gain, const Matrix& x, Matrix& normed,
                     std::vector<float>& inv_rms) {
  const std::size_t d = x.cols();
  normed.resize(x.rows(), d);
  inv_rms.assign(x.rows(), 0.0f);
  const float* g = gain.value.data();
  for (std::size_t t = 0; t < x.rows(); ++t) {
    const auto xr = x.row(t);
    float ms = 0.0f;
    for (const float v : xr) ms += v * v;
    const float r = 1.0f / std::sqrt(ms / static_cast<float>(d) + kNormEps);
    inv_rms[t] = r;
    auto nr = normed.row(t);
    for (std::size_t i = 0; i < d; ++i) nr[i] = xr[i] * r * g[i];
  }
}

/// Accumulates dL/dgain into gain.grad and writes dL/dx into dx.
void rmsnorm_backward(Parameter& gain, const Matrix& x,
                      const std::vector<float>& inv_rms,
                      const Matrix& dnormed, Matrix& dx) {
  const std::size_t d = x.cols();
  dx.resize(x.rows(), d);
  const float* g = gain.value.data();
  float* dg = gain.grad.data();
  for (std::size_t t = 0; t < x.rows(); ++t) {
    const auto xr = x.row(t);
    const auto dyr = dnormed.row(t);
    auto dxr = dx.row(t);
    const float r = inv_rms[t];
    float inner = 0.0f;  // Σ_i dy_i g_i x_i
    for (std::size_t i = 0; i < d; ++i) {
      if (gain.trainable) dg[i] += dyr[i] * xr[i] * r;
      inner += dyr[i] * g[i] * xr[i];
    }
    const float correction = inner * r * r / static_cast<float>(d);
    for (std::size_t i = 0; i < d; ++i) {
      dxr[i] = r * (dyr[i] * g[i] - xr[i] * correction);
    }
  }
}

// fast_expf keeps the SwiGLU loops vectorizable; forward and backward
// share it so gradients stay consistent with the activations.
float silu(float x) { return x / (1.0f + fast_expf(-x)); }

float silu_grad(float x) {
  const float s = 1.0f / (1.0f + fast_expf(-x));
  return s * (1.0f + x * (1.0f - s));
}

constexpr std::size_t kPage = KvPagePool::kPageSize;
constexpr std::size_t kTile = tensor::kernels::kAttnTileRows;

/// Sizes `buf` as the ⌈positions / kPage⌉ pages of a KvPagePool-layout
/// cache of width d and points `pages` at them. Growing the buffer may
/// move it, so the pointers are rebuilt on every call.
void layout_pages(std::vector<float>& buf, std::vector<float*>& pages,
                  std::size_t d, std::size_t positions) {
  const std::size_t page_floats = 2 * d * kPage;
  const std::size_t n_pages = (positions + kPage - 1) / kPage;
  buf.resize(n_pages * page_floats);
  pages.resize(n_pages);
  for (std::size_t p = 0; p < n_pages; ++p) {
    pages[p] = buf.data() + p * page_floats;
  }
}

/// Transpose-scatters rows [r0, r0 + n) of k and v into positions
/// [pos0, pos0 + n) of a paged K/V cache, a page run at a time: within a
/// page, feature i's slots for positions [lo, hi) are the contiguous run
/// page[i·kPage + lo%kPage ...], and the V slab starts at d·kPage.
void scatter_kv(const Matrix& k, const Matrix& v, std::size_t r0,
                std::size_t n, std::size_t pos0, float* const* pages) {
  const std::size_t d = k.cols();
  for (std::size_t t = 0; t < n;) {
    const std::size_t pos = pos0 + t;
    float* page = pages[pos / kPage];
    const std::size_t slot = pos % kPage;
    const std::size_t run = std::min(n - t, kPage - slot);
    for (std::size_t i = 0; i < d; ++i) {
      float* __restrict kc = page + i * kPage + slot;
      float* __restrict vc = kc + d * kPage;
      for (std::size_t j = 0; j < run; ++j) {
        kc[j] = k.at(r0 + t + j, i);
        vc[j] = v.at(r0 + t + j, i);
      }
    }
    t += run;
  }
}

/// The inverse of scatter_kv over positions [0, n) and rows [0, n).
void gather_kv(const float* const* pages, std::size_t n, Matrix& k,
               Matrix& v) {
  const std::size_t d = k.cols();
  for (std::size_t t = 0; t < n; t += kPage) {
    const float* page = pages[t / kPage];
    const std::size_t run = std::min(n - t, kPage);
    for (std::size_t i = 0; i < d; ++i) {
      const float* kc = page + i * kPage;
      const float* vc = kc + d * kPage;
      for (std::size_t j = 0; j < run; ++j) {
        k.at(t + j, i) = kc[j];
        v.at(t + j, i) = vc[j];
      }
    }
  }
}

/// Causal attention of `rows` consecutive query positions, the first at
/// `pos0`, over one layer's paged K/V cache (feature-major within a page,
/// stride kPage; V slab at d·kPage): row r attends over positions
/// [0, pos0 + r + 1). q and out are row-major with d_model columns. Heads
/// run outer; each head's rows run in tiles of up to kTile, so the kernels
/// can load each K/V page once per tile. Each row's softmax numerators take
/// pos0 + rows floats: with `keep_probs`, row r of head h stays at
/// probs + (h·rows + r)·(pos0 + rows) for training's backward; otherwise
/// every tile reuses the first kTile rows (inference).
void paged_attention(const TransformerConfig& config, const float* q,
                     std::size_t rows, std::size_t pos0, float* const* pages,
                     float* probs, bool keep_probs, float* out) {
  const std::size_t d = config.d_model;
  const std::size_t hd = config.head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  const std::size_t probs_stride = pos0 + rows;
  const tensor::kernels::KernelTable& kt = tensor::kernels::active();
  for (std::size_t h = 0; h < config.n_heads; ++h) {
    const std::size_t off = h * hd;
    for (std::size_t r0 = 0; r0 < rows; r0 += kTile) {
      const std::size_t n = std::min(kTile, rows - r0);
      const std::size_t len0 = pos0 + r0 + 1;
      float* tile = probs + (keep_probs ? (h * rows + r0) * probs_stride : 0);
      kt.attn_scores_paged(q + r0 * d + off, d, scale, pages, off * kPage, hd,
                           len0, n, tile, probs_stride);
      float inv[kTile];
      for (std::size_t r = 0; r < n; ++r) {
        inv[r] = kt.softmax_row(tile + r * probs_stride, len0 + r);
      }
      kt.attn_values_paged(tile, probs_stride, inv, pages,
                           d * kPage + off * kPage, hd, len0, n,
                           out + r0 * d + off, d);
    }
  }
}

}  // namespace

// ===================================================== TransformerBlock

TransformerBlock::TransformerBlock(const TransformerConfig& config,
                                   std::size_t index)
    : config_(config),
      norm1_gain_("block" + std::to_string(index) + ".norm1",
                  1, config.d_model),
      wq_("block" + std::to_string(index) + ".wq", config.d_model,
          config.d_model),
      wk_("block" + std::to_string(index) + ".wk", config.d_model,
          config.d_model),
      wv_("block" + std::to_string(index) + ".wv", config.d_model,
          config.d_model),
      wo_("block" + std::to_string(index) + ".wo", config.d_model,
          config.d_model),
      norm2_gain_("block" + std::to_string(index) + ".norm2",
                  1, config.d_model),
      w_gate_("block" + std::to_string(index) + ".w_gate", config.d_model,
              config.d_ff),
      w_up_("block" + std::to_string(index) + ".w_up", config.d_model,
            config.d_ff),
      w_down_("block" + std::to_string(index) + ".w_down", config.d_ff,
              config.d_model) {
  norm1_gain_.value.fill(1.0f);
  norm2_gain_.value.fill(1.0f);
}

void TransformerBlock::init(Rng& rng) {
  const float attn_std =
      0.7f / std::sqrt(static_cast<float>(config_.d_model));
  // Residual-path projections get the GPT-2 depth-scaled init so deep
  // stacks stay stable.
  const float resid_std =
      attn_std / std::sqrt(2.0f * static_cast<float>(config_.n_layers));
  wq_.init(rng, attn_std);
  wk_.init(rng, attn_std);
  wv_.init(rng, attn_std);
  wo_.init(rng, resid_std);
  w_gate_.init(rng, attn_std);
  w_up_.init(rng, attn_std);
  w_down_.init(rng, resid_std);
}

void TransformerBlock::attach_lora(const TransformerConfig& config,
                                   Rng& rng) {
  const bool freeze = config.train_lora_only;
  wq_.attach_lora(config.lora_rank, config.lora_alpha, freeze, rng);
  wk_.attach_lora(config.lora_rank, config.lora_alpha, freeze, rng);
  wv_.attach_lora(config.lora_rank, config.lora_alpha, freeze, rng);
  wo_.attach_lora(config.lora_rank, config.lora_alpha, freeze, rng);
  w_gate_.attach_lora(config.lora_rank, config.lora_alpha, freeze, rng);
  w_up_.attach_lora(config.lora_rank, config.lora_alpha, freeze, rng);
  w_down_.attach_lora(config.lora_rank, config.lora_alpha, freeze, rng);
  if (freeze) {
    norm1_gain_.trainable = false;
    norm2_gain_.trainable = false;
  }
}

void TransformerBlock::merge_lora() {
  wq_.merge_lora();
  wk_.merge_lora();
  wv_.merge_lora();
  wo_.merge_lora();
  w_gate_.merge_lora();
  w_up_.merge_lora();
  w_down_.merge_lora();
  norm1_gain_.trainable = true;
  norm2_gain_.trainable = true;
}

void TransformerBlock::collect_parameters(ParameterList& out) {
  out.push_back(&norm1_gain_);
  wq_.collect_parameters(out);
  wk_.collect_parameters(out);
  wv_.collect_parameters(out);
  wo_.collect_parameters(out);
  out.push_back(&norm2_gain_);
  w_gate_.collect_parameters(out);
  w_up_.collect_parameters(out);
  w_down_.collect_parameters(out);
}

std::unique_ptr<TransformerBlock> TransformerBlock::replica() const {
  auto out = std::make_unique<TransformerBlock>();
  out->config_ = config_;
  out->norm1_gain_ = norm1_gain_;
  out->wq_ = wq_.replica();
  out->wk_ = wk_.replica();
  out->wv_ = wv_.replica();
  out->wo_ = wo_.replica();
  out->norm2_gain_ = norm2_gain_;
  out->w_gate_ = w_gate_.replica();
  out->w_up_ = w_up_.replica();
  out->w_down_ = w_down_.replica();
  return out;
}

void TransformerBlock::quantize(tensor::QuantMode mode) {
  wq_.quantize(mode);
  wk_.quantize(mode);
  wv_.quantize(mode);
  wo_.quantize(mode);
  w_gate_.quantize(mode);
  w_up_.quantize(mode);
  w_down_.quantize(mode);
}

std::size_t TransformerBlock::weight_memory_bytes() const {
  return (norm1_gain_.value.size() + norm2_gain_.value.size()) *
             sizeof(float) +
         wq_.weight_memory_bytes() + wk_.weight_memory_bytes() +
         wv_.weight_memory_bytes() + wo_.weight_memory_bytes() +
         w_gate_.weight_memory_bytes() + w_up_.weight_memory_bytes() +
         w_down_.weight_memory_bytes();
}

void TransformerBlock::forward(Matrix& x) {
  const std::size_t seq = x.rows();
  const std::size_t d = config_.d_model;

  // --- attention sub-layer ---
  in1_ = x;
  rmsnorm_forward(norm1_gain_, in1_, normed1_, inv_rms1_);
  wq_.forward(normed1_, q_);
  wk_.forward(normed1_, k_);
  wv_.forward(normed1_, v_);

  // Inference's attention loop over the sequence's K/V in page layout;
  // each row's softmax numerators stay in probs_ for backward.
  layout_pages(kv_buf_, kv_pages_, d, seq);
  scatter_kv(k_, v_, 0, seq, 0, kv_pages_.data());
  if (probs_.size() < config_.n_heads * seq * seq) {
    probs_.resize(config_.n_heads * seq * seq);
  }
  attn_concat_.resize(seq, d);
  paged_attention(config_, q_.data(), seq, 0, kv_pages_.data(),
                  probs_.data(), /*keep_probs=*/true, attn_concat_.data());

  wo_.forward(attn_concat_, attn_out_);
  x = in1_;
  tensor::add_inplace(x, attn_out_);

  // --- MLP sub-layer (SwiGLU) ---
  in2_ = x;
  rmsnorm_forward(norm2_gain_, in2_, normed2_, inv_rms2_);
  w_gate_.forward(normed2_, gate_pre_);
  w_up_.forward(normed2_, up_);
  swiglu_.resize(seq, config_.d_ff);
  for (std::size_t t = 0; t < seq; ++t) {
    for (std::size_t j = 0; j < config_.d_ff; ++j) {
      swiglu_.at(t, j) = silu(gate_pre_.at(t, j)) * up_.at(t, j);
    }
  }
  w_down_.forward(swiglu_, mlp_out_);
  x = in2_;
  tensor::add_inplace(x, mlp_out_);
}

void TransformerBlock::backward(Matrix& dx) {
  const std::size_t seq = dx.rows();
  const std::size_t d = config_.d_model;
  const std::size_t hd = config_.head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));

  // --- MLP sub-layer backward ---
  w_down_.backward(dx, d_swiglu_);
  d_gate_pre_.resize(seq, config_.d_ff);
  d_up_.resize(seq, config_.d_ff);
  for (std::size_t t = 0; t < seq; ++t) {
    for (std::size_t j = 0; j < config_.d_ff; ++j) {
      const float g = gate_pre_.at(t, j);
      d_gate_pre_.at(t, j) =
          d_swiglu_.at(t, j) * up_.at(t, j) * silu_grad(g);
      d_up_.at(t, j) = d_swiglu_.at(t, j) * silu(g);
    }
  }
  w_gate_.backward(d_gate_pre_, d_normed_sum_);
  w_up_.backward(d_up_, d_normed_tmp_);
  tensor::add_inplace(d_normed_sum_, d_normed_tmp_);
  rmsnorm_backward(norm2_gain_, in2_, inv_rms2_, d_normed_sum_, d_resid_);
  tensor::add_inplace(dx, d_resid_);  // residual + norm path

  // --- attention sub-layer backward ---
  wo_.backward(dx, d_attn_concat_);

  // Per head h and row t, over positions s ≤ t, with p = e / Σe the
  // forward's softmax row and dO = d_attn_concat_ (head h's slice):
  //   dP[s] = ⟨dO[t], V[s]⟩          scores kernel on the V slab
  //   dS[s] = p[s]·(dP[s] − ⟨dP, p⟩)·scale
  //   dQ[t] = Σ_s dS[s]·K[s]         values kernel on the K slab
  //   dK[s] += dS[s]·Q[t], dV[s] += p[s]·dO[t]   rank-1 kernel
  // The kernels take the rows in tiles of up to kTile, like the forward,
  // and the rank-1 kernel applies a tile's rows in ascending t, the order
  // of a row-by-row loop. dK/dV accumulate in page layout and are
  // transposed out once.
  dq_.resize(seq, d);
  dk_.resize(seq, d);
  dv_.resize(seq, d);
  layout_pages(dkv_buf_, dkv_pages_, d, seq);
  std::fill(dkv_buf_.begin(), dkv_buf_.end(), 0.0f);
  if (dprobs_.size() < kTile * seq) dprobs_.resize(kTile * seq);
  const tensor::kernels::KernelTable& kt = tensor::kernels::active();
  const float* const* kv = kv_pages_.data();
  float ones[kTile];
  std::fill(ones, ones + kTile, 1.0f);
  for (std::size_t h = 0; h < config_.n_heads; ++h) {
    const std::size_t k_off = h * hd * kPage;
    const std::size_t v_off = d * kPage + k_off;
    for (std::size_t t0 = 0; t0 < seq; t0 += kTile) {
      const std::size_t n = std::min(kTile, seq - t0);
      const std::size_t len0 = t0 + 1;
      const float* e0 = probs_.data() + (h * seq + t0) * seq;
      const float* d_out = d_attn_concat_.row(t0).data() + h * hd;
      float* ds0 = dprobs_.data();
      kt.attn_scores_paged(d_out, d, 1.0f, kv, v_off, hd, len0, n, ds0, seq);

      float inv[kTile];
      for (std::size_t r = 0; r < n; ++r) {
        const std::size_t len = len0 + r;
        const float* __restrict e = e0 + r * seq;
        float* __restrict ds = ds0 + r * seq;
        // Σe and ⟨dP, e⟩ in 16 partial sums each, a fixed order that
        // vectorizes without reassociation.
        constexpr std::size_t kLanes = 16;
        float sum_part[kLanes] = {};
        float dot_part[kLanes] = {};
        std::size_t s = 0;
        for (; s + kLanes <= len; s += kLanes) {
          for (std::size_t j = 0; j < kLanes; ++j) {
            sum_part[j] += e[s + j];
            dot_part[j] += e[s + j] * ds[s + j];
          }
        }
        for (std::size_t j = 0; s + j < len; ++j) {
          sum_part[j] += e[s + j];
          dot_part[j] += e[s + j] * ds[s + j];
        }
        float sum = 0.0f;
        float dot = 0.0f;
        for (std::size_t j = 0; j < kLanes; ++j) {
          sum += sum_part[j];
          dot += dot_part[j];
        }
        inv[r] = 1.0f / sum;
        const float centre = dot * inv[r];  // ⟨dP, p⟩
        const float ds_scale = inv[r] * scale;
        for (std::size_t j = 0; j < len; ++j) {
          ds[j] = e[j] * ds_scale * (ds[j] - centre);
        }
      }
      kt.attn_values_paged(ds0, seq, ones, kv, k_off, hd, len0, n,
                           dq_.row(t0).data() + h * hd, d);
      kt.attn_rank1_paged(ds0, e0, seq, q_.row(t0).data() + h * hd, d_out, d,
                          inv, dkv_pages_.data(), k_off, v_off, hd, len0, n);
    }
  }
  gather_kv(dkv_pages_.data(), seq, dk_, dv_);

  wq_.backward(dq_, d_normed_sum_);
  wk_.backward(dk_, d_normed_tmp_);
  tensor::add_inplace(d_normed_sum_, d_normed_tmp_);
  wv_.backward(dv_, d_normed_tmp_);
  tensor::add_inplace(d_normed_sum_, d_normed_tmp_);
  rmsnorm_backward(norm1_gain_, in1_, inv_rms1_, d_normed_sum_, d_resid_);
  tensor::add_inplace(dx, d_resid_);
}

void TransformerBlock::reserve_training(std::size_t tokens) {
  const std::size_t d = config_.d_model;
  const std::size_t d_ff = config_.d_ff;
  for (Matrix* m : {&in1_, &normed1_, &q_, &k_, &v_, &attn_concat_, &in2_,
                    &normed2_, &attn_out_, &mlp_out_, &d_normed_sum_,
                    &d_normed_tmp_, &d_resid_, &d_attn_concat_, &dq_, &dk_,
                    &dv_}) {
    m->resize(tokens, d);
  }
  for (Matrix* m : {&gate_pre_, &up_, &swiglu_, &d_swiglu_, &d_gate_pre_,
                    &d_up_}) {
    m->resize(tokens, d_ff);
  }
  inv_rms1_.resize(tokens);
  inv_rms2_.resize(tokens);
  layout_pages(kv_buf_, kv_pages_, d, tokens);
  layout_pages(dkv_buf_, dkv_pages_, d, tokens);
  if (probs_.size() < config_.n_heads * tokens * tokens) {
    probs_.resize(config_.n_heads * tokens * tokens);
  }
  if (dprobs_.size() < kTile * tokens) dprobs_.resize(kTile * tokens);
  for (Linear* w : {&wq_, &wk_, &wv_, &wo_, &w_gate_, &w_up_, &w_down_}) {
    w->reserve_training(tokens);
  }
}

namespace {

/// Row-wise RMSNorm without training caches (inference path), through the
/// ISA-dispatched kernel.
void rmsnorm_row(const hpcgpt::nn::Parameter& gain,
                 std::span<const float> x, std::span<float> out) {
  tensor::kernels::active().rmsnorm_row(x.data(), gain.value.data(),
                                        x.size(), kNormEps, out.data());
}

/// One projection of a sibling group: y = x·W through `w`.
struct Projection {
  const Linear& w;
  Matrix& y;
};

/// Runs sibling projections that read the same rows `x` (wq/wk/wv, then
/// gate/up). In int8 mode each row is quantized once and the bytes are
/// shared by every projection of the group; the quantizer depends on the
/// row alone and gemv_prequant equals gemv, so this equals separate
/// apply_rows calls bit for bit. Other modes run apply_rows.
void project_rows(const Matrix& x, BatchScratch& s,
                  std::initializer_list<Projection> group) {
  const Linear& first = group.begin()->w;
  if (first.quant_mode() != tensor::QuantMode::Int8) {
    for (const Projection& p : group) p.w.apply_rows(x, p.y);
    return;
  }
  const std::size_t padded = first.quantized_weights().padded_rows();
  s.qx.resize(x.rows() * padded);
  s.qx_scale.resize(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    s.qx_scale[r] = tensor::kernels::quantize_row_i8(
        x.row(r).data(), x.cols(), padded, s.qx.data() + r * padded);
  }
  for (const Projection& p : group) {
    p.w.quantized_weights().matmul_prequant(s.qx.data(), s.qx_scale.data(),
                                            x.rows(), p.y);
  }
}

}  // namespace

void TransformerBlock::infer(Matrix& x, std::span<DecodeState* const> states,
                             std::size_t layer, BatchScratch& s) const {
  const std::size_t rows = x.rows();
  const std::size_t seg = rows / states.size();
  const tensor::kernels::KernelTable& kt = tensor::kernels::active();

  // --- attention sub-layer ---
  for (std::size_t r = 0; r < rows; ++r) {
    rmsnorm_row(norm1_gain_, x.row(r), s.normed.row(r));
  }
  project_rows(s.normed, s, {{wq_, s.q}, {wk_, s.k_new}, {wv_, s.v_new}});

  // Attention is per segment: each session attends over its own pages at
  // its own horizon, after its K/V rows are scattered in.
  // (Measured alternatives for prompts — per-head GEMM via
  // matmul/matmul_nt, and 4-wide feature unrolling — both lose at these
  // shapes: the causal horizons average T/2, so dispatch and packing
  // overheads dominate.)
  for (std::size_t b = 0; b < states.size(); ++b) {
    float* const* pages = states[b]->page_ptrs_[layer].data();
    const std::size_t pos0 = states[b]->length_;
    const std::size_t r0 = b * seg;
    scatter_kv(s.k_new, s.v_new, r0, seg, pos0, pages);
    paged_attention(config_, s.q.row(r0).data(), seg, pos0, pages,
                    s.probs.data(), /*keep_probs=*/false,
                    s.attn.row(r0).data());
  }
  wo_.apply_rows(s.attn, s.proj);
  tensor::add_inplace(x, s.proj);

  // --- MLP sub-layer (SwiGLU) ---
  for (std::size_t r = 0; r < rows; ++r) {
    rmsnorm_row(norm2_gain_, x.row(r), s.normed.row(r));
  }
  project_rows(s.normed, s, {{w_gate_, s.gate}, {w_up_, s.up}});
  for (std::size_t r = 0; r < rows; ++r) {
    kt.silu_mul(s.gate.row(r).data(), s.up.row(r).data(), config_.d_ff);
  }
  w_down_.apply_rows(s.gate, s.proj);
  tensor::add_inplace(x, s.proj);
}

void BatchScratch::ensure(const TransformerConfig& config, std::size_t rows) {
  // x/normed/attn are written row by row, so they must be pre-sized; the
  // GEMM outputs size themselves.
  x.resize(rows, config.d_model);
  normed.resize(rows, config.d_model);
  attn.resize(rows, config.d_model);
  if (probs.size() < kTile * config.max_seq) {
    probs.assign(kTile * config.max_seq, 0.0f);
  }
}

// ===================================================== DecodeState

DecodeState::DecodeState(const TransformerConfig& config,
                         std::shared_ptr<KvPagePool> pool)
    : pool_(std::move(pool)), n_layers_(config.n_layers) {
  require(pool_ != nullptr, "DecodeState: null page pool");
  require(pool_->d_model() == config.d_model,
          "DecodeState: pool/model d_model mismatch");
  tables_.resize(n_layers_);
  page_ptrs_.resize(n_layers_);
  // Reserve the worst-case table size up front so steady-state appends
  // never reallocate the indirection vectors.
  const std::size_t max_pages =
      (config.max_seq + KvPagePool::kPageSize - 1) / KvPagePool::kPageSize;
  for (std::size_t l = 0; l < n_layers_; ++l) {
    tables_[l].reserve(max_pages);
    page_ptrs_[l].reserve(max_pages);
  }
}

DecodeState::~DecodeState() { release_all(); }

DecodeState::DecodeState(DecodeState&& other) noexcept
    : pool_(std::move(other.pool_)),
      n_layers_(other.n_layers_),
      tables_(std::move(other.tables_)),
      page_ptrs_(std::move(other.page_ptrs_)),
      scratch_(std::move(other.scratch_)),
      length_(std::exchange(other.length_, 0)),
      reserved_(std::exchange(other.reserved_, 0)) {
  other.tables_.clear();
  other.page_ptrs_.clear();
}

DecodeState& DecodeState::operator=(DecodeState&& other) noexcept {
  if (this != &other) {
    release_all();
    pool_ = std::move(other.pool_);
    n_layers_ = other.n_layers_;
    tables_ = std::move(other.tables_);
    page_ptrs_ = std::move(other.page_ptrs_);
    scratch_ = std::move(other.scratch_);
    length_ = std::exchange(other.length_, 0);
    reserved_ = std::exchange(other.reserved_, 0);
    other.tables_.clear();
    other.page_ptrs_.clear();
  }
  return *this;
}

void DecodeState::release_all() {
  if (!pool_) return;
  for (auto& table : tables_) {
    for (const std::uint32_t page : table) pool_->release(page);
    table.clear();
  }
  for (auto& ptrs : page_ptrs_) ptrs.clear();
  if (reserved_ > 0) pool_->cancel_reservation(reserved_);
  length_ = 0;
  reserved_ = 0;
}

std::size_t DecodeState::pages_held() const {
  std::size_t n = 0;
  for (const auto& table : tables_) n += table.size();
  return n;
}

std::uint32_t DecodeState::acquire_page() {
  if (reserved_ > 0) {
    --reserved_;
    return pool_->allocate_reserved();
  }
  return pool_->allocate();
}

void DecodeState::set_reserved_pages(std::size_t n) {
  require(reserved_ == 0, "DecodeState: reservation already set");
  reserved_ = n;
}

void DecodeState::adopt_prefix(
    const std::vector<std::vector<std::uint32_t>>& pages,
    std::size_t tokens) {
  require(length_ == 0 && pages_held() == 0,
          "DecodeState::adopt_prefix: session not empty");
  require(pages.size() == n_layers_,
          "DecodeState::adopt_prefix: layer count mismatch");
  const std::size_t need = (tokens + kPage - 1) / kPage;
  for (std::size_t l = 0; l < n_layers_; ++l) {
    require(pages[l].size() >= need,
            "DecodeState::adopt_prefix: too few pages for token count");
    for (std::size_t c = 0; c < need; ++c) {
      const std::uint32_t page = pages[l][c];
      pool_->retain(page);
      tables_[l].push_back(page);
      page_ptrs_[l].push_back(pool_->data(page));
    }
  }
  length_ = tokens;
}

void DecodeState::prepare_append(std::size_t count) {
  require(count > 0, "DecodeState::prepare_append: zero count");
  const std::size_t first_page = length_ / kPage;
  const std::size_t last_page = (length_ + count - 1) / kPage;
  for (std::size_t l = 0; l < n_layers_; ++l) {
    auto& table = tables_[l];
    auto& ptrs = page_ptrs_[l];
    // Copy-on-write: appending into a partially-filled tail page that is
    // shared (adopted prefix ending mid-page) must not mutate the shared
    // copy. Shared pages are immutable while shared, so the unlocked
    // copy is safe; a concurrent refcount drop only makes the fork
    // conservative, never wrong.
    if (table.size() > first_page && pool_->ref_count(table[first_page]) > 1) {
      const std::uint32_t fresh = acquire_page();
      std::copy_n(pool_->data(table[first_page]), pool_->page_floats(),
                  pool_->data(fresh));
      pool_->release(table[first_page]);
      table[first_page] = fresh;
      ptrs[first_page] = pool_->data(fresh);
    }
    while (table.size() <= last_page) {
      const std::uint32_t fresh = acquire_page();
      table.push_back(fresh);
      ptrs.push_back(pool_->data(fresh));
    }
  }
}

// ===================================================== Transformer

void TransformerConfig::validate() const {
  require(vocab_size >= 1 && d_model >= 1 && n_heads >= 1 && n_layers >= 1 &&
              d_ff >= 1 && max_seq >= 1,
          "TransformerConfig: every dimension must be >= 1");
  require(d_model % n_heads == 0,
          "Transformer: d_model must be divisible by n_heads");
  (void)weight_count();
}

std::size_t TransformerConfig::weight_count() const {
  const auto mul = [](std::size_t a, std::size_t b) {
    std::size_t out = 0;
    require(!__builtin_mul_overflow(a, b, &out),
            "TransformerConfig: weight count overflows");
    return out;
  };
  const auto add = [](std::size_t a, std::size_t b) {
    std::size_t out = 0;
    require(!__builtin_add_overflow(a, b, &out),
            "TransformerConfig: weight count overflows");
    return out;
  };
  const std::size_t d = d_model;
  // One block: two norm gains, four d×d attention projections, three
  // d×d_ff MLP weights, and a rank-r A/B adapter pair on each of those
  // seven linears (r·(in + out) each).
  std::size_t block = add(mul(2, d), mul(4, mul(d, d)));
  block = add(block, mul(3, mul(d, d_ff)));
  block = add(block, mul(lora_rank, add(mul(11, d), mul(3, d_ff))));
  // Token and position embeddings, the final norm gain and the head.
  const std::size_t outer =
      add(add(mul(vocab_size, d), mul(max_seq, d)), add(d, mul(d, vocab_size)));
  return add(outer, mul(n_layers, block));
}

namespace {

const TransformerConfig& validated(const TransformerConfig& config) {
  config.validate();
  return config;
}

}  // namespace

Transformer::Transformer(const TransformerConfig& config, std::uint64_t seed)
    : config_(validated(config)),
      init_rng_(seed),
      tok_emb_("tok_emb", config.vocab_size, config.d_model),
      pos_emb_("pos_emb", config.max_seq, config.d_model),
      final_gain_("final_norm", 1, config.d_model),
      head_("head", config.d_model, config.vocab_size) {
  pool_ = std::make_shared<KvPagePool>(config.d_model, /*max_pages=*/0);
  const float emb_std = 0.02f;
  tok_emb_.value.randomize(init_rng_, emb_std);
  pos_emb_.value.randomize(init_rng_, emb_std);
  final_gain_.value.fill(1.0f);
  head_.init(init_rng_,
             0.7f / std::sqrt(static_cast<float>(config.d_model)));
  blocks_.reserve(config.n_layers);
  for (std::size_t l = 0; l < config.n_layers; ++l) {
    blocks_.push_back(std::make_unique<TransformerBlock>(config, l));
    blocks_.back()->init(init_rng_);
  }
  if (config.lora_rank > 0) attach_lora();
  if (config.quant != tensor::QuantMode::Fp32) {
    // Honor a pre-set config.quant (core::ModelOptions threads it here):
    // construct fp32, then repack. set_quant_mode re-records the field.
    config_.quant = tensor::QuantMode::Fp32;
    set_quant_mode(config.quant);
  }
}

Transformer::Transformer(const Transformer& master, ReplicaTag)
    : config_(master.config_),
      init_rng_(master.init_rng_),
      quant_mode_(master.quant_mode_),
      pool_(std::make_shared<KvPagePool>(master.config_.d_model,
                                         /*max_pages=*/0)),
      tok_emb_(master.tok_emb_),
      pos_emb_(master.pos_emb_),
      tok_emb_h_(master.tok_emb_h_),
      pos_emb_h_(master.pos_emb_h_),
      final_gain_(master.final_gain_),
      head_(master.head_.replica()) {
  blocks_.reserve(master.blocks_.size());
  for (const auto& block : master.blocks_) blocks_.push_back(block->replica());
}

std::unique_ptr<Transformer> Transformer::replica() const {
  return std::unique_ptr<Transformer>(new Transformer(*this, ReplicaTag{}));
}

ParameterList Transformer::parameters() {
  ParameterList out;
  out.push_back(&tok_emb_);
  out.push_back(&pos_emb_);
  for (auto& block : blocks_) block->collect_parameters(out);
  out.push_back(&final_gain_);
  head_.collect_parameters(out);
  return out;
}

void Transformer::attach_lora(std::size_t rank, float alpha,
                              bool train_lora_only) {
  config_.lora_rank = rank;
  config_.lora_alpha = alpha;
  config_.train_lora_only = train_lora_only;
  attach_lora();
}

void Transformer::attach_lora() {
  require(config_.lora_rank > 0, "Transformer::attach_lora: rank is 0");
  for (auto& block : blocks_) block->attach_lora(config_, init_rng_);
  if (config_.train_lora_only) {
    tok_emb_.trainable = false;
    pos_emb_.trainable = false;
    final_gain_.trainable = false;
    // The head stays trainable: SFT needs to reshape the output
    // distribution even in PEFT mode (standard practice).
  }
}

void Transformer::merge_lora() {
  for (auto& block : blocks_) block->merge_lora();
  tok_emb_.trainable = true;
  pos_emb_.trainable = true;
  final_gain_.trainable = true;
  config_.lora_rank = 0;
  config_.train_lora_only = false;
}

void Transformer::set_quant_mode(tensor::QuantMode mode) {
  if (mode == tensor::QuantMode::Fp32) {
    require(quant_mode_ == tensor::QuantMode::Fp32,
            "set_quant_mode: cannot dequantize back to fp32 (the fp32 "
            "weights were freed) — reload the checkpoint instead");
    return;
  }
  require(quant_mode_ == tensor::QuantMode::Fp32,
          "set_quant_mode: model is already quantized");
  require(config_.lora_rank == 0,
          "set_quant_mode: merge LoRA adapters first (merge_lora)");
  for (auto& block : blocks_) block->quantize(mode);
  head_.quantize(mode);
  // Embeddings become fp16 row tables in both modes: they are gathered
  // per token, not multiplied, so int8 would cost accuracy for no kernel
  // win. The norm gains stay fp32 (d_model-sized).
  tok_emb_h_ = tok_emb_.value.to_half();
  pos_emb_h_ = pos_emb_.value.to_half();
  tok_emb_.value = Matrix();
  tok_emb_.grad = Matrix();
  tok_emb_.trainable = false;
  pos_emb_.value = Matrix();
  pos_emb_.grad = Matrix();
  pos_emb_.trainable = false;
  quant_mode_ = mode;
  config_.quant = mode;
}

std::size_t Transformer::weight_memory_bytes() const {
  std::size_t bytes = final_gain_.value.size() * sizeof(float) +
                      head_.weight_memory_bytes();
  if (quant_mode_ == tensor::QuantMode::Fp32) {
    bytes += (tok_emb_.value.size() + pos_emb_.value.size()) * sizeof(float);
  } else {
    bytes += (tok_emb_h_.size() + pos_emb_h_.size()) * sizeof(tensor::Half);
  }
  for (const auto& block : blocks_) bytes += block->weight_memory_bytes();
  return bytes;
}

void Transformer::add_embed_row(text::TokenId id, std::size_t pos,
                                std::span<float> out) const {
  const std::size_t d = config_.d_model;
  if (quant_mode_ == tensor::QuantMode::Fp32) {
    const auto te = tok_emb_.value.row(static_cast<std::size_t>(id));
    const auto pe = pos_emb_.value.row(pos);
    for (std::size_t i = 0; i < d; ++i) out[i] = te[i] + pe[i];
  } else {
    // fp16 row tables: the dispatched kernel upconverts with F16C where
    // available (the software Half::to_float is branchy and would tax
    // only the quantized decode path).
    tensor::kernels::active().add_half_rows(
        reinterpret_cast<const std::uint16_t*>(
            tok_emb_h_.data() + static_cast<std::size_t>(id) * d),
        reinterpret_cast<const std::uint16_t*>(pos_emb_h_.data() + pos * d),
        d, out.data());
  }
}

void Transformer::embed(const std::vector<text::TokenId>& ids,
                        Matrix& x) const {
  require(!ids.empty(), "Transformer: empty sequence");
  require(ids.size() <= config_.max_seq,
          "Transformer: sequence exceeds max_seq (token limit)");
  x.resize(ids.size(), config_.d_model);
  for (std::size_t t = 0; t < ids.size(); ++t) {
    const auto id = ids[t];
    require(id >= 0 && static_cast<std::size_t>(id) < config_.vocab_size,
            "Transformer: token id out of range");
    add_embed_row(id, t, x.row(t));
  }
}

const Matrix& Transformer::forward_hidden(
    const std::vector<text::TokenId>& ids) {
  // The residual stream runs in hidden_in_ itself, so a warmed step
  // allocates nothing here.
  embed(ids, hidden_in_);
  for (auto& block : blocks_) block->forward(hidden_in_);
  rmsnorm_forward(final_gain_, hidden_in_, hidden_out_, final_inv_rms_);
  return hidden_out_;
}

Matrix Transformer::logits(const std::vector<text::TokenId>& ids) {
  Matrix out;
  head_.forward(forward_hidden(ids), out);
  return out;
}

DecodeState Transformer::new_decode_state() const {
  return DecodeState(config_, pool_);
}

DecodeState Transformer::new_decode_state(
    std::shared_ptr<KvPagePool> pool) const {
  return DecodeState(config_, std::move(pool));
}

std::span<const float> Transformer::decode_step(DecodeState& state,
                                                text::TokenId id) const {
  DecodeState* const lane[] = {&state};
  return decode_step_batch(lane, {&id, 1}, state.scratch_).row(0);
}

const Matrix& Transformer::decode_step_batch(
    std::span<DecodeState* const> states, std::span<const text::TokenId> ids,
    BatchScratch& scratch) const {
  require(!states.empty() && states.size() == ids.size(),
          "decode_step_batch: states/ids size mismatch");
  HPCGPT_TRACE("nn.decode_step_batch");
  InferenceMetrics& metrics = inference_metrics();
  Timer round_timer;
  const std::size_t batch = states.size();
  scratch.ensure(config_, batch);

  Matrix& x = scratch.x;
  for (std::size_t b = 0; b < batch; ++b) {
    const std::size_t pos = states[b]->length_;
    require(pos < config_.max_seq, "decode_step_batch: context exhausted");
    const auto id = ids[b];
    require(id >= 0 && static_cast<std::size_t>(id) < config_.vocab_size,
            "decode_step_batch: token id out of range");
    states[b]->prepare_append(1);
    add_embed_row(id, pos, x.row(b));
  }

  for (std::size_t l = 0; l < blocks_.size(); ++l) {
    blocks_[l]->infer(x, states, l, scratch);
  }

  for (std::size_t b = 0; b < batch; ++b) {
    rmsnorm_row(final_gain_, x.row(b), scratch.normed.row(b));
  }
  head_.apply_rows(scratch.normed, scratch.logits);
  std::size_t cached_positions = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    cached_positions += ++states[b]->length_;
  }
  metrics.decode_rounds.add(1);
  metrics.decode_lane_steps.add(batch);
  metrics.decode_round_seconds.observe(round_timer.seconds());
  metrics.kv_occupancy.observe(static_cast<double>(cached_positions) /
                               static_cast<double>(batch));
  return scratch.logits;
}

std::span<const float> Transformer::prefill(
    DecodeState& state, std::span<const text::TokenId> ids) const {
  require(!ids.empty(), "prefill: empty prompt");
  HPCGPT_TRACE("nn.prefill");
  InferenceMetrics& metrics = inference_metrics();
  Timer prefill_timer;
  const std::size_t pos0 = state.length_;
  require(pos0 + ids.size() <= config_.max_seq,
          "prefill: context exhausted");

  state.prepare_append(ids.size());
  // The prompt's T-row activations live for this call only: a served
  // lane must not keep prompt-sized buffers alive while it decodes.
  BatchScratch scratch;
  scratch.ensure(config_, ids.size());
  for (std::size_t t = 0; t < ids.size(); ++t) {
    const auto id = ids[t];
    require(id >= 0 && static_cast<std::size_t>(id) < config_.vocab_size,
            "prefill: token id out of range");
    add_embed_row(id, pos0 + t, scratch.x.row(t));
  }
  DecodeState* const lane[] = {&state};
  for (std::size_t l = 0; l < blocks_.size(); ++l) {
    blocks_[l]->infer(scratch.x, lane, l, scratch);
  }
  state.length_ = pos0 + ids.size();
  // The prefill metrics leave out the head.
  metrics.prefill_calls.add(1);
  metrics.prefill_tokens.add(ids.size());
  metrics.prefill_seconds.observe(prefill_timer.seconds());
  metrics.kv_occupancy.observe(static_cast<double>(state.length_));

  // Only the last position's logits are needed downstream (the sampler
  // feeds the next token through decode_step), so the head runs on that
  // one row, into the session's scratch where the returned span lives.
  BatchScratch& out = state.scratch_;
  out.normed.resize(1, config_.d_model);
  rmsnorm_row(final_gain_, scratch.x.row(ids.size() - 1), out.normed.row(0));
  head_.apply_rows(out.normed, out.logits);
  return out.logits.row(0);
}

LossResult Transformer::train_step(
    const std::vector<text::TokenId>& ids,
    const std::vector<std::int32_t>& targets) {
  require(ids.size() == targets.size(),
          "train_step: ids/targets length mismatch");
  require(quant_mode_ == tensor::QuantMode::Fp32,
          "train_step: model is quantized (inference only) — training "
          "requires fp32 weights");
  head_.forward(forward_hidden(ids), logit_mat_);

  // Cross-entropy + dlogits in one pass. dlogits_ is reused scratch and
  // rows with masked targets are skipped below, so zero it up front.
  dlogits_.resize(logit_mat_.rows(), logit_mat_.cols());
  dlogits_.zero();
  tensor::softmax_rows(logit_mat_);  // logit_mat_ now holds probabilities
  std::size_t counted = 0;
  double loss = 0.0;
  for (std::size_t t = 0; t < ids.size(); ++t) {
    if (targets[t] < 0) continue;
    ++counted;
  }
  LossResult result;
  if (counted == 0) return result;
  const float inv_count = 1.0f / static_cast<float>(counted);
  for (std::size_t t = 0; t < ids.size(); ++t) {
    if (targets[t] < 0) continue;
    const auto target = static_cast<std::size_t>(targets[t]);
    require(target < config_.vocab_size, "train_step: target out of range");
    const auto probs = logit_mat_.row(t);
    loss -= std::log(std::max(probs[target], 1e-12f));
    auto dl = dlogits_.row(t);
    for (std::size_t v = 0; v < config_.vocab_size; ++v) {
      dl[v] = probs[v] * inv_count;
    }
    dl[target] -= inv_count;
  }

  head_.backward(dlogits_, d_hidden_out_);
  rmsnorm_backward(final_gain_, hidden_in_, final_inv_rms_, d_hidden_out_,
                   dx_);
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    (*it)->backward(dx_);
  }
  // Embedding gradients.
  if (tok_emb_.trainable || pos_emb_.trainable) {
    for (std::size_t t = 0; t < ids.size(); ++t) {
      const auto dxr = dx_.row(t);
      if (tok_emb_.trainable) {
        auto gr = tok_emb_.grad.row(static_cast<std::size_t>(ids[t]));
        for (std::size_t i = 0; i < config_.d_model; ++i) gr[i] += dxr[i];
      }
      if (pos_emb_.trainable) {
        auto gr = pos_emb_.grad.row(t);
        for (std::size_t i = 0; i < config_.d_model; ++i) gr[i] += dxr[i];
      }
    }
  }

  result.loss = loss / static_cast<double>(counted);
  result.positions = counted;
  return result;
}

void Transformer::reserve_training(std::size_t tokens) {
  require(quant_mode_ == tensor::QuantMode::Fp32,
          "reserve_training: model is quantized (inference only) — "
          "training requires fp32 weights");
  require(tokens <= config_.max_seq,
          "reserve_training: sequence exceeds max_seq (token limit)");
  const std::size_t d = config_.d_model;
  for (Matrix* m : {&hidden_in_, &hidden_out_, &d_hidden_out_, &dx_}) {
    m->resize(tokens, d);
  }
  logit_mat_.resize(tokens, config_.vocab_size);
  dlogits_.resize(tokens, config_.vocab_size);
  final_inv_rms_.resize(tokens);
  head_.reserve_training(tokens);
  for (auto& block : blocks_) block->reserve_training(tokens);
}

double Transformer::eval_loss(const std::vector<text::TokenId>& ids,
                              const std::vector<std::int32_t>& targets) {
  require(ids.size() == targets.size(),
          "eval_loss: ids/targets length mismatch");
  Matrix logit_mat = logits(ids);
  tensor::softmax_rows(logit_mat);
  double loss = 0.0;
  std::size_t counted = 0;
  for (std::size_t t = 0; t < ids.size(); ++t) {
    if (targets[t] < 0) continue;
    const auto target = static_cast<std::size_t>(targets[t]);
    loss -= std::log(std::max(logit_mat.at(t, target), 1e-12f));
    ++counted;
  }
  return counted == 0 ? 0.0 : loss / static_cast<double>(counted);
}

void Transformer::zero_grad() {
  for (Parameter* p : parameters()) p->zero_grad();
}

}  // namespace hpcgpt::nn
