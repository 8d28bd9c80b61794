#include "hpcgpt/nn/linear.hpp"

#include <cmath>

#include "hpcgpt/support/error.hpp"

namespace hpcgpt::nn {

using tensor::Matrix;

Linear::Linear(std::string name, std::size_t in, std::size_t out)
    : weight_(std::move(name), in, out) {}

void Linear::init(Rng& rng, float stddev) {
  weight_.value.randomize(rng, stddev);
}

void Linear::attach_lora(std::size_t rank, float alpha, bool freeze_base,
                         Rng& rng) {
  require(rank > 0, "Linear::attach_lora: rank must be positive");
  lora_rank_ = rank;
  lora_scale_ = alpha / static_cast<float>(rank);
  lora_a_ = Parameter(weight_.name + ".lora_a", in_features(), rank);
  lora_b_ = Parameter(weight_.name + ".lora_b", rank, out_features());
  // Standard LoRA init: A ~ N(0, 1/r), B = 0 so the adapter starts as a
  // no-op and fine-tuning departs smoothly from the base model.
  lora_a_.value.randomize(rng, 1.0f / std::sqrt(static_cast<float>(rank)));
  lora_b_.value.zero();
  weight_.trainable = !freeze_base;
}

void Linear::forward(const Matrix& x, Matrix& y) {
  require(x.cols() == in_features(), "Linear::forward: width mismatch");
  if (quantized()) {
    // Inference-only: no activation caching, so a later backward() on
    // this layer fails its shape check rather than silently training
    // against stale activations.
    qweight_.matmul(x, y);
    cached_x_ = Matrix();
    return;
  }
  // The training loop calls this with persistent scratch every step and
  // matmul overwrites, so a step within the rows reserve_training sized
  // (or the largest seen so far) allocates nothing here (cf. apply_rows).
  y.resize(x.rows(), out_features());
  matmul(x, weight_.value, y);
  cached_x_ = x;
  if (lora_rank_ > 0) {
    cached_xa_.resize(x.rows(), lora_rank_);
    matmul(x, lora_a_.value, cached_xa_);
    lora_out_.resize(x.rows(), out_features());
    matmul(cached_xa_, lora_b_.value, lora_out_);
    tensor::scale_inplace(lora_out_, lora_scale_);
    tensor::add_inplace(y, lora_out_);
  }
}

void Linear::backward(const Matrix& dy, Matrix& dx) {
  require(!quantized(), "Linear::backward: layer is quantized (inference"
          " only) — training requires fp32 weights");
  require(dy.rows() == cached_x_.rows() && dy.cols() == out_features(),
          "Linear::backward: gradient shape mismatch");
  if (weight_.trainable) {
    matmul_tn_acc(cached_x_, dy, weight_.grad);  // dW += x^T dy
  }
  dx.resize(cached_x_.rows(), in_features());
  matmul_nt(dy, weight_.value, dx);  // dx = dy W^T

  if (lora_rank_ > 0) {
    // y_lora = s·(x A) B  =>  dB += s·(xA)^T dy ; dA += s·x^T (dy B^T) ;
    //                         dx += s·(dy B^T) A^T
    dy_bt_.resize(dy.rows(), lora_rank_);
    matmul_nt(dy, lora_b_.value, dy_bt_);
    tensor::scale_inplace(dy_bt_, lora_scale_);

    db_.resize(lora_rank_, out_features());
    matmul_tn(cached_xa_, dy, db_);
    tensor::scale_inplace(db_, lora_scale_);
    tensor::add_inplace(lora_b_.grad, db_);

    matmul_tn_acc(cached_x_, dy_bt_, lora_a_.grad);
    matmul_nt_acc(dy_bt_, lora_a_.value, dx);
  }
}

void Linear::reserve_training(std::size_t rows) {
  require(!quantized(), "Linear::reserve_training: layer is quantized"
          " (inference only)");
  cached_x_.resize(rows, in_features());
  if (lora_rank_ > 0) {
    cached_xa_.resize(rows, lora_rank_);
    lora_out_.resize(rows, out_features());
    dy_bt_.resize(rows, lora_rank_);
    db_.resize(lora_rank_, out_features());
  }
  // matmul_nt copies its right operand, transposed, into a per-thread
  // buffer that keeps its capacity. W is the largest operand backward
  // hands it, so a product of zero rows against W sizes this thread's
  // copy without computing anything.
  Matrix no_rows(0, out_features());
  Matrix no_dx(0, in_features());
  matmul_nt(no_rows, weight_.value, no_dx);
}

void Linear::apply_rows(const Matrix& x, Matrix& y,
                        LoraScratch& lora) const {
  require(x.cols() == in_features(), "Linear::apply_rows: width mismatch");
  if (quantized()) {
    qweight_.matmul(x, y);
    return;
  }
  // Reuse the caller's buffers: the decode loop calls this with
  // persistent scratch matrices every step, and matmul overwrites, so
  // steady-state decode allocates nothing here.
  y.resize(x.rows(), out_features());
  matmul(x, weight_.value, y);
  if (lora_rank_ > 0) {
    lora.xa.resize(x.rows(), lora_rank_);
    matmul(x, lora_a_.value, lora.xa);
    lora.out.resize(x.rows(), out_features());
    matmul(lora.xa, lora_b_.value, lora.out);
    tensor::scale_inplace(lora.out, lora_scale_);
    tensor::add_inplace(y, lora.out);
  }
}

Linear Linear::replica() const {
  Linear out;
  out.weight_ = weight_;
  out.lora_a_ = lora_a_;
  out.lora_b_ = lora_b_;
  out.lora_rank_ = lora_rank_;
  out.lora_scale_ = lora_scale_;
  out.qweight_ = qweight_;
  out.qmode_ = qmode_;
  return out;
}

void Linear::merge_lora() {
  if (lora_rank_ == 0) return;
  Matrix product(in_features(), out_features());
  matmul(lora_a_.value, lora_b_.value, product);
  tensor::scale_inplace(product, lora_scale_);
  tensor::add_inplace(weight_.value, product);
  lora_rank_ = 0;
  lora_a_ = Parameter();
  lora_b_ = Parameter();
  weight_.trainable = true;
}

void Linear::quantize(tensor::QuantMode mode) {
  if (mode == tensor::QuantMode::Fp32) return;
  require(!quantized(), "Linear::quantize: layer is already quantized");
  require(lora_rank_ == 0,
          "Linear::quantize: merge the LoRA adapter first (merge_lora)");
  qweight_ = tensor::QuantizedMatrix::quantize(weight_.value, mode);
  qmode_ = mode;
  // Drop the fp32 copy — the memory reduction is the point — and freeze
  // the (now empty) parameter so trainers skip it.
  weight_.value = Matrix();
  weight_.grad = Matrix();
  weight_.trainable = false;
}

std::size_t Linear::weight_memory_bytes() const {
  std::size_t bytes = quantized() ? qweight_.memory_bytes()
                                  : weight_.value.size() * sizeof(float);
  if (lora_rank_ > 0) {
    bytes += (lora_a_.value.size() + lora_b_.value.size()) * sizeof(float);
  }
  return bytes;
}

void Linear::collect_parameters(ParameterList& out) {
  out.push_back(&weight_);
  if (lora_rank_ > 0) {
    out.push_back(&lora_a_);
    out.push_back(&lora_b_);
  }
}

}  // namespace hpcgpt::nn
