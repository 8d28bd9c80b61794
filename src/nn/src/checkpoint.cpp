#include "hpcgpt/nn/checkpoint.hpp"

#include <cstring>
#include <fstream>
#include <sstream>

#include "hpcgpt/support/error.hpp"
#include "hpcgpt/tensor/half.hpp"

namespace hpcgpt::nn {

namespace {

constexpr char kMagic[] = "hpcgpt-ckpt-v1";

void put_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.append(buf, 8);
}

std::uint64_t get_u64(const std::string& in, std::size_t& pos) {
  if (pos + 8 > in.size()) throw ParseError("checkpoint: truncated u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[pos + i]))
         << (8 * i);
  }
  pos += 8;
  return v;
}

void put_string(std::string& out, const std::string& s) {
  put_u64(out, s.size());
  out += s;
}

std::string get_string(const std::string& in, std::size_t& pos) {
  const std::uint64_t n = get_u64(in, pos);
  if (pos + n > in.size()) throw ParseError("checkpoint: truncated string");
  std::string s = in.substr(pos, n);
  pos += n;
  return s;
}

}  // namespace

std::string save_checkpoint(Transformer& model) {
  require(model.quant_mode() == tensor::QuantMode::Fp32,
          "save_checkpoint: model is quantized — checkpoints carry the "
          "fp32 weights (quantize after loading, not before saving)");
  std::string out;
  out += kMagic;
  const TransformerConfig& c = model.config();
  put_u64(out, c.vocab_size);
  put_u64(out, c.d_model);
  put_u64(out, c.n_heads);
  put_u64(out, c.n_layers);
  put_u64(out, c.d_ff);
  put_u64(out, c.max_seq);
  put_u64(out, c.lora_rank);
  put_u64(out, c.train_lora_only ? 1 : 0);

  const ParameterList params = model.parameters();
  put_u64(out, params.size());
  for (const Parameter* p : params) {
    put_string(out, p->name);
    put_u64(out, p->value.rows());
    put_u64(out, p->value.cols());
    const auto half = p->value.to_half();
    std::string raw(half.size() * 2, '\0');
    for (std::size_t i = 0; i < half.size(); ++i) {
      const std::uint16_t b = half[i].bits();
      raw[2 * i] = static_cast<char>(b & 0xFF);
      raw[2 * i + 1] = static_cast<char>(b >> 8);
    }
    put_string(out, raw);
  }
  return out;
}

Transformer load_checkpoint(const std::string& blob) {
  const std::size_t magic_len = std::strlen(kMagic);
  if (blob.size() < magic_len || blob.compare(0, magic_len, kMagic) != 0) {
    throw ParseError("checkpoint: bad magic");
  }
  std::size_t pos = magic_len;
  TransformerConfig c;
  c.vocab_size = get_u64(blob, pos);
  c.d_model = get_u64(blob, pos);
  c.n_heads = get_u64(blob, pos);
  c.n_layers = get_u64(blob, pos);
  c.d_ff = get_u64(blob, pos);
  c.max_seq = get_u64(blob, pos);
  c.lora_rank = get_u64(blob, pos);
  c.train_lora_only = get_u64(blob, pos) != 0;
  // The header is untrusted: check it, and that the blob can hold the
  // fp16 weights it implies, before allocating anything.
  std::size_t weights = 0;
  try {
    c.validate();
    weights = c.weight_count();
  } catch (const InvalidArgument& e) {
    throw ParseError(std::string("checkpoint: bad header: ") + e.what());
  }
  if (weights > (blob.size() - pos) / 2) {
    throw ParseError("checkpoint: header implies more weights than the blob "
                     "holds");
  }

  Transformer model(c);
  const ParameterList params = model.parameters();
  const std::uint64_t count = get_u64(blob, pos);
  if (count != params.size()) {
    throw ParseError("checkpoint: parameter count mismatch");
  }
  for (Parameter* p : params) {
    const std::string name = get_string(blob, pos);
    if (name != p->name) {
      throw ParseError("checkpoint: parameter order mismatch at " + name);
    }
    const std::uint64_t rows = get_u64(blob, pos);
    const std::uint64_t cols = get_u64(blob, pos);
    if (rows != p->value.rows() || cols != p->value.cols()) {
      throw ParseError("checkpoint: shape mismatch at " + name);
    }
    const std::string raw = get_string(blob, pos);
    if (raw.size() != rows * cols * 2) {
      throw ParseError("checkpoint: payload size mismatch at " + name);
    }
    std::vector<tensor::Half> half(rows * cols);
    for (std::size_t i = 0; i < half.size(); ++i) {
      const auto lo = static_cast<unsigned char>(raw[2 * i]);
      const auto hi = static_cast<unsigned char>(raw[2 * i + 1]);
      half[i] = tensor::Half::from_bits(
          static_cast<std::uint16_t>(lo | (hi << 8)));
    }
    p->value = tensor::Matrix::from_half(rows, cols, half);
  }
  return model;
}

void save_checkpoint_file(Transformer& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  require(out.good(), "save_checkpoint_file: cannot open " + path);
  const std::string blob = save_checkpoint(model);
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  require(out.good(), "save_checkpoint_file: write failed for " + path);
}

Transformer load_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "load_checkpoint_file: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return load_checkpoint(buffer.str());
}

}  // namespace hpcgpt::nn
