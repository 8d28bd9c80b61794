#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace hpcgpt::text {

using TokenId = std::int32_t;

/// Byte-level BPE tokenizer, trainable from a corpus.
///
/// The base alphabet is the 256 byte values plus a handful of special
/// tokens, so any input round-trips losslessly. Merges are learned greedily
/// by pair frequency, exactly like the original BPE procedure used by the
/// GPT/LLaMA families the paper builds on. The trained vocabulary is shared
/// by every model configuration in `hpcgpt::core` so that fine-tuned and
/// baseline models see identical token streams.
class BpeTokenizer {
 public:
  /// Special tokens occupy the ids immediately after the byte alphabet.
  static constexpr TokenId kPad = 256;
  static constexpr TokenId kBos = 257;
  static constexpr TokenId kEos = 258;
  static constexpr TokenId kSep = 259;  ///< instruction/answer separator
  static constexpr TokenId kFirstMerge = 260;

  BpeTokenizer();

  /// Learns merges from `corpus` until the vocabulary reaches `vocab_size`
  /// (or no pair occurs at least `min_pair_count` times). `vocab_size` must
  /// be >= kFirstMerge.
  void train(const std::vector<std::string>& corpus, std::size_t vocab_size,
             std::size_t min_pair_count = 2);

  /// Encodes UTF-8/byte text into token ids (no BOS/EOS added).
  ///
  /// Canonical BPE segmentation: starting from the bytes, repeatedly apply
  /// the earliest-learned merge among all adjacent pairs, at its leftmost
  /// occurrence when several pairs share it. Costs O(n log n) for n bytes:
  /// candidate pairs wait in a min-heap keyed (merge id, byte position)
  /// over a linked list of symbols, and each merge looks up only the two
  /// pairs it creates.
  std::vector<TokenId> encode(std::string_view text) const;

  /// Decodes ids back to bytes; special tokens decode to empty.
  std::string decode(const std::vector<TokenId>& ids) const;

  /// Total vocabulary size (bytes + specials + merges).
  std::size_t vocab_size() const { return kFirstMerge + merges_.size(); }

  /// Number of learned merges.
  std::size_t merge_count() const { return merges_.size(); }

  /// Human-readable piece for a token id (bytes rendered verbatim).
  std::string piece(TokenId id) const;

  /// Serialization for checkpointing (merge list as text, one per line).
  std::string save() const;
  /// Inverse of save(). Throws ParseError on a bad header, a truncated
  /// list, or a merge whose parts are not byte ids or earlier merge ids
  /// (the only tables train() produces).
  static BpeTokenizer load(std::string_view serialized);

 private:
  struct Merge {
    TokenId left;
    TokenId right;
  };

  struct PairHash {
    std::size_t operator()(const std::pair<TokenId, TokenId>& p) const {
      return std::hash<std::uint64_t>()(
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.first))
           << 32) |
          static_cast<std::uint32_t>(p.second));
    }
  };

  void rebuild_merge_index();

  std::vector<Merge> merges_;
  std::unordered_map<std::pair<TokenId, TokenId>, TokenId, PairHash>
      merge_index_;
};

}  // namespace hpcgpt::text
