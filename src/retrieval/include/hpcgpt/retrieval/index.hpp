#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "hpcgpt/retrieval/embedder.hpp"

namespace hpcgpt::retrieval {

/// One postings entry: a document and its 8-bit quantized impact score.
/// The impact is the document-side term weight (TF-IDF or BM25) scaled to
/// [0, 255]; both the scan and the WAND paths score from the *same*
/// quantized value, which is what makes their rankings bitwise equal.
struct Posting {
  DocId doc = 0;
  std::uint8_t impact = 0;
};

/// Postings per compressed block (and per skip entry).
inline constexpr std::size_t kPostingBlock = 64;

/// One term's postings, delta-compressed as they are appended. Layout:
/// blocks of kPostingBlock (varint doc-id gap, impact byte) pairs; each
/// block has a skip entry carrying its last doc id, byte offset, posting
/// count and block-max impact, so a top-k iterator can jump whole blocks
/// without decoding them and WAND can bound the best score any block
/// could contribute. A block's first gap is relative to the previous
/// block's last doc, so appending never rewrites earlier bytes.
class PostingList {
 public:
  struct Skip {
    DocId last_doc = 0;        ///< last doc id in the block
    std::uint32_t offset = 0;  ///< byte offset of the block in `bytes_`
    std::uint16_t count = 0;   ///< postings in the block
    std::uint8_t max_impact = 0;
  };

  /// Appends `p`; `p.doc` must be greater than every doc appended before.
  void append(Posting p);

  /// Decodes block `block` into `out` (capacity >= skips()[block].count).
  /// Returns the number of postings written.
  std::size_t decode_block(std::size_t block, Posting* out) const;

  const std::vector<Skip>& skips() const { return skips_; }
  std::uint32_t count() const { return count_; }
  std::uint8_t max_impact() const { return max_impact_; }
  std::size_t byte_size() const {
    return bytes_.size() + skips_.size() * sizeof(Skip);
  }

 private:
  std::vector<std::uint8_t> bytes_;
  std::vector<Skip> skips_;
  std::uint32_t count_ = 0;
  std::uint8_t max_impact_ = 0;
};

/// Document-ordered cursor over one term's PostingList, decoding a block
/// at a time and jumping whole blocks by skip entry.
class PostingIterator {
 public:
  static constexpr DocId kEndDoc = 0xffffffffu;

  /// An exhausted cursor when `list` is null or empty.
  explicit PostingIterator(const PostingList* list = nullptr);

  bool at_end() const { return current_.doc == kEndDoc; }
  DocId doc() const { return current_.doc; }
  std::uint8_t impact() const { return current_.impact; }

  /// Max impact across the whole list (WAND's per-term upper bound).
  std::uint8_t max_impact() const {
    return list_ == nullptr ? 0 : list_->max_impact();
  }
  /// Max impact of the current block — the block-max refinement bound.
  std::uint8_t block_max_impact() const;
  /// Last doc id of the current block — the horizon block-max WAND may
  /// skip to when the bound loses.
  DocId block_last_doc() const;

  void next();
  /// Positions the cursor at the first posting with doc >= target,
  /// skipping whole blocks via the skip entries.
  void advance(DocId target);

  /// Blocks jumped over without decoding (across next/advance calls).
  std::uint64_t blocks_skipped() const { return blocks_skipped_; }
  /// Postings materialized by decoding blocks.
  std::uint64_t postings_decoded() const { return postings_decoded_; }

 private:
  void load_block(std::size_t block);

  const PostingList* list_ = nullptr;
  std::size_t block_ = 0;
  std::array<Posting, kPostingBlock> buf_{};
  std::size_t buf_pos_ = 0;
  std::size_t buf_len_ = 0;
  Posting current_{kEndDoc, 0};
  std::uint64_t blocks_skipped_ = 0;
  std::uint64_t postings_decoded_ = 0;
};

/// Incremental inverted index: one append-only PostingList per term id.
/// Doc ids only grow, so every list stays sorted and each added document
/// is searchable as soon as add_document returns.
class InvertedIndex {
 public:
  /// Appends one document. `terms` must be sorted by term id with impacts
  /// > 0, and `doc` must be strictly greater than any previous id.
  void add_document(DocId doc,
                    std::span<const std::pair<TermId, std::uint8_t>> terms);

  /// Cursor over `term`'s postings (exhausted for unseen terms).
  PostingIterator iterator(TermId term) const;

  /// Running totals, updated by add_document.
  struct Stats {
    std::size_t docs = 0;
    std::size_t postings = 0;
    std::size_t distinct_terms = 0;
    std::size_t compressed_bytes = 0;  ///< PostingList::byte_size() sum
  };
  const Stats& stats() const { return stats_; }

 private:
  std::vector<PostingList> lists_;  // indexed by term id
  Stats stats_;
};

/// A (score, doc) result; ties broken by ascending doc id.
struct ScoredDoc {
  double score = 0.0;
  DocId doc = 0;
};

struct WandStats {
  std::uint64_t docs_scored = 0;
  std::uint64_t blocks_skipped = 0;
  std::uint64_t postings_decoded = 0;
  /// Pivot candidates dismissed wholesale by the block-max bound (each
  /// dismissal jumps the pivot run past a block boundary).
  std::uint64_t block_skips = 0;
};

/// WAND top-k over BM25/TF-IDF-weighted query terms. `query` must be
/// sorted by ascending term id with weights > 0; `impact_scale` dequantizes
/// stored 8-bit impacts (score contribution = weight * impact *
/// impact_scale, accumulated in ascending term-id order — the exact
/// arithmetic the brute-force scan uses, so rankings match bitwise).
/// Returns at most k matched docs, best first (score desc, doc id asc);
/// docs matching no query term are not returned.
std::vector<ScoredDoc> wand_top_k(
    const InvertedIndex& index,
    std::span<const std::pair<TermId, double>> query, double impact_scale,
    std::size_t k, WandStats* stats = nullptr);

}  // namespace hpcgpt::retrieval
