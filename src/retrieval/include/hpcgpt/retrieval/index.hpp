#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
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

struct IndexOptions {
  std::size_t block_size = 64;        ///< postings per compressed block
  std::size_t seal_threshold = 4096;  ///< tail docs before sealing a segment
  std::size_t merge_fanin = 8;        ///< sealed segments before a full merge
};

/// Immutable delta-compressed postings list for one term of one sealed
/// segment. Layout: fixed-size blocks of (varint doc-id gap, impact byte)
/// pairs; each block has a skip entry carrying its last doc id, byte
/// offset, posting count and block-max impact, so a top-k iterator can
/// jump whole blocks without decoding them and WAND can bound the best
/// score any block could contribute.
class CompressedPostings {
 public:
  struct Skip {
    DocId last_doc = 0;        ///< last doc id in the block
    std::uint32_t offset = 0;  ///< byte offset of the block in `bytes_`
    std::uint16_t count = 0;   ///< postings in the block
    std::uint8_t max_impact = 0;
  };

  /// Encodes `postings` (sorted by doc id) into blocks of `block_size`.
  static CompressedPostings encode(std::span<const Posting> postings,
                                   std::size_t block_size);

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

/// A sealed, immutable index segment: sorted term dictionary with one
/// compressed postings list per term, covering a contiguous doc-id range.
class Segment {
 public:
  static Segment build(
      const std::vector<std::pair<TermId, std::vector<Posting>>>& terms,
      std::uint32_t docs, std::size_t block_size);

  const CompressedPostings* find(TermId term) const;
  const std::vector<TermId>& terms() const { return terms_; }
  const std::vector<CompressedPostings>& lists() const { return lists_; }
  std::uint32_t doc_count() const { return docs_; }
  std::size_t byte_size() const;

 private:
  std::vector<TermId> terms_;  // sorted, parallel to lists_
  std::vector<CompressedPostings> lists_;
  std::uint32_t docs_ = 0;
};

/// Document-ordered cursor over one term's postings across every sealed
/// segment plus the in-memory tail, with skip-entry block jumps.
class PostingIterator {
 public:
  static constexpr DocId kEndDoc = 0xffffffffu;

  PostingIterator() = default;
  PostingIterator(std::vector<const CompressedPostings*> sealed,
                  std::span<const Posting> tail, std::size_t block_size);

  bool at_end() const { return current_.doc == kEndDoc; }
  DocId doc() const { return current_.doc; }
  std::uint8_t impact() const { return current_.impact; }

  /// Max impact across the whole list (WAND's per-term upper bound).
  std::uint8_t max_impact() const { return max_impact_; }
  /// Max impact of the current block (tail: whole-tail max) — the
  /// block-max refinement bound.
  std::uint8_t block_max_impact() const { return block_max_; }
  /// Last doc id the current block's bound covers (tail: the last tail
  /// doc) — the horizon block-max WAND may skip to when the bound loses.
  DocId block_last_doc() const;

  void next();
  /// Positions the cursor at the first posting with doc >= target,
  /// skipping whole blocks via the skip entries.
  void advance(DocId target);

  /// Blocks jumped over without decoding (across next/advance calls).
  std::uint64_t blocks_skipped() const { return blocks_skipped_; }
  /// Postings materialized from compressed blocks or the tail.
  std::uint64_t postings_decoded() const { return postings_decoded_; }

 private:
  void load_block(std::size_t block);
  void advance_source();

  std::vector<const CompressedPostings*> sealed_;
  std::span<const Posting> tail_;
  std::size_t source_ = 0;  // index into sealed_, == sealed_.size() => tail
  std::size_t block_ = 0;
  std::vector<Posting> buf_;
  std::size_t buf_pos_ = 0;
  std::size_t buf_len_ = 0;
  std::size_t tail_pos_ = 0;
  Posting current_{kEndDoc, 0};
  std::uint8_t max_impact_ = 0;
  std::uint8_t block_max_ = 0;
  std::uint8_t tail_max_ = 0;
  std::uint64_t blocks_skipped_ = 0;
  std::uint64_t postings_decoded_ = 0;
};

/// Incremental inverted index: an in-memory tail segment absorbs add()s
/// (immediately searchable), seals into a compressed segment every
/// `seal_threshold` docs, and sealed segments are merged once
/// `merge_fanin` of them accumulate.
class InvertedIndex {
 public:
  explicit InvertedIndex(IndexOptions opts = {});

  /// Appends one document. `terms` must be sorted by term id with impacts
  /// > 0, and `doc` must be strictly greater than any previous id.
  void add_document(DocId doc,
                    std::span<const std::pair<TermId, std::uint8_t>> terms);

  /// Cursor over `term`'s postings (empty iterator for unseen terms).
  PostingIterator iterator(TermId term) const;

  /// Seals the tail into a compressed segment now (automatic at
  /// seal_threshold; public so tests can force segment boundaries).
  void seal_tail();

  std::uint32_t doc_count() const { return docs_; }

  struct Stats {
    std::size_t docs = 0;
    std::size_t postings = 0;
    std::size_t sealed_segments = 0;
    std::size_t tail_docs = 0;
    std::size_t compressed_bytes = 0;
    std::uint64_t seals = 0;
    std::uint64_t merges = 0;
  };
  Stats stats() const;

 private:
  void maybe_merge();

  struct TailList {
    std::vector<Posting> postings;
    std::uint8_t max_impact = 0;
  };

  IndexOptions opts_;
  std::vector<Segment> sealed_;
  std::unordered_map<TermId, TailList> tail_;
  std::uint32_t docs_ = 0;
  std::uint32_t tail_docs_ = 0;
  std::size_t postings_ = 0;
  std::uint64_t seals_ = 0;
  std::uint64_t merges_ = 0;
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
