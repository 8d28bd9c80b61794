#include "hpcgpt/retrieval/index.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "hpcgpt/obs/metrics.hpp"
#include "hpcgpt/obs/trace.hpp"

namespace hpcgpt::retrieval {

namespace {

void put_varint(std::vector<std::uint8_t>& out, std::uint32_t v) {
  while (v >= 0x80u) {
    out.push_back(static_cast<std::uint8_t>(v | 0x80u));
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint32_t get_varint(const std::uint8_t* bytes, std::size_t& pos) {
  std::uint32_t v = 0;
  int shift = 0;
  while (true) {
    const std::uint8_t b = bytes[pos++];
    v |= static_cast<std::uint32_t>(b & 0x7fu) << shift;
    if ((b & 0x80u) == 0) break;
    shift += 7;
  }
  return v;
}

}  // namespace

CompressedPostings CompressedPostings::encode(std::span<const Posting> postings,
                                              std::size_t block_size) {
  CompressedPostings out;
  out.count_ = static_cast<std::uint32_t>(postings.size());
  DocId prev = 0;
  for (std::size_t i = 0; i < postings.size(); i += block_size) {
    const std::size_t n = std::min(block_size, postings.size() - i);
    Skip skip;
    skip.offset = static_cast<std::uint32_t>(out.bytes_.size());
    skip.count = static_cast<std::uint16_t>(n);
    for (std::size_t j = 0; j < n; ++j) {
      const Posting& p = postings[i + j];
      put_varint(out.bytes_, p.doc - prev);
      out.bytes_.push_back(p.impact);
      prev = p.doc;
      skip.max_impact = std::max(skip.max_impact, p.impact);
    }
    skip.last_doc = prev;
    out.max_impact_ = std::max(out.max_impact_, skip.max_impact);
    out.skips_.push_back(skip);
  }
  return out;
}

std::size_t CompressedPostings::decode_block(std::size_t block,
                                             Posting* out) const {
  const Skip& skip = skips_[block];
  DocId prev = block == 0 ? 0 : skips_[block - 1].last_doc;
  std::size_t pos = skip.offset;
  for (std::size_t j = 0; j < skip.count; ++j) {
    prev += get_varint(bytes_.data(), pos);
    out[j].doc = prev;
    out[j].impact = bytes_[pos++];
  }
  return skip.count;
}

Segment Segment::build(
    const std::vector<std::pair<TermId, std::vector<Posting>>>& terms,
    std::uint32_t docs, std::size_t block_size) {
  Segment s;
  s.docs_ = docs;
  s.terms_.reserve(terms.size());
  s.lists_.reserve(terms.size());
  for (const auto& [term, postings] : terms) {
    s.terms_.push_back(term);
    s.lists_.push_back(CompressedPostings::encode(postings, block_size));
  }
  return s;
}

const CompressedPostings* Segment::find(TermId term) const {
  const auto it = std::lower_bound(terms_.begin(), terms_.end(), term);
  if (it == terms_.end() || *it != term) return nullptr;
  return &lists_[static_cast<std::size_t>(it - terms_.begin())];
}

std::size_t Segment::byte_size() const {
  std::size_t total = terms_.size() * sizeof(TermId);
  for (const CompressedPostings& l : lists_) total += l.byte_size();
  return total;
}

PostingIterator::PostingIterator(
    std::vector<const CompressedPostings*> sealed, std::span<const Posting> tail,
    std::size_t block_size)
    : sealed_(std::move(sealed)), tail_(tail) {
  buf_.resize(block_size);
  std::uint8_t tail_max = 0;
  for (const CompressedPostings* cp : sealed_)
    max_impact_ = std::max(max_impact_, cp->max_impact());
  for (const Posting& p : tail_) tail_max = std::max(tail_max, p.impact);
  max_impact_ = std::max(max_impact_, tail_max);
  tail_max_ = tail_max;
  advance_source();
}

void PostingIterator::load_block(std::size_t block) {
  block_ = block;
  buf_len_ = sealed_[source_]->decode_block(block, buf_.data());
  buf_pos_ = 0;
  current_ = buf_[0];
  block_max_ = sealed_[source_]->skips()[block].max_impact;
  postings_decoded_ += buf_len_;
}

// Positions the cursor at the first posting of source_ (or a later
// non-empty source / the tail / end).
void PostingIterator::advance_source() {
  while (source_ < sealed_.size() && sealed_[source_]->count() == 0) ++source_;
  if (source_ < sealed_.size()) {
    load_block(0);
    return;
  }
  if (!tail_.empty()) {
    tail_pos_ = 0;
    current_ = tail_[0];
    block_max_ = tail_max_;
    ++postings_decoded_;
    return;
  }
  current_ = Posting{kEndDoc, 0};
}

DocId PostingIterator::block_last_doc() const {
  if (at_end()) return kEndDoc;
  if (source_ < sealed_.size()) return sealed_[source_]->skips()[block_].last_doc;
  return tail_.back().doc;
}

void PostingIterator::next() {
  if (at_end()) return;
  if (source_ < sealed_.size()) {
    if (++buf_pos_ < buf_len_) {
      current_ = buf_[buf_pos_];
      return;
    }
    if (block_ + 1 < sealed_[source_]->skips().size()) {
      load_block(block_ + 1);
      return;
    }
    ++source_;
    advance_source();
    return;
  }
  if (++tail_pos_ < tail_.size()) {
    current_ = tail_[tail_pos_];
    ++postings_decoded_;
  } else {
    current_ = Posting{kEndDoc, 0};
  }
}

void PostingIterator::advance(DocId target) {
  if (at_end() || current_.doc >= target) return;
  const bool was_tail = source_ >= sealed_.size();
  if (!was_tail) {
    const auto& skips = sealed_[source_]->skips();
    if (skips[block_].last_doc >= target) {
      // Target lives in the already-decoded block.
      while (buf_[buf_pos_].doc < target) ++buf_pos_;
      current_ = buf_[buf_pos_];
      return;
    }
    std::size_t b = block_ + 1;
    if (!skips.empty() && skips.back().last_doc >= target) {
      while (skips[b].last_doc < target) {
        ++blocks_skipped_;
        ++b;
      }
      load_block(b);
      while (buf_[buf_pos_].doc < target) ++buf_pos_;
      current_ = buf_[buf_pos_];
      return;
    }
    blocks_skipped_ += skips.size() - b;
    ++source_;
    while (source_ < sealed_.size()) {
      const auto& s = sealed_[source_]->skips();
      if (!s.empty() && s.back().last_doc >= target) {
        std::size_t nb = 0;
        while (s[nb].last_doc < target) {
          ++blocks_skipped_;
          ++nb;
        }
        load_block(nb);
        while (buf_[buf_pos_].doc < target) ++buf_pos_;
        current_ = buf_[buf_pos_];
        return;
      }
      blocks_skipped_ += s.size();
      ++source_;
    }
  }
  // Tail: binary search from the current position (or the start if we just
  // fell off the sealed segments).
  const std::size_t start = was_tail ? tail_pos_ : 0;
  const auto it = std::lower_bound(
      tail_.begin() + static_cast<std::ptrdiff_t>(start), tail_.end(), target,
      [](const Posting& p, DocId t) { return p.doc < t; });
  if (it == tail_.end()) {
    current_ = Posting{kEndDoc, 0};
    return;
  }
  tail_pos_ = static_cast<std::size_t>(it - tail_.begin());
  current_ = *it;
  block_max_ = tail_max_;
  ++postings_decoded_;
}

InvertedIndex::InvertedIndex(IndexOptions opts) : opts_(opts) {}

void InvertedIndex::add_document(
    DocId doc, std::span<const std::pair<TermId, std::uint8_t>> terms) {
  for (const auto& [term, impact] : terms) {
    TailList& list = tail_[term];
    list.postings.push_back(Posting{doc, impact});
    list.max_impact = std::max(list.max_impact, impact);
    ++postings_;
  }
  ++docs_;
  if (++tail_docs_ >= opts_.seal_threshold) seal_tail();
}

PostingIterator InvertedIndex::iterator(TermId term) const {
  std::vector<const CompressedPostings*> lists;
  for (const Segment& s : sealed_) {
    const CompressedPostings* cp = s.find(term);
    if (cp != nullptr) lists.push_back(cp);
  }
  std::span<const Posting> tail;
  const auto it = tail_.find(term);
  if (it != tail_.end()) tail = it->second.postings;
  return PostingIterator(std::move(lists), tail, opts_.block_size);
}

void InvertedIndex::seal_tail() {
  if (tail_.empty()) return;
  HPCGPT_TRACE("retrieval.segment");
  static obs::Counter& seals =
      obs::MetricsRegistry::global().counter("retrieval.index.seals");
  seals.add();
  std::vector<std::pair<TermId, std::vector<Posting>>> terms;
  terms.reserve(tail_.size());
  for (auto& [term, list] : tail_)
    terms.emplace_back(term, std::move(list.postings));
  std::sort(terms.begin(), terms.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  sealed_.push_back(Segment::build(terms, tail_docs_, opts_.block_size));
  tail_.clear();
  tail_docs_ = 0;
  ++seals_;
  maybe_merge();
}

void InvertedIndex::maybe_merge() {
  if (sealed_.size() < opts_.merge_fanin) return;
  HPCGPT_TRACE("retrieval.segment");
  static obs::Counter& merge_counter =
      obs::MetricsRegistry::global().counter("retrieval.index.merges");
  merge_counter.add();
  // Doc-id ranges are disjoint and increasing by segment order, so a merge
  // is per-term concatenation of the decoded lists.
  std::map<TermId, std::vector<Posting>> acc;
  std::uint32_t docs = 0;
  std::vector<Posting> buf(opts_.block_size);
  for (const Segment& s : sealed_) {
    docs += s.doc_count();
    for (std::size_t t = 0; t < s.terms().size(); ++t) {
      std::vector<Posting>& dst = acc[s.terms()[t]];
      const CompressedPostings& cp = s.lists()[t];
      for (std::size_t b = 0; b < cp.skips().size(); ++b) {
        const std::size_t n = cp.decode_block(b, buf.data());
        dst.insert(dst.end(), buf.begin(),
                   buf.begin() + static_cast<std::ptrdiff_t>(n));
      }
    }
  }
  std::vector<std::pair<TermId, std::vector<Posting>>> terms;
  terms.reserve(acc.size());
  for (auto& [term, postings] : acc) terms.emplace_back(term, std::move(postings));
  std::vector<Segment> merged;
  merged.push_back(Segment::build(terms, docs, opts_.block_size));
  sealed_ = std::move(merged);
  ++merges_;
}

InvertedIndex::Stats InvertedIndex::stats() const {
  Stats s;
  s.docs = docs_;
  s.postings = postings_;
  s.sealed_segments = sealed_.size();
  s.tail_docs = tail_docs_;
  for (const Segment& seg : sealed_) s.compressed_bytes += seg.byte_size();
  s.seals = seals_;
  s.merges = merges_;
  return s;
}

std::vector<ScoredDoc> wand_top_k(
    const InvertedIndex& index,
    std::span<const std::pair<TermId, double>> query, double impact_scale,
    std::size_t k, WandStats* stats) {
  if (k == 0 || query.empty()) return {};
  struct Cursor {
    PostingIterator it;
    double weight = 0.0;
    double bound = 0.0;  // weight * max_impact * impact_scale
  };
  std::vector<Cursor> cursors;  // ascending term-id order (query order)
  cursors.reserve(query.size());
  for (const auto& [term, weight] : query) {
    Cursor c{index.iterator(term), weight, 0.0};
    if (c.it.at_end()) continue;
    c.bound =
        weight * (static_cast<double>(c.it.max_impact()) * impact_scale);
    cursors.push_back(std::move(c));
  }

  const auto better = [](const ScoredDoc& a, const ScoredDoc& b) {
    return a.score > b.score || (a.score == b.score && a.doc < b.doc);
  };
  std::vector<ScoredDoc> heap;  // min-heap under `better`: worst kept on top
  // k comes from the caller (--rag-top-k, RagConfig::top_k): never reserve
  // more slots than there are documents to fill them.
  heap.reserve(std::min<std::size_t>(k, index.doc_count()));

  std::vector<Cursor*> order;
  order.reserve(cursors.size());
  for (Cursor& c : cursors) order.push_back(&c);

  while (true) {
    order.erase(std::remove_if(order.begin(), order.end(),
                               [](Cursor* c) { return c->it.at_end(); }),
                order.end());
    if (order.empty()) break;
    std::sort(order.begin(), order.end(), [](Cursor* a, Cursor* b) {
      return a->it.doc() < b->it.doc();
    });
    const bool full = heap.size() >= k;
    const double thr = full ? heap.front().score : 0.0;
    // FP slack: the pivot bound is accumulated in doc order while real
    // scores accumulate in term order, so allow a few ulps before pruning.
    // Evaluating extra candidates is always safe — scoring is exact.
    const double slack = full ? 1e-12 * (std::abs(thr) + 1.0) : 0.0;
    double ub = 0.0;
    std::size_t p = 0;
    bool found = false;
    for (; p < order.size(); ++p) {
      ub += order[p]->bound;
      if (!full || ub > thr - slack) {
        found = true;
        break;
      }
    }
    if (!found) break;  // no document can beat the current top-k
    const DocId pivot = order[p]->it.doc();
    if (order[0]->it.doc() == pivot) {
      // Everything before the pivot has been advanced past it: the pivot is
      // fully positioned. Block-max refinement before paying for scoring,
      // accumulated in ascending term-id order — the scan's exact summation
      // order — so the bound dominates every scan score term-for-term even
      // in floating point. A candidate whose bound only *ties* the k-th
      // score can be dropped too: scoring visits docs in ascending id
      // order, so a tie always loses to the incumbent.
      if (full) {
        double block_ub = 0.0;
        DocId horizon = PostingIterator::kEndDoc;
        for (const Cursor& c : cursors) {
          if (c.it.at_end() || c.it.doc() != pivot) continue;
          block_ub += c.weight *
                      (static_cast<double>(c.it.block_max_impact()) *
                       impact_scale);
          horizon = std::min(horizon, c.it.block_last_doc());
        }
        if (block_ub <= thr) {
          if (stats != nullptr) ++stats->block_skips;
          // The bound holds for every doc up to the run's nearest block
          // boundary, and docs before the first beyond-pivot cursor can
          // only match run cursors: jump the whole run past both, instead
          // of stepping one doc at a time.
          DocId beyond = PostingIterator::kEndDoc;
          for (Cursor* c : order) {
            if (c->it.doc() != pivot) {
              beyond = c->it.doc();
              break;
            }
          }
          const DocId target =
              std::min(horizon == PostingIterator::kEndDoc ? horizon
                                                           : horizon + 1,
                       beyond);
          for (Cursor* c : order) {
            if (c->it.doc() != pivot) break;
            c->it.advance(target);
          }
          continue;
        }
      }
      // Score in ascending term-id order — identical accumulation to the
      // brute-force scan, so scores (and therefore ranking) match bitwise.
      double score = 0.0;
      for (const Cursor& c : cursors) {
        if (!c.it.at_end() && c.it.doc() == pivot)
          score += c.weight *
                   (static_cast<double>(c.it.impact()) * impact_scale);
      }
      if (stats != nullptr) ++stats->docs_scored;
      const ScoredDoc cand{score, pivot};
      if (heap.size() < k) {
        heap.push_back(cand);
        std::push_heap(heap.begin(), heap.end(), better);
      } else if (better(cand, heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), better);
        heap.back() = cand;
        std::push_heap(heap.begin(), heap.end(), better);
      }
      for (Cursor* c : order)
        if (c->it.doc() == pivot) c->it.next();
    } else {
      // The cursors strictly below the pivot are exactly the ones whose
      // combined bound failed to reach the threshold (that failure is
      // what made order[p] the pivot), so no document before the pivot
      // can enter the top-k: jump every below-pivot cursor straight to
      // the pivot. order[0] is strictly below it in this branch, so at
      // least one cursor moves and the loop always progresses.
      for (std::size_t i = 0; i < p; ++i) {
        if (order[i]->it.doc() >= pivot) break;  // doc-sorted prefix
        order[i]->it.advance(pivot);
      }
    }
  }

  if (stats != nullptr) {
    for (const Cursor& c : cursors) {
      stats->blocks_skipped += c.it.blocks_skipped();
      stats->postings_decoded += c.it.postings_decoded();
    }
  }
  std::sort(heap.begin(), heap.end(), better);
  return heap;
}

}  // namespace hpcgpt::retrieval
