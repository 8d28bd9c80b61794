#include "hpcgpt/retrieval/index.hpp"

#include <algorithm>
#include <cmath>

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

void PostingList::append(Posting p) {
  const DocId prev = skips_.empty() ? 0 : skips_.back().last_doc;
  if (skips_.empty() || skips_.back().count == kPostingBlock) {
    Skip skip;
    skip.offset = static_cast<std::uint32_t>(bytes_.size());
    skips_.push_back(skip);
  }
  put_varint(bytes_, p.doc - prev);
  bytes_.push_back(p.impact);
  Skip& skip = skips_.back();
  skip.last_doc = p.doc;
  ++skip.count;
  skip.max_impact = std::max(skip.max_impact, p.impact);
  ++count_;
  max_impact_ = std::max(max_impact_, p.impact);
}

std::size_t PostingList::decode_block(std::size_t block, Posting* out) const {
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

PostingIterator::PostingIterator(const PostingList* list) : list_(list) {
  if (list_ != nullptr && list_->count() > 0) load_block(0);
}

void PostingIterator::load_block(std::size_t block) {
  block_ = block;
  buf_len_ = list_->decode_block(block, buf_.data());
  buf_pos_ = 0;
  current_ = buf_[0];
  postings_decoded_ += buf_len_;
}

std::uint8_t PostingIterator::block_max_impact() const {
  return at_end() ? 0 : list_->skips()[block_].max_impact;
}

DocId PostingIterator::block_last_doc() const {
  return at_end() ? kEndDoc : list_->skips()[block_].last_doc;
}

void PostingIterator::next() {
  if (at_end()) return;
  if (++buf_pos_ < buf_len_) {
    current_ = buf_[buf_pos_];
  } else if (block_ + 1 < list_->skips().size()) {
    load_block(block_ + 1);
  } else {
    current_ = Posting{kEndDoc, 0};
  }
}

void PostingIterator::advance(DocId target) {
  if (at_end() || current_.doc >= target) return;
  const std::vector<PostingList::Skip>& skips = list_->skips();
  if (skips[block_].last_doc < target) {
    // Jump every block that ends before the target without decoding it.
    std::size_t b = block_ + 1;
    while (b < skips.size() && skips[b].last_doc < target) {
      ++blocks_skipped_;
      ++b;
    }
    if (b == skips.size()) {
      current_ = Posting{kEndDoc, 0};
      return;
    }
    load_block(b);
  }
  while (buf_[buf_pos_].doc < target) ++buf_pos_;
  current_ = buf_[buf_pos_];
}

void InvertedIndex::add_document(
    DocId doc, std::span<const std::pair<TermId, std::uint8_t>> terms) {
  for (const auto& [term, impact] : terms) {
    if (term >= lists_.size()) lists_.resize(std::size_t{term} + 1);
    PostingList& list = lists_[term];
    if (list.count() == 0) ++stats_.distinct_terms;
    const std::size_t bytes_before = list.byte_size();
    list.append(Posting{doc, impact});
    stats_.compressed_bytes += list.byte_size() - bytes_before;
  }
  stats_.postings += terms.size();
  ++stats_.docs;
}

PostingIterator InvertedIndex::iterator(TermId term) const {
  return PostingIterator(term < lists_.size() ? &lists_[term] : nullptr);
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
  heap.reserve(std::min(k, index.stats().docs));

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
