#include "hpcgpt/text/tokenizer.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>

#include "hpcgpt/support/error.hpp"

namespace hpcgpt::text {

BpeTokenizer::BpeTokenizer() = default;

void BpeTokenizer::train(const std::vector<std::string>& corpus,
                         std::size_t vocab_size,
                         std::size_t min_pair_count) {
  require(vocab_size >= static_cast<std::size_t>(kFirstMerge),
          "BpeTokenizer::train: vocab_size below base alphabet");
  merges_.clear();
  merge_index_.clear();

  // Working token sequences, one per corpus document.
  std::vector<std::vector<TokenId>> docs;
  docs.reserve(corpus.size());
  for (const std::string& doc : corpus) {
    std::vector<TokenId> ids;
    ids.reserve(doc.size());
    for (const char c : doc) {
      ids.push_back(static_cast<TokenId>(static_cast<unsigned char>(c)));
    }
    docs.push_back(std::move(ids));
  }

  while (this->vocab_size() < vocab_size) {
    // Count adjacent pairs across all documents.
    std::unordered_map<std::pair<TokenId, TokenId>, std::size_t, PairHash>
        counts;
    for (const auto& ids : docs) {
      for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
        ++counts[{ids[i], ids[i + 1]}];
      }
    }
    if (counts.empty()) break;

    // Deterministic argmax: highest count, ties broken by smallest pair.
    std::pair<TokenId, TokenId> best{0, 0};
    std::size_t best_count = 0;
    for (const auto& [pair, count] : counts) {
      if (count > best_count ||
          (count == best_count && pair < best)) {
        best = pair;
        best_count = count;
      }
    }
    if (best_count < min_pair_count) break;

    const TokenId new_id =
        static_cast<TokenId>(kFirstMerge + merges_.size());
    merges_.push_back({best.first, best.second});
    merge_index_[best] = new_id;

    // Apply the merge in place in every document.
    for (auto& ids : docs) {
      std::size_t write = 0;
      for (std::size_t read = 0; read < ids.size(); ++read) {
        if (read + 1 < ids.size() && ids[read] == best.first &&
            ids[read + 1] == best.second) {
          ids[write++] = new_id;
          ++read;
        } else {
          ids[write++] = ids[read];
        }
      }
      ids.resize(write);
    }
  }
}

std::vector<TokenId> BpeTokenizer::encode(std::string_view text) const {
  const std::size_t n = text.size();
  std::vector<TokenId> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids[i] = static_cast<TokenId>(static_cast<unsigned char>(text[i]));
  }
  if (merge_index_.empty() || n < 2) return ids;
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw InvalidArgument("BpeTokenizer::encode: input exceeds 4 GiB");
  }

  // Symbols form a linked list over byte positions: the symbol starting at
  // byte i holds ids[i] and is followed by the one starting at next[i]
  // (n past the end). Merging folds the right symbol into the left one, so
  // byte 0 always starts the first symbol and merged-away bytes read -1.
  std::vector<std::uint32_t> prev(n);
  std::vector<std::uint32_t> next(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    prev[i] = i - 1;  // unused for i == 0
    next[i] = i + 1;
  }

  // Candidate merges keyed (merge id << 32 | left byte position), so the
  // smallest key is the earliest-learned merge, leftmost among equals —
  // the pair the canonical rescan would pick.
  std::vector<std::uint64_t> heap;
  heap.reserve(n);
  const auto push_candidate = [&](std::uint32_t left) {
    const std::uint32_t right = next[left];
    if (right == n) return;
    const auto it = merge_index_.find({ids[left], ids[right]});
    if (it == merge_index_.end()) return;
    heap.push_back(static_cast<std::uint64_t>(it->second) << 32 | left);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  };
  for (std::uint32_t i = 0; i + 1 < n; ++i) push_candidate(i);

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const std::uint64_t key = heap.back();
    heap.pop_back();
    const auto rank = static_cast<TokenId>(key >> 32);
    const auto left = static_cast<std::uint32_t>(key);
    // A candidate goes stale when either symbol has merged since it was
    // pushed; a merge id is larger than both its parts, so the ids no
    // longer match the merge.
    const Merge& merge = merges_[static_cast<std::size_t>(rank - kFirstMerge)];
    const std::uint32_t right = next[left];
    if (ids[left] != merge.left || right == n || ids[right] != merge.right) {
      continue;
    }
    ids[left] = rank;
    ids[right] = -1;
    next[left] = next[right];
    if (next[left] != n) prev[next[left]] = left;
    // Only the pairs on either side of the new symbol changed.
    if (left != 0) push_candidate(prev[left]);
    push_candidate(left);
  }

  std::size_t count = 0;
  for (std::uint32_t i = 0; i != n; i = next[i]) ids[count++] = ids[i];
  ids.resize(count);
  return ids;
}

std::string BpeTokenizer::decode(const std::vector<TokenId>& ids) const {
  // Expands merges with an explicit stack (right part pushed first, so the
  // left part pops first): a loaded table's merge chain can be as deep as
  // the table is long, too deep to recurse on.
  std::string out;
  std::vector<TokenId> pending(ids.rbegin(), ids.rend());
  while (!pending.empty()) {
    const TokenId id = pending.back();
    pending.pop_back();
    if (id >= 0 && id < 256) {
      out += static_cast<char>(static_cast<unsigned char>(id));
    } else if (id >= kFirstMerge &&
               static_cast<std::size_t>(id - kFirstMerge) < merges_.size()) {
      const Merge& merge = merges_[static_cast<std::size_t>(id - kFirstMerge)];
      pending.push_back(merge.right);
      pending.push_back(merge.left);
    } else if (id < kPad || id >= kFirstMerge) {
      throw InvalidArgument("BpeTokenizer::decode: id out of range");
    }
  }
  return out;
}

std::string BpeTokenizer::piece(TokenId id) const { return decode({id}); }

std::string BpeTokenizer::save() const {
  std::ostringstream out;
  out << "bpe-v1 " << merges_.size() << "\n";
  for (const Merge& m : merges_) out << m.left << " " << m.right << "\n";
  return out.str();
}

BpeTokenizer BpeTokenizer::load(std::string_view serialized) {
  std::istringstream in{std::string(serialized)};
  std::string magic;
  std::size_t count = 0;
  in >> magic >> count;
  if (magic != "bpe-v1") throw ParseError("BpeTokenizer::load: bad magic");
  // Every merge id must fit a TokenId. The count is not trusted further:
  // merges are appended as they parse, so a short list fails as truncated.
  if (count > static_cast<std::size_t>(std::numeric_limits<TokenId>::max() -
                                       kFirstMerge) + 1) {
    throw ParseError("BpeTokenizer::load: merge count out of range");
  }
  BpeTokenizer tok;
  for (std::size_t i = 0; i < count; ++i) {
    Merge m{};
    in >> m.left >> m.right;
    if (!in) throw ParseError("BpeTokenizer::load: truncated merge list");
    // train() only merges bytes and earlier merges. Anything else (a
    // special token, the merge itself or a later one) would make decode
    // expand forever.
    const TokenId id = static_cast<TokenId>(kFirstMerge + i);
    const auto defined = [id](TokenId part) {
      return (part >= 0 && part < kPad) || (part >= kFirstMerge && part < id);
    };
    if (!defined(m.left) || !defined(m.right)) {
      throw ParseError("BpeTokenizer::load: merge " + std::to_string(i) +
                       " uses an undefined token");
    }
    tok.merges_.push_back(m);
  }
  tok.rebuild_merge_index();
  return tok;
}

void BpeTokenizer::rebuild_merge_index() {
  merge_index_.clear();
  for (std::size_t i = 0; i < merges_.size(); ++i) {
    merge_index_[{merges_[i].left, merges_[i].right}] =
        static_cast<TokenId>(kFirstMerge + i);
  }
}

}  // namespace hpcgpt::text
