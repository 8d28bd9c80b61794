#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "hpcgpt/nn/kv_cache.hpp"
#include "hpcgpt/nn/transformer.hpp"
#include "hpcgpt/text/tokenizer.hpp"

namespace hpcgpt::serve {

/// Radix-trie prompt/prefix cache over the paged KV pool (structural
/// cousin of the RediSearch trie: path-compressed nodes keyed by their
/// first token, here with fixed chunk granularity).
///
/// Keying: nodes live on page-slot boundaries — a node covers a token
/// span inside one KV page slot (`offset` .. `offset + tokens.size()`,
/// both ≤ kPageSize) plus one retained page id per layer whose rows are
/// valid through the span's end. A slot is usually one node, but inserts
/// that diverge mid-chunk *split* the node at the divergence point, so a
/// slot can hold a chain of nodes sharing the same page rows: prefix
/// node, then per-branch suffix nodes. Children are keyed by the first
/// token of the next span (the next slot when the node completes its
/// slot, the same slot otherwise), so lookup is O(prompt length) and
/// two prompts sharing only part of a chunk still both get prefix hits.
///
/// Sharing contract: lookup() returns page ids for the longest cached
/// prefix of a prompt; the caller adopts them into a fresh
/// nn::DecodeState (adopt_prefix retains them). A shared page is
/// immutable while shared — a stream appending into a partially-filled
/// adopted tail page forks it first (COW in DecodeState), so the cached
/// copy always keeps its prompt-only contents. insert() retains the
/// prompt pages of a freshly prefilled stream; the stream's own later
/// decode appends into its final partial page likewise fork.
///
/// Eviction: LRU over *leaf* nodes (interior nodes are reachable prefixes
/// of live leaves), under either the node budget or external pool
/// pressure (the scheduler calls evict_lru() until a reservation fits).
/// The leaves sit in an index ordered by recency, so finding the victim
/// costs O(log n) rather than a walk over the trie; a node whose last
/// child is evicted joins the index with its own recency. Releasing a
/// node's pages only frees them once no stream shares them.
///
/// Not thread-safe by design: owned and driven by the scheduler thread.
class PrefixCache {
 public:
  /// The longest cached prefix of a prompt: `tokens` matched positions
  /// and, per layer, the ceil(tokens / kPageSize) pages covering them
  /// (final page possibly partial). pages stay valid until the next
  /// insert/evict — adopt them immediately.
  struct Match {
    std::size_t tokens = 0;
    std::vector<std::vector<std::uint32_t>> pages;  // [layer][chunk]
  };

  PrefixCache(std::shared_ptr<nn::KvPagePool> pool, std::size_t n_layers,
              std::size_t max_nodes);
  ~PrefixCache();

  PrefixCache(const PrefixCache&) = delete;
  PrefixCache& operator=(const PrefixCache&) = delete;

  /// Longest cached prefix of `prompt`, capped at `max_tokens` (callers
  /// pass prompt.size() - 1 so a prefill always ingests at least one
  /// token and produces the first-token logits).
  Match lookup(std::span<const text::TokenId> prompt, std::size_t max_tokens);

  /// Publishes the prompt pages of a prefilled session (state.length() >=
  /// prompt.size()): descends existing spans, splits a node at a
  /// mid-chunk token mismatch (both the old and the new prompt keep their
  /// cached prefixes), and creates nodes (retaining the stream's pages)
  /// for the new tail. Stops quietly only when the node budget cannot be
  /// freed.
  void insert(std::span<const text::TokenId> prompt,
              const nn::DecodeState& state);

  /// Evicts the least-recently-used leaf, releasing its pages. False when
  /// the trie is empty.
  bool evict_lru() { return evict_lru_except(nullptr); }

  /// Drops every node (shutdown / tests).
  void clear();

  std::size_t node_count() const { return nodes_; }
  /// Page references currently held by the trie (n_layers per node).
  std::size_t pages_held() const { return pages_held_; }
  /// Leaves evicted so far, under the node budget and by evict_lru()
  /// alike (clear() is not counted).
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Node {
    std::vector<text::TokenId> tokens;   // this span's tokens
    /// Position of tokens[0] within the node's page slot; offset +
    /// tokens.size() <= kPageSize, with equality iff the node completes
    /// its slot (only then do children start a new slot).
    std::size_t offset = 0;
    std::vector<std::uint32_t> pages;    // one page per layer
    std::map<text::TokenId, std::unique_ptr<Node>> children;
    Node* parent = nullptr;
    std::uint64_t last_used = 0;
  };

  /// Eviction-index entry of a leaf: (last_used, node). No two leaves
  /// share a last_used (a split suffix copies its node's stamp, but that
  /// node has just become interior), so the order is total and its first
  /// entry is the least-recently-used leaf.
  using LeafKey = std::pair<std::uint64_t, Node*>;

  /// Stamps `node` as most recently used (a leaf moves to the back of
  /// the eviction index).
  void touch(Node& node);
  /// Splits `node` at token position `at` (0 < at < tokens.size()): the
  /// node keeps the prefix span, a new child takes the suffix span and the
  /// original children; both retain the same per-layer pages.
  void split_node(Node& node, std::size_t at);
  void release_pages(Node& node);
  void destroy_subtree(Node& node);
  bool evict_lru_except(const Node* keep);

  std::shared_ptr<nn::KvPagePool> pool_;
  const std::size_t n_layers_;
  const std::size_t max_nodes_;
  Node root_;  // sentinel: no tokens, no pages
  std::set<LeafKey> leaves_;  // every non-root node without children
  std::size_t nodes_ = 0;
  std::size_t pages_held_ = 0;
  std::uint64_t clock_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace hpcgpt::serve
