#include "hpcgpt/serve/prefix_cache.hpp"

#include <algorithm>

#include "hpcgpt/support/error.hpp"

namespace hpcgpt::serve {

namespace {
constexpr std::size_t kPage = nn::KvPagePool::kPageSize;
}

PrefixCache::PrefixCache(std::shared_ptr<nn::KvPagePool> pool,
                         std::size_t n_layers, std::size_t max_nodes)
    : pool_(std::move(pool)), n_layers_(n_layers), max_nodes_(max_nodes) {
  require(pool_ != nullptr, "PrefixCache: null page pool");
  require(n_layers_ > 0, "PrefixCache: zero layers");
}

PrefixCache::~PrefixCache() { clear(); }

void PrefixCache::release_pages(Node& node) {
  for (const std::uint32_t page : node.pages) pool_->release(page);
  pages_held_ -= node.pages.size();
  node.pages.clear();
}

void PrefixCache::destroy_subtree(Node& node) {
  for (auto& [key, child] : node.children) {
    destroy_subtree(*child);
    release_pages(*child);
    --nodes_;
  }
  node.children.clear();
}

void PrefixCache::clear() {
  destroy_subtree(root_);
  leaves_.clear();
}

void PrefixCache::touch(Node& node) {
  const std::uint64_t stamp = ++clock_;
  if (node.children.empty()) {
    // Re-keying reuses the index entry's node handle: no allocation.
    auto entry = leaves_.extract({node.last_used, &node});
    entry.value().first = stamp;
    leaves_.insert(leaves_.end(), std::move(entry));
  }
  node.last_used = stamp;
}

PrefixCache::Match PrefixCache::lookup(std::span<const text::TokenId> prompt,
                                       std::size_t max_tokens) {
  Match match;
  match.pages.resize(n_layers_);
  Node* cur = &root_;
  std::size_t consumed = 0;
  const std::size_t limit = std::min(prompt.size(), max_tokens);
  while (consumed < limit) {
    // Walk one page slot: descend the within-slot node chain as far as
    // tokens keep matching, then adopt the *deepest* matched node's page
    // (per layer) — its rows cover every shallower span of the slot, and
    // a partial match shares the page up to the match point (the adopting
    // stream copy-on-writes before appending past it).
    Node* deepest = nullptr;
    bool slot_complete = false;
    while (consumed < limit) {
      const auto it = cur->children.find(prompt[consumed]);
      if (it == cur->children.end()) break;
      Node* child = it->second.get();
      const std::size_t n = std::min(child->tokens.size(), limit - consumed);
      std::size_t matched = 0;
      while (matched < n &&
             child->tokens[matched] == prompt[consumed + matched]) {
        ++matched;
      }
      if (matched == 0) break;
      touch(*child);
      consumed += matched;
      deepest = child;
      if (matched < child->tokens.size()) break;  // diverged or hit limit
      cur = child;
      if (child->offset + child->tokens.size() == kPage) {
        slot_complete = true;
        break;
      }
      // Slot-incomplete node fully matched: continue the chain in-slot.
    }
    if (deepest == nullptr) break;
    for (std::size_t l = 0; l < n_layers_; ++l) {
      match.pages[l].push_back(deepest->pages[l]);
    }
    // A mid-slot stop means deeper slots don't apply.
    if (!slot_complete) break;
  }
  match.tokens = consumed;
  return match;
}

void PrefixCache::insert(std::span<const text::TokenId> prompt,
                         const nn::DecodeState& state) {
  require(state.length() >= prompt.size(),
          "PrefixCache::insert: session shorter than prompt");
  Node* cur = &root_;
  std::size_t consumed = 0;
  while (consumed < prompt.size()) {
    const std::size_t offset = consumed % kPage;
    const std::size_t slot = consumed / kPage;
    const std::size_t span_len = std::min(kPage - offset, prompt.size() - consumed);
    const text::TokenId* span = prompt.data() + consumed;
    const auto it = cur->children.find(span[0]);
    if (it != cur->children.end()) {
      Node* child = it->second.get();
      const std::size_t n = std::min(child->tokens.size(), span_len);
      std::size_t matched = 0;
      while (matched < n && child->tokens[matched] == span[matched]) {
        ++matched;
      }
      touch(*child);
      if (matched == child->tokens.size()) {
        // Node fully matched: keep descending — within the same slot when
        // the node is slot-incomplete, into the next slot otherwise.
        consumed += matched;
        cur = child;
        continue;
      }
      if (matched == span_len) {
        // Our prompt ends inside this node's span — already covered.
        return;
      }
      // Mid-span divergence (matched >= 1: children are keyed by their
      // first token). Split the node at the match point so both the old
      // and the new prompt keep a cached prefix; the next iteration hangs
      // the diverging branch off the shared prefix node.
      if (max_nodes_ > 0 && nodes_ >= max_nodes_) {
        if (!evict_lru_except(child)) return;
      }
      split_node(*child, matched);
      consumed += matched;
      cur = child;
      continue;
    }
    // New tail: create a node for this span, evicting an old leaf when
    // the budget is full (never the node we are extending from).
    if (max_nodes_ > 0 && nodes_ >= max_nodes_) {
      if (!evict_lru_except(cur)) return;
    }
    auto node = std::make_unique<Node>();
    node->tokens.assign(span, span + span_len);
    node->offset = offset;
    node->parent = cur;
    node->pages.reserve(n_layers_);
    for (std::size_t l = 0; l < n_layers_; ++l) {
      const std::uint32_t page = state.layer_pages(l)[slot];
      pool_->retain(page);
      node->pages.push_back(page);
    }
    pages_held_ += n_layers_;
    node->last_used = ++clock_;
    Node* created = node.get();
    // `cur` stops being a leaf; the new node is the most recent one.
    if (cur != &root_ && cur->children.empty()) {
      leaves_.erase({cur->last_used, cur});
    }
    cur->children.emplace(span[0], std::move(node));
    leaves_.emplace_hint(leaves_.end(), created->last_used, created);
    ++nodes_;
    cur = created;
    consumed += span_len;
  }
}

void PrefixCache::split_node(Node& node, std::size_t at) {
  auto suffix = std::make_unique<Node>();
  suffix->tokens.assign(node.tokens.begin() + static_cast<std::ptrdiff_t>(at),
                        node.tokens.end());
  suffix->offset = node.offset + at;
  // Both halves reference the same per-layer pages: the page rows up to
  // the split point are the shared prefix's K/V (causal attention), and
  // each node holds its own reference so eviction stays per-node.
  suffix->pages = node.pages;
  for (const std::uint32_t page : suffix->pages) pool_->retain(page);
  pages_held_ += n_layers_;
  suffix->last_used = node.last_used;
  if (node.children.empty()) {
    // The suffix inherits the node's leaf entry along with its recency.
    auto entry = leaves_.extract({node.last_used, &node});
    entry.value().second = suffix.get();
    leaves_.insert(std::move(entry));
  }
  suffix->children = std::move(node.children);
  for (auto& [key, grandchild] : suffix->children) {
    grandchild->parent = suffix.get();
  }
  suffix->parent = &node;
  node.tokens.resize(at);
  node.children.clear();
  const text::TokenId key = suffix->tokens.front();
  node.children.emplace(key, std::move(suffix));
  ++nodes_;
}

bool PrefixCache::evict_lru_except(const Node* keep) {
  auto victim = leaves_.begin();
  if (victim != leaves_.end() && victim->second == keep) ++victim;
  if (victim == leaves_.end()) return false;
  Node& node = *victim->second;
  leaves_.erase(victim);
  release_pages(node);
  Node* parent = node.parent;
  parent->children.erase(node.tokens.front());
  --nodes_;
  ++evictions_;
  if (parent != &root_ && parent->children.empty()) {
    // The parent becomes a leaf, ranked by its own recency.
    leaves_.emplace(parent->last_used, parent);
  }
  return true;
}

}  // namespace hpcgpt::serve
