// Paged KV-cache subsystem tests: pool budget behaviour (typed errors,
// never aborts), copy-on-write prefix sharing, radix-trie LRU eviction,
// and page-budget admission control (shed vs queue-wait, with pages and
// reservations back at zero after the drain). Labeled "paged" so the
// sanitize preset exercises the refcount and COW paths under ASan/UBSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <span>
#include <string>
#include <vector>

#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/json/json.hpp"
#include "hpcgpt/nn/kv_cache.hpp"
#include "hpcgpt/nn/transformer.hpp"
#include "hpcgpt/serve/prefix_cache.hpp"
#include "hpcgpt/serve/server.hpp"
#include "hpcgpt/support/error.hpp"

namespace {

using namespace hpcgpt;

core::HpcGpt make_model() {
  core::ModelOptions spec = core::spec_for(core::BaseModel::Llama);
  spec.pretrain_steps = 0;
  return core::HpcGpt(spec, core::build_shared_tokenizer());
}

text::TokenId argmax_token(std::span<const float> logits) {
  return static_cast<text::TokenId>(
      std::max_element(logits.begin(), logits.end()) - logits.begin());
}

/// Greedy continuation: prefill `prompt`, then decode `steps` tokens,
/// returning the emitted ids.
std::vector<text::TokenId> greedy_continue(nn::Transformer& net,
                                           nn::DecodeState& session,
                                           std::span<const text::TokenId> prompt,
                                           std::size_t steps) {
  std::vector<text::TokenId> out;
  text::TokenId next = argmax_token(net.prefill(session, prompt));
  out.push_back(next);
  for (std::size_t s = 1; s < steps; ++s) {
    next = argmax_token(net.decode_step(session, next));
    out.push_back(next);
  }
  return out;
}

const char* const kQuestion =
    "Given the code snippet: \"for (i = 0; i < n; i++) a[i] = b[i] + "
    "c[i];\", help me detect if adding pragma will cause a data race "
    "problem?";

// ---- pool budget -----------------------------------------------------

TEST(PagedPool, FixedBudgetExhaustionIsTypedErrorNotAbort) {
  nn::KvPagePool pool(48, /*max_pages=*/4);
  std::vector<std::uint32_t> pages;
  for (int i = 0; i < 4; ++i) pages.push_back(pool.allocate());
  EXPECT_EQ(pool.pages_in_use(), 4u);
  EXPECT_THROW((void)pool.allocate(), Error);
  EXPECT_EQ(pool.try_allocate(), nn::KvPagePool::kNoPage);
  EXPECT_FALSE(pool.try_reserve(1));
  // Releasing makes the slot allocatable again — the budget is a cap,
  // not a one-way fuse.
  pool.release(pages.back());
  EXPECT_EQ(pool.allocate(), pages.back());
}

TEST(PagedPool, ReservationHoldsCapacityAgainstPlainAllocation) {
  nn::KvPagePool pool(48, /*max_pages=*/2);
  ASSERT_TRUE(pool.try_reserve(2));
  // Reserved capacity is invisible to unreserved allocation...
  EXPECT_THROW((void)pool.allocate(), Error);
  // ...but honored by the reservation holder.
  (void)pool.allocate_reserved();
  (void)pool.allocate_reserved();
  EXPECT_EQ(pool.pages_in_use(), 2u);
}

// ---- copy-on-write prefix sharing ------------------------------------

TEST(PagedCow, AdoptedPrefixForksOnAppendAndMatchesColdDecode) {
  core::HpcGpt model = make_model();
  nn::Transformer& net = model.model();
  // 20 tokens: one full page plus a partial tail page per layer, so the
  // adopting stream must COW-fork the shared tail before appending.
  std::vector<text::TokenId> prompt;
  for (int i = 0; i < 20; ++i) prompt.push_back(100 + i);

  nn::DecodeState cold = net.new_decode_state();
  const std::vector<text::TokenId> want =
      greedy_continue(net, cold, prompt, 8);

  serve::PrefixCache cache(net.page_pool(), net.config().n_layers,
                           /*max_nodes=*/64);
  cache.insert(prompt, cold);
  ASSERT_GT(cache.node_count(), 0u);

  // Two successive adopters: the first one's appends must not corrupt the
  // cached pages the second adopts.
  for (int round = 0; round < 2; ++round) {
    const serve::PrefixCache::Match m =
        cache.lookup(prompt, prompt.size() - 1);
    ASSERT_GT(m.tokens, 0u);
    ASSERT_LT(m.tokens, prompt.size());
    nn::DecodeState warm = net.new_decode_state();
    warm.adopt_prefix(m.pages, m.tokens);
    const std::vector<text::TokenId> suffix(prompt.begin() + m.tokens,
                                            prompt.end());
    const std::vector<text::TokenId> got =
        greedy_continue(net, warm, suffix, 8);
    EXPECT_EQ(got, want) << "round " << round;
  }
}

// ---- trie LRU eviction -----------------------------------------------

TEST(PagedTrie, LruEvictionReleasesPagesAndBoundsNodes) {
  core::HpcGpt model = make_model();
  nn::Transformer& net = model.model();
  const std::size_t layers = net.config().n_layers;
  nn::KvPagePool& pool = *net.page_pool();
  const std::size_t base_pages = pool.pages_in_use();

  serve::PrefixCache cache(net.page_pool(), layers, /*max_nodes=*/2);
  auto publish = [&](text::TokenId first) {
    std::vector<text::TokenId> prompt;
    for (int i = 0; i < 8; ++i) prompt.push_back(first + i);
    nn::DecodeState session = net.new_decode_state();
    (void)net.prefill(session, prompt);
    cache.insert(prompt, session);
    return prompt;  // session dies; the trie's retains keep pages alive
  };

  const std::vector<text::TokenId> oldest = publish(10);
  const std::vector<text::TokenId> newer = publish(40);
  EXPECT_EQ(cache.node_count(), 2u);
  EXPECT_EQ(cache.pages_held(), 2 * layers);
  EXPECT_EQ(pool.pages_in_use(), base_pages + 2 * layers);

  // A third distinct prompt exceeds the node budget: the LRU leaf (the
  // oldest prompt) is evicted to make room.
  (void)publish(70);
  EXPECT_EQ(cache.node_count(), 2u);
  EXPECT_EQ(cache.pages_held(), 2 * layers);
  EXPECT_EQ(cache.lookup(oldest, oldest.size() - 1).tokens, 0u);
  EXPECT_GT(cache.lookup(newer, newer.size() - 1).tokens, 0u);

  // External pressure: evict down to empty, pages return to the pool.
  EXPECT_TRUE(cache.evict_lru());
  EXPECT_TRUE(cache.evict_lru());
  EXPECT_FALSE(cache.evict_lru());
  EXPECT_EQ(cache.node_count(), 0u);
  EXPECT_EQ(cache.pages_held(), 0u);
  EXPECT_EQ(pool.pages_in_use(), base_pages);
}

TEST(PagedTrie, MidChunkDivergenceSplitsNodeAndBothPromptsHit) {
  core::HpcGpt model = make_model();
  nn::Transformer& net = model.model();
  const std::size_t layers = net.config().n_layers;

  // Two prompts sharing the first 7 tokens of a chunk, diverging well
  // before the page boundary (kPageSize = 16).
  std::vector<text::TokenId> a;
  for (int i = 0; i < 12; ++i) a.push_back(100 + i);
  std::vector<text::TokenId> b(a.begin(), a.begin() + 7);
  for (int i = 0; i < 5; ++i) b.push_back(60 + i);

  nn::DecodeState cold_a = net.new_decode_state();
  const std::vector<text::TokenId> want_a =
      greedy_continue(net, cold_a, a, 8);
  nn::DecodeState cold_b = net.new_decode_state();
  const std::vector<text::TokenId> want_b =
      greedy_continue(net, cold_b, b, 8);

  serve::PrefixCache cache(net.page_pool(), layers, /*max_nodes=*/64);
  cache.insert(a, cold_a);
  EXPECT_EQ(cache.node_count(), 1u);
  // Inserting b splits a's node at the divergence point: shared 7-token
  // prefix node (page shared with a's suffix node) plus one branch each.
  cache.insert(b, cold_b);
  EXPECT_EQ(cache.node_count(), 3u);
  EXPECT_EQ(cache.pages_held(), 3 * layers);

  // Both prompts get full-length prefix hits, and adopting the pages
  // reproduces the cold decode exactly.
  for (const auto* p : {&a, &b}) {
    const std::vector<text::TokenId>& prompt = *p;
    const serve::PrefixCache::Match m =
        cache.lookup(prompt, prompt.size() - 1);
    ASSERT_EQ(m.tokens, prompt.size() - 1);
    nn::DecodeState warm = net.new_decode_state();
    warm.adopt_prefix(m.pages, m.tokens);
    const std::vector<text::TokenId> suffix(prompt.begin() + m.tokens,
                                            prompt.end());
    const std::vector<text::TokenId> got =
        greedy_continue(net, warm, suffix, 8);
    EXPECT_EQ(got, prompt == a ? want_a : want_b);
  }

  // A third prompt sharing only the common 7 tokens hits the shared
  // prefix node without any insert of its own.
  std::vector<text::TokenId> c(a.begin(), a.begin() + 7);
  for (int i = 0; i < 4; ++i) c.push_back(80 + i);
  EXPECT_EQ(cache.lookup(c, c.size() - 1).tokens, 7u);
}

// ---- admission control ------------------------------------------------

/// One counter of the server's registry, read from a snapshot.
std::size_t counter(const serve::InferenceServer& server, const char* name) {
  const json::Value snapshot(server.metrics().snapshot());
  return static_cast<std::size_t>(snapshot.at("counters").at(name).as_int());
}

TEST(PagedServe, NeverFittingRequestIsShedAsTypedRejected) {
  core::HpcGpt model = make_model();
  serve::ServeConfig config;
  config.max_batch = 1;
  config.max_new_tokens = 4;
  // Smallest budget the server accepts: room for ~one page of context —
  // the templated question prompt can never fit.
  config.kv.page_budget = model.model().config().n_layers * 2;
  config.kv.prefix_cache = false;
  serve::InferenceServer server(model, config);

  core::GenerationRequest request;
  request.prompt = kQuestion;
  const core::GenerationResult result = server.submit(std::move(request)).get();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.finish, core::FinishReason::Rejected);
  server.shutdown();
  EXPECT_EQ(counter(server, "serve.requests.shed"), 1u);
  EXPECT_EQ(counter(server, "serve.requests.completed"), 0u);
  EXPECT_EQ(server.page_pool().pages_in_use(), 0u);
  EXPECT_EQ(server.page_pool().pages_reserved(), 0u);
}

TEST(PagedServe, QueueWaitsForPagesInsteadOfShedding) {
  core::HpcGpt model = make_model();
  serve::ServeConfig config;
  config.max_batch = 2;
  config.max_new_tokens = 8;
  config.kv.prefix_cache = false;
  // Budget for exactly one stream: the worst-case page need of this
  // question at this generation budget (mirrors the server's admission
  // formula). The second and third requests must wait, not shed.
  {
    const nn::TransformerConfig& arch = model.model().config();
    const std::size_t prompt_tokens =
        model.prompt_ids(kQuestion, config.max_new_tokens).size();
    const std::size_t worst = std::min(
        prompt_tokens + config.max_new_tokens, arch.max_seq);
    const std::size_t per_layer =
        (worst + nn::KvPagePool::kPageSize - 1) / nn::KvPagePool::kPageSize +
        1;
    config.kv.page_budget = arch.n_layers * per_layer;
  }
  serve::InferenceServer server(model, config);

  std::vector<std::future<core::GenerationResult>> futures;
  for (int i = 0; i < 3; ++i) {
    core::GenerationRequest request;
    request.prompt = kQuestion;
    futures.push_back(server.submit(std::move(request)));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  server.shutdown();
  EXPECT_EQ(counter(server, "serve.requests.completed"), 3u);
  EXPECT_EQ(counter(server, "serve.requests.shed"), 0u);
  EXPECT_EQ(server.page_pool().pages_in_use(), 0u);
  EXPECT_EQ(server.page_pool().pages_reserved(), 0u);
}

}  // namespace
