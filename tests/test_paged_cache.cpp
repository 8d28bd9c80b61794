// Paged KV-cache subsystem tests: pool budget behaviour (typed errors,
// never aborts), pool growth under concurrent allocation, copy-on-write
// prefix sharing, radix-trie LRU eviction and its victim order, and
// page-budget admission control (shed vs queue-wait, with pages and
// reservations back at zero after the drain). Labeled "paged" so the
// sanitize preset exercises the refcount and COW paths under ASan/UBSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/json/json.hpp"
#include "hpcgpt/nn/kv_cache.hpp"
#include "hpcgpt/nn/transformer.hpp"
#include "hpcgpt/serve/prefix_cache.hpp"
#include "hpcgpt/serve/server.hpp"
#include "hpcgpt/support/error.hpp"
#include "hpcgpt/support/hash.hpp"
#include "hpcgpt/support/rng.hpp"

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

TEST(PagedPool, ConcurrentGrowthKeepsPageDataReachable) {
  // Concurrent prefills acquire pages from one growable pool and write
  // through data() while other threads' allocations append slabs; data()
  // must not read the slab table while an allocation moves it (the TSan
  // lane checks that).
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPages = 300;
  nn::KvPagePool pool(8);
  std::vector<std::vector<std::uint32_t>> held(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &held, t] {
      for (std::size_t i = 0; i < kPages; ++i) {
        const std::uint32_t page = pool.allocate();
        float* data = pool.data(page);
        data[0] = static_cast<float>(t);
        data[pool.page_floats() - 1] = static_cast<float>(i);
        held[t].push_back(page);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(pool.pages_in_use(), kThreads * kPages);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPages; ++i) {
      const float* data = pool.data(held[t][i]);
      ASSERT_EQ(data[0], static_cast<float>(t)) << "thread " << t;
      ASSERT_EQ(data[pool.page_floats() - 1], static_cast<float>(i))
          << "thread " << t << " page " << i;
      pool.release(held[t][i]);
    }
  }
  EXPECT_EQ(pool.pages_in_use(), 0u);
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

// ---- eviction order ---------------------------------------------------

/// A prefix trie over a small standalone page pool, without a model:
/// sessions take fresh pages for their positions instead of running a
/// prefill, so thousands of inserts cost next to nothing.
struct TrieHarness {
  static constexpr std::size_t kLayers = 2;
  nn::TransformerConfig config;
  std::shared_ptr<nn::KvPagePool> pool;

  TrieHarness() {
    config.d_model = 8;
    config.n_heads = 1;
    config.n_layers = kLayers;
    config.max_seq = 64;
    pool = std::make_shared<nn::KvPagePool>(config.d_model);
  }

  /// Inserts `prompt` from a session that holds exactly its positions;
  /// the session's own page references die with it.
  void publish(serve::PrefixCache& cache,
               const std::vector<text::TokenId>& prompt) {
    constexpr std::size_t kPage = nn::KvPagePool::kPageSize;
    std::vector<std::vector<std::uint32_t>> pages(kLayers);
    for (auto& layer : pages) {
      for (std::size_t c = 0; c < (prompt.size() + kPage - 1) / kPage; ++c) {
        layer.push_back(pool->allocate());
      }
    }
    nn::DecodeState session(config, pool);
    session.adopt_prefix(pages, prompt.size());
    for (const auto& layer : pages) {
      for (const std::uint32_t page : layer) pool->release(page);
    }
    cache.insert(prompt, session);
  }
};

std::vector<text::TokenId> tokens(std::initializer_list<int> ids) {
  return std::vector<text::TokenId>(ids.begin(), ids.end());
}

std::vector<text::TokenId> run_of(int first, std::size_t n) {
  std::vector<text::TokenId> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<text::TokenId>(first + static_cast<int>(i)));
  }
  return out;
}

std::vector<text::TokenId> concat(std::vector<text::TokenId> head,
                                  const std::vector<text::TokenId>& tail) {
  head.insert(head.end(), tail.begin(), tail.end());
  return head;
}

/// Seeded churn over a trie of at most `max_nodes` nodes: lookups, inserts
/// and evict_lru() calls (the scheduler's pool-pressure path). Prompts
/// copy a prefix of random length from one of a few stems and continue
/// with tokens from a small alphabet, so inserts share prefixes, diverge
/// mid-chunk (splitting nodes) and overflow the node budget. Returns an
/// FNV-1a digest of every operation's outcome: matched tokens or eviction
/// result, node count, pages held by the trie and pages in use in the
/// pool. A different eviction victim changes a later value.
std::uint64_t churn_digest(std::size_t max_nodes, std::size_t ops,
                           std::uint64_t seed) {
  TrieHarness harness;
  serve::PrefixCache cache(harness.pool, TrieHarness::kLayers, max_nodes);
  Rng rng(seed);
  std::vector<std::vector<text::TokenId>> stems(6);
  for (auto& stem : stems) {
    for (int i = 0; i < 48; ++i) {
      stem.push_back(static_cast<text::TokenId>(rng.next_int(1, 40)));
    }
  }
  Fnv1aHasher digest;
  for (std::size_t op = 0; op < ops; ++op) {
    const std::vector<text::TokenId>& stem = stems[rng.next_below(stems.size())];
    const std::size_t length = 2 + rng.next_below(47);  // 2..48 tokens
    const std::size_t shared = rng.next_below(length + 1);
    std::vector<text::TokenId> prompt(stem.begin(), stem.begin() + shared);
    while (prompt.size() < length) {
      prompt.push_back(static_cast<text::TokenId>(rng.next_int(1, 4)));
    }
    const std::uint64_t kind = rng.next_below(10);
    if (kind < 4) {
      digest.u64(cache.lookup(prompt, prompt.size() - 1).tokens);
    } else if (kind < 9) {
      harness.publish(cache, prompt);
    } else {
      digest.u8(cache.evict_lru() ? 1 : 0);
    }
    digest.u64(cache.node_count());
    digest.u64(cache.pages_held());
    digest.u64(harness.pool->pages_in_use());
  }
  return digest.value();
}

TEST(PagedTrieOrder, ChurnEvictsTheVictimsOfTheTrieWalk) {
  // Pinned to the digests of the depth-first LRU walk that the eviction
  // index replaced, computed once with that walk (commit e93abb0): the
  // index must pick the same victim at every eviction, under the node
  // budget and under pressure alike.
  EXPECT_EQ(churn_digest(/*max_nodes=*/6, 20000, /*seed=*/71),
            0x890f50c5ed49c8abull);
  EXPECT_EQ(churn_digest(/*max_nodes=*/24, 20000, /*seed=*/72),
            0x8e215b0eda01e8ddull);
}

TEST(PagedTrieOrder, NodeBeingExtendedIsNeverEvicted) {
  TrieHarness harness;
  serve::PrefixCache cache(harness.pool, TrieHarness::kLayers,
                           /*max_nodes=*/1);
  const std::vector<text::TokenId> a = run_of(1, 16);  // one full slot
  harness.publish(cache, a);
  ASSERT_EQ(cache.node_count(), 1u);

  // Extending `a` into a second slot needs a node, but the only leaf is
  // the node being extended: the insert stops and keeps it.
  const std::vector<text::TokenId> longer = concat(a, run_of(50, 4));
  harness.publish(cache, longer);
  EXPECT_EQ(cache.node_count(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.lookup(longer, longer.size() - 1).tokens, 16u);

  // Likewise a prompt that diverges inside that node cannot split it.
  const std::vector<text::TokenId> b =
      concat(run_of(1, 7), tokens({90, 91, 92}));
  harness.publish(cache, b);
  EXPECT_EQ(cache.node_count(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.lookup(a, a.size() - 1).tokens, 15u);
}

TEST(PagedTrieOrder, SplitPrefixBecomesLeafWithItsOwnRecency) {
  // a and b share 7 tokens of one chunk: inserting b splits a's node
  // into a prefix node P and two branches. c is unrelated and newer than
  // both branches; `probe` shares only P's tokens.
  const std::vector<text::TokenId> a = run_of(100, 12);
  const std::vector<text::TokenId> b =
      concat(run_of(100, 7), tokens({60, 61, 62, 63, 64}));
  const std::vector<text::TokenId> c = run_of(200, 5);
  const std::vector<text::TokenId> probe =
      concat(run_of(100, 7), tokens({80, 81, 82, 83}));
  for (const bool touch_prefix : {false, true}) {
    SCOPED_TRACE(touch_prefix ? "P used after c" : "P last used with b");
    TrieHarness harness;
    serve::PrefixCache cache(harness.pool, TrieHarness::kLayers,
                             /*max_nodes=*/64);
    harness.publish(cache, a);
    harness.publish(cache, b);
    harness.publish(cache, c);
    ASSERT_EQ(cache.node_count(), 4u);
    if (touch_prefix) {
      ASSERT_EQ(cache.lookup(probe, probe.size() - 1).tokens, 7u);
    }

    // Both branches are older than c, so they go first; P is then a leaf.
    ASSERT_TRUE(cache.evict_lru());
    ASSERT_TRUE(cache.evict_lru());
    ASSERT_EQ(cache.node_count(), 2u);
    // The next victim is whichever of P and c was used least recently.
    ASSERT_TRUE(cache.evict_lru());
    ASSERT_EQ(cache.node_count(), 1u);
    if (touch_prefix) {
      EXPECT_EQ(cache.lookup(c, c.size() - 1).tokens, 0u);
      EXPECT_EQ(cache.lookup(a, a.size() - 1).tokens, 7u);
      EXPECT_EQ(cache.lookup(b, b.size() - 1).tokens, 7u);
    } else {
      EXPECT_EQ(cache.lookup(a, a.size() - 1).tokens, 0u);
      EXPECT_EQ(cache.lookup(c, c.size() - 1).tokens, c.size() - 1);
    }
    EXPECT_EQ(cache.evictions(), 3u);
  }
}

TEST(PagedTrieOrder, ClearReturnsEveryPageToThePool) {
  TrieHarness harness;
  serve::PrefixCache cache(harness.pool, TrieHarness::kLayers,
                           /*max_nodes=*/64);
  const std::vector<text::TokenId> a = run_of(100, 12);
  harness.publish(cache, a);
  harness.publish(cache, concat(run_of(100, 7), tokens({60, 61, 62})));
  harness.publish(cache, run_of(300, 40));  // three slots
  ASSERT_EQ(cache.node_count(), 6u);
  ASSERT_GT(harness.pool->pages_in_use(), 0u);

  cache.clear();
  EXPECT_EQ(cache.node_count(), 0u);
  EXPECT_EQ(cache.pages_held(), 0u);
  EXPECT_EQ(harness.pool->pages_in_use(), 0u);
  EXPECT_FALSE(cache.evict_lru());
  EXPECT_EQ(cache.evictions(), 0u);  // a clear is not an eviction

  // The emptied trie takes inserts again.
  harness.publish(cache, a);
  EXPECT_EQ(cache.node_count(), 1u);
  EXPECT_EQ(cache.lookup(a, a.size() - 1).tokens, 11u);
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

TEST(PagedServe, PrefixEvictionsCountedOnceThePromptsOutgrowTheNodeBudget) {
  core::HpcGpt model = make_model();
  const std::vector<std::string> questions = {
      kQuestion, "What does the omp critical directive do?",
      "Explain false sharing between threads of a parallel loop."};
  const auto evictions_at = [&](std::size_t max_nodes) {
    serve::ServeConfig config;
    config.max_batch = 1;
    config.max_new_tokens = 2;
    config.kv.prefix_cache_max_nodes = max_nodes;
    serve::InferenceServer server(model, config);
    for (const std::string& question : questions) {
      core::GenerationRequest request;
      request.prompt = question;
      EXPECT_TRUE(server.submit(std::move(request)).get().ok());
    }
    server.shutdown();
    return counter(server, "serve.prefix.evictions");
  };
  EXPECT_EQ(evictions_at(1024), 0u);
  EXPECT_GT(evictions_at(2), 0u);
}

}  // namespace
