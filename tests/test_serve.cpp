// Serving-layer tests: the continuous-batching scheduler, the ServerStats
// accessor under concurrency (regression for the unsynchronized-snapshot
// race), the admission-window batching knob, and the typed
// GenerationRequest/GenerationResult surface (per-request budgets, finish
// reasons, rejection after shutdown, metrics_json). These run under
// -DHPCGPT_SANITIZE=thread in the perf-smoke lane, where the stats hammer
// is an actual race detector workload.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/json/json.hpp"
#include "hpcgpt/retrieval/engine.hpp"
#include "hpcgpt/serve/server.hpp"
#include "hpcgpt/support/error.hpp"

namespace {

using namespace hpcgpt;

core::HpcGpt& shared_model() {
  static core::HpcGpt model = [] {
    core::ModelOptions spec = core::spec_for(core::BaseModel::Llama);
    spec.pretrain_steps = 0;  // untrained weights: serving math only
    return core::HpcGpt(spec, core::build_shared_tokenizer());
  }();
  return model;
}

const std::string kQuestion = "Does this loop have a data race?";

std::future<core::GenerationResult> submit_question(
    serve::InferenceServer& server, std::size_t max_new_tokens = 0) {
  core::GenerationRequest request;
  request.prompt = kQuestion;
  request.max_new_tokens = max_new_tokens;
  return server.submit(std::move(request));
}

TEST(Serve, StatsSnapshotIsConsistentUnderConcurrentSubmits) {
  // Regression for the ServerStats race: stats() used to copy the struct
  // without taking the server mutex, so a reader could observe a torn
  // snapshot while the scheduler was updating the counters. Hammer
  // submit() and stats() from several threads; under TSan this is a
  // data-race probe, and in any build the monotonic-counter checks below
  // catch torn or out-of-thin-air values.
  serve::InferenceServer server(
      shared_model(),
      serve::ServeConfig{.max_batch = 4, .max_new_tokens = 6});

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::size_t last_served = 0;
      std::size_t last_generated = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const serve::ServerStats st = server.stats();
        // Counters only grow; a torn read shows up as a regression.
        if (st.requests_served < last_served ||
            st.generated_tokens < last_generated ||
            st.batch_occupancy_sum < st.batch_rounds ||
            st.peak_batch > 4) {
          ++violations;
        }
        last_served = st.requests_served;
        last_generated = st.generated_tokens;
      }
    });
  }

  constexpr std::size_t kRequests = 24;
  std::vector<std::future<core::GenerationResult>> futures;
  futures.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    futures.push_back(submit_question(server));
  }
  for (auto& f : futures) (void)f.get();

  stop = true;
  for (auto& t : readers) t.join();
  server.shutdown();

  EXPECT_EQ(violations.load(), 0);
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.requests_served, kRequests);
  EXPECT_GE(st.peak_batch, 1u);
  EXPECT_LE(st.peak_batch, 4u);
  EXPECT_GT(st.generated_tokens, 0u);
  EXPECT_GT(st.busy_seconds, 0.0);
  EXPECT_GT(st.tokens_per_second(), 0.0);
  EXPECT_GT(st.mean_latency_seconds(), 0.0);
  EXPECT_GE(st.mean_batch_occupancy(), 1.0);
}

TEST(Serve, ContinuousBatchingKeepsQueueDraining) {
  // One long generation must not serialize the queue: with 2 lanes and 6
  // requests, at least two streams must have been in flight together
  // (peak_batch == 2) and everything still completes.
  serve::InferenceServer server(
      shared_model(),
      serve::ServeConfig{.max_batch = 2, .max_new_tokens = 24});
  std::vector<std::future<core::GenerationResult>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(submit_question(server));
  for (auto& f : futures) (void)f.get();
  server.shutdown();

  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.requests_served, 6u);
  EXPECT_EQ(st.peak_batch, 2u);
  EXPECT_GT(st.batch_rounds, 0u);
  // Every round carried at least one stream, at most two.
  EXPECT_GE(st.mean_batch_occupancy(), 1.0);
  EXPECT_LE(st.mean_batch_occupancy(), 2.0 + 1e-9);
}

TEST(Serve, AdmissionWindowFillsTheFirstBatch) {
  // With a generous admission window, a burst submitted while the server
  // is idle is decoded at full occupancy from round one.
  serve::InferenceServer server(
      shared_model(),
      serve::ServeConfig{.max_batch = 4,
                           .max_new_tokens = 8,
                           .admission_window_seconds = 0.25});
  std::vector<std::future<core::GenerationResult>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(submit_question(server));
  for (auto& f : futures) (void)f.get();
  server.shutdown();

  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.requests_served, 4u);
  EXPECT_EQ(st.peak_batch, 4u);
  // All four lanes were admitted before the first round, so occupancy
  // stays maximal until the streams retire together.
  EXPECT_GE(st.mean_batch_occupancy(), 4.0 - 1e-9);
}

TEST(Serve, StatsAfterShutdownAreFinal) {
  serve::ServerStats st;
  {
    serve::InferenceServer server(
        shared_model(),
        serve::ServeConfig{.max_batch = 3, .max_new_tokens = 4});
    auto f1 = submit_question(server);
    auto f2 = submit_question(server);
    (void)f1.get();
    (void)f2.get();
    server.shutdown();
    st = server.stats();
  }
  EXPECT_EQ(st.requests_served, 2u);
  EXPECT_GT(st.prompt_tokens, 0u);
  EXPECT_GT(st.latency_seconds_sum, 0.0);
}

TEST(Serve, TypedResultsAccountingMatchesServerStats) {
  // The per-request accounting in GenerationResult and the aggregate
  // ServerStats view over the metrics registry must describe the same
  // run: summed token counts equal, ids unique and nonzero, latencies
  // within the aggregate sum.
  serve::InferenceServer server(
      shared_model(),
      serve::ServeConfig{.max_batch = 3, .max_new_tokens = 10});
  constexpr std::size_t kRequests = 9;
  std::vector<std::future<core::GenerationResult>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    futures.push_back(submit_question(server));
  }
  std::vector<core::GenerationResult> results;
  results.reserve(kRequests);
  for (auto& f : futures) results.push_back(f.get());
  server.shutdown();
  const serve::ServerStats st = server.stats();

  std::size_t prompt_sum = 0;
  std::size_t generated_sum = 0;
  double latency_sum = 0.0;
  std::set<std::uint64_t> ids;
  for (const core::GenerationResult& r : results) {
    EXPECT_TRUE(r.ok());
    EXPECT_NE(r.id, 0u);
    ids.insert(r.id);
    EXPECT_GT(r.prompt_tokens, 0u);
    EXPECT_LE(r.generated_tokens, 10u);
    EXPECT_GT(r.latency_seconds, 0.0);
    EXPECT_TRUE(r.finish == core::FinishReason::Eos ||
                r.finish == core::FinishReason::Budget);
    prompt_sum += r.prompt_tokens;
    generated_sum += r.generated_tokens;
    latency_sum += r.latency_seconds;
  }
  EXPECT_EQ(ids.size(), kRequests);
  EXPECT_EQ(st.requests_served, kRequests);
  EXPECT_EQ(st.prompt_tokens, prompt_sum);
  EXPECT_EQ(st.generated_tokens, generated_sum);
  EXPECT_NEAR(st.latency_seconds_sum, latency_sum, 1e-6);
}

TEST(Serve, PerRequestBudgetOverridesServerDefault) {
  serve::InferenceServer server(
      shared_model(),
      serve::ServeConfig{.max_batch = 2, .max_new_tokens = 24});
  auto tight = submit_question(server, /*max_new_tokens=*/3);
  auto wide = submit_question(server);  // server default: 24
  const core::GenerationResult tight_result = tight.get();
  const core::GenerationResult wide_result = wide.get();
  server.shutdown();

  EXPECT_LE(tight_result.generated_tokens, 3u);
  if (tight_result.generated_tokens == 3u) {
    EXPECT_EQ(tight_result.finish, core::FinishReason::Budget);
  }
  EXPECT_LE(wide_result.generated_tokens, 24u);
  // The untrained model does not emit EOS within 3 tokens here, so the
  // tight budget really bit: the wide request decoded further.
  EXPECT_GE(wide_result.generated_tokens, tight_result.generated_tokens);
}

TEST(Serve, SubmitAfterShutdownResolvesRejected) {
  serve::InferenceServer server(shared_model(),
                                serve::ServeConfig{.max_batch = 1});
  server.shutdown();
  core::GenerationRequest request;
  request.prompt = kQuestion;
  request.id = 1234;
  const core::GenerationResult result = server.submit(std::move(request)).get();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.finish, core::FinishReason::Rejected);
  EXPECT_EQ(result.id, 1234u);
  EXPECT_TRUE(result.text.empty());
  EXPECT_EQ(result.generated_tokens, 0u);
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.requests_rejected, 1u);
  EXPECT_EQ(st.requests_served, 0u);
}

TEST(Serve, MetricsJsonExposesServerAndProcessRegistries) {
  serve::InferenceServer server(
      shared_model(),
      serve::ServeConfig{.max_batch = 2, .max_new_tokens = 5});
  constexpr std::size_t kRequests = 4;
  std::vector<std::future<core::GenerationResult>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    futures.push_back(submit_question(server));
  }
  for (auto& f : futures) (void)f.get();
  server.shutdown();

  const json::Value root = json::parse(server.metrics_json());
  const json::Value& srv = root.at("server");
  EXPECT_EQ(srv.at("counters").at("serve.requests.completed").as_int(),
            static_cast<std::int64_t>(kRequests));
  EXPECT_GT(srv.at("counters").at("serve.tokens.generated").as_int(), 0);
  // Every request records exactly one admission and one TTFT sample.
  EXPECT_EQ(srv.at("histograms").at("serve.ttft.seconds").at("count").as_int(),
            static_cast<std::int64_t>(kRequests));
  EXPECT_EQ(
      srv.at("histograms").at("serve.admission.seconds").at("count").as_int(),
      static_cast<std::int64_t>(kRequests));
  EXPECT_GT(
      srv.at("histograms").at("serve.round.occupancy").at("count").as_int(), 0);
  EXPECT_GT(srv.at("gauges").at("serve.batch.lanes").at("max").as_int(), 0);
  // The process registry carries the substrate counters: the prefill
  // GEMMs and batched decode rounds this run just performed.
  const json::Value& process = root.at("process");
  EXPECT_GT(process.at("counters").at("tensor.gemm.calls").as_int(), 0);
  EXPECT_GT(process.at("counters").at("nn.decode.rounds").as_int(), 0);
}

TEST(Serve, RagPreStageAugmentsRelevantPromptsOnly) {
  auto engine = [] {
    const std::vector<std::string> facts{
        "A data race occurs when two threads access the same variable "
        "without synchronization and at least one access is a write.",
        "The reduction clause privatizes the accumulator per thread.",
    };
    retrieval::TfidfEmbedder emb;
    emb.fit(facts);
    auto e = std::make_shared<retrieval::SearchEngine>(emb);
    e->add_all(facts);
    return e;
  }();

  // Unaugmented baseline: the same question served without RAG.
  std::size_t bare_tokens = 0;
  {
    serve::InferenceServer bare(
        shared_model(),
        serve::ServeConfig{.max_batch = 1, .max_new_tokens = 4});
    bare_tokens = submit_question(bare, 4).get().prompt_tokens;
    bare.shutdown();
  }

  serve::ServeConfig config{.max_batch = 2, .max_new_tokens = 4};
  config.rag.enabled = true;
  config.rag.engine = engine;
  config.rag.top_k = 1;
  serve::InferenceServer server(shared_model(), config);

  core::GenerationRequest relevant;
  relevant.prompt = kQuestion;  // overlaps the data-race fact
  relevant.max_new_tokens = 4;
  const core::GenerationResult got = server.submit(std::move(relevant)).get();
  EXPECT_GT(got.prompt_tokens, bare_tokens)
      << "context should have been spliced into the prompt";

  core::GenerationRequest irrelevant;
  irrelevant.prompt = "zzz qqq vvv unrelated";
  irrelevant.max_new_tokens = 4;
  (void)server.submit(std::move(irrelevant)).get();
  server.shutdown();

  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.rag_augmented, 1u);
  EXPECT_EQ(st.rag_skipped, 1u);
}

TEST(Serve, RagEnabledWithoutEngineIsRejectedAtConstruction) {
  serve::ServeConfig config{.max_batch = 1, .max_new_tokens = 4};
  config.rag.enabled = true;  // no engine attached
  EXPECT_THROW(serve::InferenceServer(shared_model(), config), Error);
}

}  // namespace
