// llm::Decoder: reset() really clears the attention state, stepping after
// a reset is bit-identical to a fresh decoder, the engine-owned KVCache
// path (step(token, cache)) reproduces the owned-cache path, and the
// fused batch path (step_batch) is bit-identical to independent step()
// calls — across quantised strategies, thread counts, ragged batches and
// mid-run retirement/back-fill: the contract the serving engine's single
// shared pipeline rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "bbal/registry.hpp"
#include "common/threadpool.hpp"
#include "llm/decoder.hpp"
#include "llm/model.hpp"
#include "quant/strategy.hpp"

namespace bbal::llm {
namespace {

ModelConfig tiny_config() {
  ModelConfig cfg;
  cfg.name = "decoder-test";
  cfg.vocab = 64;
  cfg.d_model = 48;
  cfg.n_layers = 2;
  cfg.n_heads = 2;
  cfg.d_ff = 72;
  cfg.seed = 5;
  return cfg;
}

/// Weights + FP32 backends shared by the suite.
struct Fixture {
  Fixture() : config(tiny_config()), weights(generate_weights(config)) {}
  ModelConfig config;
  TransformerWeights weights;
  Fp32MatmulBackend mm;
  Fp32NonlinearBackend nl;
};

const std::vector<int> kTokens = {3, 17, 42, 9, 9, 60, 1};

TEST(Decoder, ResetClearsState) {
  Fixture f;
  Transformer model(f.config, f.weights, f.mm, f.nl);
  Decoder decoder(model);
  for (const int t : kTokens) (void)decoder.step(t);
  EXPECT_EQ(decoder.context_length(), static_cast<int>(kTokens.size()));
  decoder.reset();
  EXPECT_EQ(decoder.context_length(), 0);
}

TEST(Decoder, StepAfterResetMatchesFreshDecoder) {
  Fixture f;
  Transformer model(f.config, f.weights, f.mm, f.nl);

  // Pollute a decoder with one sequence, then reset it.
  Decoder used(model);
  for (const int t : kTokens) (void)used.step(t);
  used.reset();

  Decoder fresh(model);
  for (const int t : kTokens) {
    const std::vector<float> a = used.step(t);
    const std::vector<float> b = fresh.step(t);
    ASSERT_EQ(a, b);  // bit-identical logits at every position
  }
  EXPECT_EQ(used.context_length(), fresh.context_length());
}

TEST(Decoder, ExternalCacheMatchesOwnedCache) {
  Fixture f;
  Transformer model(f.config, f.weights, f.mm, f.nl);
  Decoder owned(model);
  Decoder external(model);
  KVCache cache = external.make_cache();
  EXPECT_EQ(cache.length(), 0);

  for (const int t : kTokens) {
    const std::vector<float> a = owned.step(t);
    const std::vector<float> b = external.step(t, cache);
    ASSERT_EQ(a, b);
  }
  EXPECT_EQ(cache.length(), static_cast<int>(kTokens.size()));
  // The external path leaves the decoder's own cache untouched.
  EXPECT_EQ(external.context_length(), 0);

  cache.clear();
  EXPECT_EQ(cache.length(), 0);
}

TEST(Decoder, OneDecoderServesInterleavedCaches) {
  // Slot reuse in the serving engine: one decoder alternates between two
  // requests' caches and each sequence must be unaffected by the other.
  Fixture f;
  Transformer model(f.config, f.weights, f.mm, f.nl);
  const std::vector<int> seq_a = {1, 2, 3, 4, 5};
  const std::vector<int> seq_b = {50, 40, 30, 20, 10};

  Decoder ref_a(model);
  Decoder ref_b(model);
  std::vector<std::vector<float>> expect_a, expect_b;
  for (const int t : seq_a) expect_a.push_back(ref_a.step(t));
  for (const int t : seq_b) expect_b.push_back(ref_b.step(t));

  Decoder shared(model);
  KVCache cache_a = shared.make_cache();
  KVCache cache_b = shared.make_cache();
  for (std::size_t i = 0; i < seq_a.size(); ++i) {
    EXPECT_EQ(shared.step(seq_a[i], cache_a), expect_a[i]);
    EXPECT_EQ(shared.step(seq_b[i], cache_b), expect_b[i]);
  }
}

// --- Fused batch path --------------------------------------------------------

/// Drive step_batch like a mini serving engine over predetermined ragged
/// token sequences — staggered lengths, one sequence retiring mid-run and
/// another back-filling its row — and require every row's logits to be
/// bit-identical to stepping that sequence alone through step(token,
/// cache) on the same backend. Exercised per strategy and thread count.
/// Pins the global thread count for one scope and restores it even when
/// a gtest ASSERT returns out of the helper early.
struct ThreadCountGuard {
  explicit ThreadCountGuard(int threads) {
    common::ThreadPool::set_global_threads(threads);
  }
  ~ThreadCountGuard() {
    common::ThreadPool::set_global_threads(common::ThreadPool::env_threads());
  }
};

void expect_step_batch_matches_steps(const std::string& strategy,
                                     int threads) {
  const ThreadCountGuard guard(threads);
  const ModelConfig config = tiny_config();
  const TransformerWeights weights = generate_weights(config);
  auto mm = bbal::BackendRegistry::instance()
                .make_matmul(quant::spec_of(strategy))
                .expect("matmul backend");
  Fp32NonlinearBackend nl;
  Transformer model(config, weights, *mm, nl);
  Decoder fused(model);
  Decoder reference(model);

  // Ragged sequences; D enters only after B retires (back-fill).
  const std::vector<std::vector<int>> seqs = {
      {3, 17, 42, 9, 9, 60, 1},    // A: longest, active throughout
      {5, 4, 3},                   // B: retires after 3 ticks
      {33, 2, 44, 21, 8},          // C
      {11, 12, 13, 14, 15, 16}};   // D: back-fills B's row
  std::vector<KVCache> caches;
  std::vector<KVCache> ref_caches;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    caches.push_back(fused.make_cache());
    ref_caches.push_back(reference.make_cache());
  }
  std::vector<std::size_t> progress(seqs.size(), 0);

  Matrix logits;
  for (int tick = 0;; ++tick) {
    // Active set: every sequence with tokens left, except D before B is
    // done (mixed prefill depths: A is deep into its stream while a
    // back-filled D starts from an empty cache mid-run).
    std::vector<std::size_t> active;
    for (std::size_t s = 0; s < seqs.size(); ++s) {
      if (progress[s] >= seqs[s].size()) continue;
      if (s == 3 && progress[1] < seqs[1].size()) continue;
      active.push_back(s);
    }
    if (active.empty()) break;

    std::vector<int> tokens;
    std::vector<KVCacheView*> views;
    for (const std::size_t s : active) {
      tokens.push_back(seqs[s][progress[s]]);
      views.push_back(&caches[s]);
    }
    fused.step_batch(tokens, views, logits);
    ASSERT_EQ(logits.rows(), static_cast<int>(active.size()));
    ASSERT_EQ(logits.cols(), config.vocab);

    for (std::size_t i = 0; i < active.size(); ++i) {
      const std::size_t s = active[i];
      const std::vector<float> expected =
          reference.step(seqs[s][progress[s]], ref_caches[s]);
      const std::span<const float> row = logits.row(static_cast<int>(i));
      ASSERT_EQ(std::vector<float>(row.begin(), row.end()), expected)
          << strategy << " seq " << s << " tick " << tick << " at "
          << threads << " threads";
      ++progress[s];
    }
  }
  for (std::size_t s = 0; s < seqs.size(); ++s)
    EXPECT_EQ(caches[s].length(), static_cast<int>(seqs[s].size()));
}

/// Every Table II matmul strategy plus FP32 and INT8: batched rows must
/// never see each other, whatever the quantiser.
std::vector<std::string> batch_strategies() {
  std::vector<std::string> strategies = bbal::table2_strategies();
  strategies.insert(strategies.begin(), {"FP32", "INT8"});
  return strategies;
}

const std::vector<std::string> kBatchStrategies = batch_strategies();

TEST(DecoderBatch, MatchesIndependentStepsSingleThread) {
  for (const std::string& strategy : kBatchStrategies)
    expect_step_batch_matches_steps(strategy, 1);
}

TEST(DecoderBatch, MatchesIndependentStepsFourThreads) {
  for (const std::string& strategy : kBatchStrategies)
    expect_step_batch_matches_steps(strategy, 4);
}

// --- Chunked prefill ---------------------------------------------------------

/// Consume a prompt whose length does NOT divide the chunk size through
/// prefill_chunk (full chunks then a ragged tail), and require (a) each
/// chunk's logits row to be bit-identical to the serial step() logits at
/// that chunk's last position, and (b) decode to continue bit-identically
/// from the chunk-filled cache — chunking is a scheduling change, never
/// an arithmetic change.
void expect_prefill_chunk_matches_steps(const std::string& strategy,
                                        int chunk, int threads) {
  const ThreadCountGuard guard(threads);
  const ModelConfig config = tiny_config();
  const TransformerWeights weights = generate_weights(config);
  auto mm = bbal::BackendRegistry::instance()
                .make_matmul(quant::spec_of(strategy))
                .expect("matmul backend");
  Fp32NonlinearBackend nl;
  Transformer model(config, weights, *mm, nl);
  Decoder fused(model);
  Decoder reference(model);

  const std::vector<int> prompt = {3, 17, 42, 9, 9, 60, 1, 5, 4, 3, 33};
  ASSERT_NE(static_cast<int>(prompt.size()) % chunk, 0);
  KVCache cache = fused.make_cache();
  KVCache ref_cache = reference.make_cache();
  std::vector<std::vector<float>> ref_logits;
  for (const int t : prompt)
    ref_logits.push_back(reference.step(t, ref_cache));

  Matrix logits;
  std::size_t consumed = 0;
  while (consumed < prompt.size()) {
    const std::size_t n =
        std::min(static_cast<std::size_t>(chunk), prompt.size() - consumed);
    fused.prefill_chunk(std::span<const int>(prompt).subspan(consumed, n),
                        cache, logits);
    ASSERT_EQ(logits.rows(), 1);
    ASSERT_EQ(logits.cols(), config.vocab);
    consumed += n;
    const std::span<const float> row = logits.row(0);
    ASSERT_EQ(std::vector<float>(row.begin(), row.end()),
              ref_logits[consumed - 1])
        << strategy << " after " << consumed << " prompt tokens at "
        << threads << " threads";
  }
  EXPECT_EQ(cache.length(), static_cast<int>(prompt.size()));

  for (const int t : {7, 21}) {
    ASSERT_EQ(fused.step(t, cache), reference.step(t, ref_cache))
        << strategy << " decode after chunked prefill";
  }
}

TEST(DecoderPrefill, ChunkMatchesSerialStepsSingleThread) {
  for (const std::string& strategy : kBatchStrategies)
    expect_prefill_chunk_matches_steps(strategy, /*chunk=*/4, 1);
}

TEST(DecoderPrefill, ChunkMatchesSerialStepsFourThreads) {
  for (const std::string& strategy : kBatchStrategies)
    expect_prefill_chunk_matches_steps(strategy, /*chunk=*/4, 4);
}

TEST(DecoderPrefill, WholePromptAsOneChunkMatches) {
  for (const std::string& strategy : kBatchStrategies)
    expect_prefill_chunk_matches_steps(strategy, /*chunk=*/7, 1);
}

TEST(DecoderGroups, MixedPrefillAndDecodeRowsMatchSerial) {
  // One fused call per tick carrying a 3-token prefill chunk for X and a
  // single decode row for Y — the engine's mixed tick. Every group's
  // logits row must match its own sequence stepped alone.
  for (const std::string& strategy : {std::string("FP32"),
                                      std::string("BBFP(4,2)")}) {
    const ModelConfig config = tiny_config();
    const TransformerWeights weights = generate_weights(config);
    auto mm = bbal::BackendRegistry::instance()
                  .make_matmul(quant::spec_of(strategy))
                  .expect("matmul backend");
    Fp32NonlinearBackend nl;
    Transformer model(config, weights, *mm, nl);
    Decoder fused(model);
    Decoder reference(model);

    const std::vector<int> x_prompt = {8, 6, 7, 5, 30, 9, 11, 2, 35};
    const std::vector<int> y_tokens = {41, 1, 27};
    KVCache x = fused.make_cache();
    KVCache y = fused.make_cache();
    KVCache ref_x = reference.make_cache();
    KVCache ref_y = reference.make_cache();

    // Y already has context when X's prompt starts streaming in.
    ASSERT_EQ(fused.step(13, y), reference.step(13, ref_y));

    std::vector<std::vector<float>> ref_x_logits;
    for (const int t : x_prompt)
      ref_x_logits.push_back(reference.step(t, ref_x));

    Matrix logits;
    for (std::size_t tick = 0; tick < y_tokens.size(); ++tick) {
      const std::size_t base = tick * 3;
      std::vector<int> tokens(x_prompt.begin() + base,
                              x_prompt.begin() + base + 3);
      tokens.push_back(y_tokens[tick]);
      std::vector<KVCacheView*> views = {&x, &y};
      const std::vector<int> counts = {3, 1};
      fused.step_groups(tokens, views, counts, logits);
      ASSERT_EQ(logits.rows(), 2);

      const std::span<const float> x_row = logits.row(0);
      ASSERT_EQ(std::vector<float>(x_row.begin(), x_row.end()),
                ref_x_logits[base + 2])
          << strategy << " X chunk ending at " << base + 2;
      const std::vector<float> y_expected =
          reference.step(y_tokens[tick], ref_y);
      const std::span<const float> y_row = logits.row(1);
      ASSERT_EQ(std::vector<float>(y_row.begin(), y_row.end()), y_expected)
          << strategy << " Y decode at tick " << tick;
    }
    EXPECT_EQ(x.length(), static_cast<int>(x_prompt.size()));
    EXPECT_EQ(y.length(), 1 + static_cast<int>(y_tokens.size()));
  }
}

TEST(DecoderGroups, AllRowsModeSurfacesEveryPositionBitIdentically) {
  // LogitsMode::kAllRows is speculative verification's window: one fused
  // call over [x0, d1, d2] must surface the logits of EVERY position, each
  // bit-identical to the serial step() at that position — including the
  // mid-group rows the default mode discards.
  for (const std::string& strategy : {std::string("FP32"),
                                      std::string("BBFP(4,2)")}) {
    const ModelConfig config = tiny_config();
    const TransformerWeights weights = generate_weights(config);
    auto mm = bbal::BackendRegistry::instance()
                  .make_matmul(quant::spec_of(strategy))
                  .expect("matmul backend");
    Fp32NonlinearBackend nl;
    Transformer model(config, weights, *mm, nl);
    Decoder fused(model);
    Decoder reference(model);

    const std::vector<int> window = {3, 17, 42};
    KVCache cache = fused.make_cache();
    KVCache ref_cache = reference.make_cache();
    std::vector<std::vector<float>> ref_logits;
    for (const int t : window)
      ref_logits.push_back(reference.step(t, ref_cache));

    Matrix logits;
    std::vector<KVCacheView*> views = {&cache};
    const std::vector<int> counts = {3};
    fused.step_groups(window, views, counts, logits,
                      Decoder::LogitsMode::kAllRows);
    ASSERT_EQ(logits.rows(), 3);
    for (int r = 0; r < 3; ++r) {
      const std::span<const float> row = logits.row(r);
      ASSERT_EQ(std::vector<float>(row.begin(), row.end()),
                ref_logits[static_cast<std::size_t>(r)])
          << strategy << " all-rows position " << r;
    }
  }
}

TEST(DecoderGroups, AllRowsModeLeavesTheDefaultPathByteExact) {
  // The chunked-prefill regression for PR 9: interleaving kAllRows calls
  // must not perturb the default last-per-group path — same decoder, same
  // workspace, and a chunked prefill afterwards still matches the serial
  // reference bit for bit. Only the LM-head gather differs between modes.
  Fixture f;
  Transformer model(f.config, f.weights, f.mm, f.nl);
  Decoder fused(model);
  Decoder reference(model);

  // A verify-window call first (resizes ws_.last to the full batch)...
  KVCache scratch = fused.make_cache();
  {
    Matrix logits;
    std::vector<KVCacheView*> views = {&scratch};
    const std::vector<int> counts = {3};
    fused.step_groups(std::span<const int>(kTokens).first(3), views, counts,
                      logits, Decoder::LogitsMode::kAllRows);
    ASSERT_EQ(logits.rows(), 3);
  }

  // ...then the default chunked-prefill path, which must be untouched.
  const std::vector<int> prompt = {3, 17, 42, 9, 9, 60, 1};
  KVCache ref_cache = reference.make_cache();
  std::vector<float> ref_last;
  for (const int t : prompt) ref_last = reference.step(t, ref_cache);

  KVCache cache = fused.make_cache();
  Matrix logits;
  fused.prefill_chunk(std::span<const int>(prompt).first(4), cache, logits);
  fused.prefill_chunk(std::span<const int>(prompt).subspan(4), cache, logits);
  ASSERT_EQ(logits.rows(), 1);
  const std::span<const float> row = logits.row(0);
  EXPECT_EQ(std::vector<float>(row.begin(), row.end()), ref_last);

  // And an explicit kLastPerGroup equals the default-argument call.
  KVCache again = fused.make_cache();
  std::vector<KVCacheView*> views2 = {&again};
  const int count = static_cast<int>(prompt.size());
  Matrix explicit_logits;
  fused.step_groups(prompt, views2, std::span<const int>(&count, 1),
                    explicit_logits, Decoder::LogitsMode::kLastPerGroup);
  ASSERT_EQ(explicit_logits.rows(), 1);
  const std::span<const float> row2 = explicit_logits.row(0);
  EXPECT_EQ(std::vector<float>(row2.begin(), row2.end()), ref_last);
}

TEST(DecoderBatch, EmptyBatchIsANoOp) {
  Fixture f;
  Transformer model(f.config, f.weights, f.mm, f.nl);
  Decoder decoder(model);
  Matrix logits;
  decoder.step_batch({}, {}, logits);
  EXPECT_EQ(logits.rows(), 0);
  EXPECT_EQ(logits.cols(), f.config.vocab);
}

TEST(DecoderBatch, ReusesCallerLogitsStorage) {
  // The logits matrix keeps its allocation across same-shaped calls — the
  // zero-allocation contract the engine's tick loop relies on.
  Fixture f;
  Transformer model(f.config, f.weights, f.mm, f.nl);
  Decoder decoder(model);
  KVCache a = decoder.make_cache();
  KVCache b = decoder.make_cache();
  Matrix logits;
  std::vector<KVCacheView*> views = {&a, &b};
  const std::vector<int> tokens = {4, 7};
  decoder.step_batch(tokens, views, logits);
  const float* data = logits.flat().data();
  decoder.step_batch(tokens, views, logits);
  EXPECT_EQ(logits.flat().data(), data);
}

}  // namespace
}  // namespace bbal::llm
