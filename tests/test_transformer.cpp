// Transformer substrate: shape/consistency checks, KV-cache decoding vs
// batched forward, calibration, and quantised-backend behaviour.
#include "llm/transformer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "llm/decoder.hpp"
#include "llm/perplexity.hpp"

namespace bbal::llm {
namespace {

ModelConfig tiny_config() {
  ModelConfig c;
  c.name = "tiny";
  c.vocab = 64;
  c.d_model = 32;
  c.n_layers = 2;
  c.n_heads = 2;
  c.d_ff = 48;
  c.seed = 5;
  c.outlier_rate = 0.02;
  c.outlier_scale = 20.0;
  c.fp_baseline_ppl = 8.0;
  return c;
}

TEST(ModelZoo, TwelveModelsWithPaperBaselines) {
  const auto zoo = model_zoo();
  ASSERT_EQ(zoo.size(), 12u);
  EXPECT_EQ(zoo[0].name, "Llama-1B");
  EXPECT_NEAR(zoo[2].fp_baseline_ppl, 5.47, 1e-9);   // Llama-7B
  EXPECT_NEAR(zoo[8].fp_baseline_ppl, 10.86, 1e-9);  // OPT-6.7B
  for (const auto& c : zoo) {
    EXPECT_EQ(c.d_model % c.n_heads, 0) << c.name;
    EXPECT_GT(c.fp_baseline_ppl, 1.0) << c.name;
  }
  // Llama-like configs carry more outliers than OPT-like ones.
  EXPECT_GT(zoo[0].outlier_rate, zoo[6].outlier_rate);
  EXPECT_GT(zoo[0].outlier_scale, zoo[6].outlier_scale);
}

TEST(WeightGen, DeterministicAndShaped) {
  const ModelConfig cfg = tiny_config();
  const TransformerWeights w1 = generate_weights(cfg);
  const TransformerWeights w2 = generate_weights(cfg);
  ASSERT_EQ(static_cast<int>(w1.layers.size()), cfg.n_layers);
  EXPECT_EQ(w1.embedding.rows(), cfg.vocab);
  EXPECT_EQ(w1.layers[0].w_gate.cols(), cfg.d_ff);
  EXPECT_EQ(w1.lm_head.cols(), cfg.vocab);
  // Determinism.
  EXPECT_FLOAT_EQ(w1.layers[1].wq.at(3, 4), w2.layers[1].wq.at(3, 4));
}

TEST(WeightGen, OutlierChannelsPresent) {
  ModelConfig cfg = tiny_config();
  cfg.outlier_rate = 0.05;
  cfg.outlier_scale = 30.0;
  const TransformerWeights w = generate_weights(cfg);
  float mx = 0.0f;
  double sum_abs = 0.0;
  std::size_t n = 0;
  for (const float v : w.layers[0].wq.flat()) {
    mx = std::max(mx, std::fabs(v));
    sum_abs += std::fabs(v);
    ++n;
  }
  const double mean_abs = sum_abs / static_cast<double>(n);
  EXPECT_GT(mx / mean_abs, 10.0);  // Fig. 1(a): outliers ~10-100x the bulk
}

TEST(Forward, LogitShapeAndFiniteness) {
  const ModelConfig cfg = tiny_config();
  const TransformerWeights w = generate_weights(cfg);
  Fp32MatmulBackend mm;
  Fp32NonlinearBackend nl;
  Transformer model(cfg, w, mm, nl);
  const std::vector<int> tokens = {1, 5, 9, 33, 2, 17};
  const Matrix logits = model.forward(tokens);
  EXPECT_EQ(logits.rows(), 6);
  EXPECT_EQ(logits.cols(), cfg.vocab);
  for (const float v : logits.flat()) EXPECT_TRUE(std::isfinite(v));
}

TEST(Forward, CausalityHoldsUnderTokenChangesAhead) {
  // Changing a future token must not change logits at earlier positions.
  const ModelConfig cfg = tiny_config();
  const TransformerWeights w = generate_weights(cfg);
  Fp32MatmulBackend mm;
  Fp32NonlinearBackend nl;
  Transformer model(cfg, w, mm, nl);
  std::vector<int> a = {3, 7, 11, 19, 23};
  std::vector<int> b = a;
  b[4] = 60;  // differs only at the last position
  const Matrix la = model.forward(a);
  const Matrix lb = model.forward(b);
  for (int pos = 0; pos < 4; ++pos)
    for (int v = 0; v < cfg.vocab; ++v)
      EXPECT_NEAR(la.at(pos, v), lb.at(pos, v), 1e-5)
          << "pos=" << pos << " v=" << v;
}

TEST(Decoder, MatchesBatchedForward) {
  const ModelConfig cfg = tiny_config();
  const TransformerWeights w = generate_weights(cfg);
  Fp32MatmulBackend mm;
  Fp32NonlinearBackend nl;
  Transformer model(cfg, w, mm, nl);
  const std::vector<int> tokens = {2, 40, 13, 27, 8};

  const Matrix batched = model.forward(tokens);
  Decoder decoder(model);
  std::vector<float> last;
  for (const int t : tokens) last = decoder.step(t);
  ASSERT_EQ(static_cast<int>(last.size()), cfg.vocab);
  for (int v = 0; v < cfg.vocab; ++v)
    EXPECT_NEAR(last[static_cast<std::size_t>(v)],
                batched.at(batched.rows() - 1, v), 2e-4)
        << v;
}

TEST(Decoder, ResetClearsContext) {
  const ModelConfig cfg = tiny_config();
  const TransformerWeights w = generate_weights(cfg);
  Fp32MatmulBackend mm;
  Fp32NonlinearBackend nl;
  Transformer model(cfg, w, mm, nl);
  Decoder decoder(model);
  const std::vector<float> first = decoder.step(5);
  (void)decoder.step(9);
  decoder.reset();
  const std::vector<float> again = decoder.step(5);
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_FLOAT_EQ(first[i], again[i]);
}

TEST(PreparedModel, BaselineNearConfigTarget) {
  ModelConfig cfg = tiny_config();
  cfg.fp_baseline_ppl = 6.0;
  const PreparedModel prepared = prepare_model(cfg, 320);
  EXPECT_NEAR(prepared.fp32_ppl, 6.0, 6.0 * 0.4);
  EXPECT_EQ(static_cast<int>(prepared.eval_stream.size()), 320);
}

TEST(QuantisedEval, WideFormatsTrackFp32) {
  ModelConfig cfg = tiny_config();
  const PreparedModel prepared = prepare_model(cfg, 256);
  const double bbfp63 = evaluate_ppl_block_format(
      prepared, quant::BlockFormat::bbfp(6, 3));
  // BBFP(6,3) tracks the FP32 baseline (Table II: BBFP(6,3) ~ FP16 row).
  // The tiny test model (d=32: a single block per row) is far more
  // quantisation-sensitive than the zoo models, so the band is loose here;
  // bench_table2 checks the tight version at zoo scale.
  EXPECT_NEAR(bbfp63, prepared.fp32_ppl, prepared.fp32_ppl * 0.30);
  const double bfp4 =
      evaluate_ppl_block_format(prepared, quant::BlockFormat::bfp(4));
  EXPECT_LT(bbfp63, bfp4);  // wide BBFP strictly better than narrow BFP
}

TEST(QuantisedEval, NarrowFormatsDegradeInOrder) {
  ModelConfig cfg = tiny_config();
  const PreparedModel prepared = prepare_model(cfg, 256);
  const double bfp4 =
      evaluate_ppl_block_format(prepared, quant::BlockFormat::bfp(4));
  const double bfp6 =
      evaluate_ppl_block_format(prepared, quant::BlockFormat::bfp(6));
  EXPECT_GT(bfp4, prepared.fp32_ppl * 0.98);
  EXPECT_GT(bfp4, bfp6 * 0.98);  // 4-bit worse than (or close to) 6-bit
}

TEST(QuantisedEval, BbfpBeatsBfpAtSameWidthOnOutlierModel) {
  ModelConfig cfg = tiny_config();
  cfg.outlier_rate = 0.03;
  cfg.outlier_scale = 30.0;
  const PreparedModel prepared = prepare_model(cfg, 256);
  const double bfp4 =
      evaluate_ppl_block_format(prepared, quant::BlockFormat::bfp(4));
  const double bbfp42 = evaluate_ppl_block_format(
      prepared, quant::BlockFormat::bbfp(4, 2));
  EXPECT_LT(bbfp42, bfp4 * 1.05);  // the paper's core accuracy claim
}

}  // namespace
}  // namespace bbal::llm
