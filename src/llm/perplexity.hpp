// Perplexity harness: stream synthesis, logit-scale calibration and the
// evaluation entry points used by Tables II/IV and Figs. 4/8.
//
// Methodology (DESIGN.md substitution #1): the evaluation stream is sampled
// from the FP32 model itself, so the FP32 perplexity approaches the model's
// own entropy rate — which we calibrate (via the logit scale) to the paper's
// FP16 baseline. Quantised variants then measure genuinely propagated error.
#pragma once

#include <memory>
#include <vector>

#include "llm/transformer.hpp"

namespace bbal::llm {

/// Sample `length` tokens autoregressively from `model` (seeded).
[[nodiscard]] std::vector<int> sample_stream(Transformer& model, int length,
                                             std::uint64_t seed);

/// Everything needed to evaluate one model under many backends: the frozen
/// weights, the calibrated scale and the evaluation stream.
struct PreparedModel {
  ModelConfig config;
  TransformerWeights weights;
  float logit_scale = 1.0f;
  std::vector<int> eval_stream;
  double fp32_ppl = 0.0;  ///< measured baseline on the eval stream
};

/// Build + calibrate a model and synthesise its evaluation stream.
[[nodiscard]] PreparedModel prepare_model(const ModelConfig& config,
                                          int eval_tokens = 512);

/// Perplexity of `prepared` when run with the given backends.
[[nodiscard]] double evaluate_ppl(const PreparedModel& prepared,
                                  MatmulBackend& matmul_backend,
                                  NonlinearBackend& nl_backend);

/// Convenience: perplexity under a block format (FP32 nonlinear), the
/// Table II cell.
[[nodiscard]] double evaluate_ppl_block_format(const PreparedModel& prepared,
                                               const quant::BlockFormat& fmt);

}  // namespace bbal::llm
