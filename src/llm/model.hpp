// Synthetic decoder-only transformer family standing in for the paper's
// Llama / OPT checkpoints (see DESIGN.md, substitution #1).
//
// Weight statistics follow Fig. 1(a): Gaussian bulk plus a small set of
// outlier channels (~10x average outliers, ~100x extremes). "Llama-like"
// configs carry more/larger outliers than "OPT-like" configs, which is the
// paper's explanation for outlier-budget baselines behaving differently on
// the two families (Fig. 8 discussion).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "llm/tensor.hpp"

namespace bbal::llm {

struct ModelConfig {
  std::string name;
  int vocab = 512;
  int d_model = 128;
  int n_layers = 3;
  int n_heads = 4;
  int d_ff = 344;
  std::uint64_t seed = 1;
  /// Fraction of channels that are outlier channels.
  double outlier_rate = 0.01;
  /// Magnitude multiplier of outlier channels over the Gaussian bulk.
  double outlier_scale = 25.0;
  /// Residual-branch scale (DeepNet/muP-style damping). Trained LLMs are
  /// far more robust to per-layer perturbations than random networks; this
  /// keeps the synthetic model's error propagation in a realistic regime.
  double residual_branch_scale = 0.55;
  /// Attention score sharpness. Trained LLMs develop near-deterministic
  /// heads with logit ranges of tens; random projections don't, so the
  /// nonlinear study scales scores up to reach that regime.
  double attention_score_scale = 1.0;
  /// Paper's FP16 perplexity for this model (calibration target, Table II).
  double fp_baseline_ppl = 5.47;

  [[nodiscard]] int head_dim() const { return d_model / n_heads; }
  bool operator==(const ModelConfig&) const = default;
};

struct LayerWeights {
  Matrix wq, wk, wv, wo;       // d_model x d_model
  Matrix w_gate, w_up;         // d_model x d_ff
  Matrix w_down;               // d_ff x d_model
  std::vector<float> attn_norm_gain;  // d_model
  std::vector<float> mlp_norm_gain;   // d_model
};

struct TransformerWeights {
  Matrix embedding;            // vocab x d_model
  std::vector<LayerWeights> layers;
  std::vector<float> final_norm_gain;  // d_model
  Matrix lm_head;              // d_model x vocab
};

/// Deterministically generate weights for `config` (seeded).
[[nodiscard]] TransformerWeights generate_weights(const ModelConfig& config);

/// The twelve Table II models: Llama-{1B..65B} and OPT-{1.3B..66B}, scaled
/// down in width/depth but with family-faithful outlier profiles and the
/// paper's FP16 PPL as calibration target.
[[nodiscard]] std::vector<ModelConfig> model_zoo();

/// Zoo lookup across model_zoo() and nonlinear_zoo(); unknown names are a
/// reportable error (listing the known names), not an abort.
[[nodiscard]] Result<ModelConfig> find_config(const std::string& name);

/// Literal-name convenience; aborts with a message on unknown names.
[[nodiscard]] ModelConfig config_by_name(const std::string& name);

/// Nonlinear-study models of Table IV: Llama-7B, Llama2-7B, Llama3-8B
/// analogues with FP32 baselines 5.68 / 5.47 / 6.14.
[[nodiscard]] std::vector<ModelConfig> nonlinear_zoo();

}  // namespace bbal::llm
