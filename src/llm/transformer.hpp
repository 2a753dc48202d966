// Decoder-only transformer with pluggable matmul / nonlinear backends.
//
// Architecture (Llama-style): RMSNorm -> multi-head causal attention ->
// residual -> RMSNorm -> SiLU-gated MLP -> residual; final RMSNorm and a
// linear LM head. All linear layers route through the MatmulBackend, all
// softmax/SiLU through the NonlinearBackend, so quantisation error
// propagates through genuine forward passes.
//
// One layer body, two attention cores. The embedding, the Q/K/V
// projections, the output projection and its residual, the MLP and the LM
// head are written once, below (embed .. lm_head), and both forward paths
// run them: forward() here (teacher-forced perplexity) and
// Decoder::step_groups (serving). Only the attention core between
// project_qkv and add_attention differs. forward() scales q by inv_sqrt
// before the score product and issues scores/context through
// matmul_dynamic, so Session's capture decorator prices them; the decoder
// attends per row over KVCacheViews and scales the dot product afterwards.
// Running perplexity through step_groups (the whole stream as one kAllRows
// group over a contiguous cache) was measured on Llama-7B at 256 eval
// tokens: Olive moves 940.147 -> 910.279 (-3.2%, over the 1% bar for
// merging the paths), the other Table II rows and the FP32 calibration
// (7.33251) hold, and the captured workload would lose its attention GEMMs
// (46 -> 22 GEMMs, 915,008 -> 693,056 cycles on the 16x16 array). So both
// attention cores stay.
#pragma once

#include <span>

#include "llm/backend.hpp"
#include "llm/model.hpp"

namespace bbal::llm {

/// Surprise of token `next` under `logits` (one row of vocab logits):
/// -log softmax(logits)[next], clipped at log(vocab) + 2 nats. The
/// per-position term of Transformer::mean_nll, for KV-cached evaluations
/// that must score exactly like it.
[[nodiscard]] double capped_nll(std::span<const float> logits, int next);

class Transformer {
 public:
  /// Backends and weights are borrowed; they must outlive the Transformer.
  Transformer(const ModelConfig& config, const TransformerWeights& weights,
              MatmulBackend& matmul_backend, NonlinearBackend& nl_backend);

  /// Teacher-forced forward pass over a token sequence; returns logits for
  /// every position (T x vocab), already scaled by logit_scale.
  [[nodiscard]] Matrix forward(std::span<const int> tokens);

  /// Mean next-token negative log likelihood over the sequence (position t
  /// predicts tokens[t+1]).
  [[nodiscard]] double mean_nll(std::span<const int> tokens);

  /// Perplexity = exp(mean_nll).
  [[nodiscard]] double perplexity(std::span<const int> tokens);

  void set_logit_scale(float scale) { logit_scale_ = scale; }

  [[nodiscard]] const ModelConfig& config() const { return config_; }
  [[nodiscard]] NonlinearBackend& nonlinear_backend() { return nonlinear_; }

  /// Bytes of prepared (quantised) weight storage the matmul backend
  /// holds for this model's registered matrices — the footprint the
  /// serving engine reports as weights_bytes.
  [[nodiscard]] std::int64_t weights_bytes() const {
    return matmul_.weights_bytes();
  }

  // --- The layer body both forward paths run -----------------------------
  // Rows are independent throughout: every projection quantises and
  // accumulates each row on its own, so a row's result does not depend on
  // which other rows share the matrix. Scratch matrices are resized in
  // place, so a caller that keeps them across calls allocates nothing once
  // they are warm to its shapes.

  /// x <- the embedding rows of `tokens`, scaled by 1/sqrt(d_model).
  void embed(std::span<const int> tokens, Matrix& x) const;

  /// normed = RMSNorm(x) with layer `l`'s attention gain; q, k and v are
  /// its projections, issued in that order.
  struct QkvScratch {
    Matrix normed, q, k, v;
  };
  void project_qkv(int l, const Matrix& x, QkvScratch& s);

  /// x += residual_branch_scale * (context x Wo); `out` holds the
  /// projection.
  void add_attention(int l, const Matrix& context, Matrix& x, Matrix& out);

  /// x += residual_branch_scale * (SiLU(normed Wgate) * (normed Wup)) Wdown,
  /// normed = RMSNorm(x) with layer `l`'s MLP gain.
  struct MlpScratch {
    Matrix normed, gate, up, down;
  };
  void add_mlp(int l, Matrix& x, MlpScratch& s);

  /// logits = logit_scale * (RMSNorm(rows) x Wlm), normalising `rows` in
  /// place with the final gain.
  void lm_head(Matrix& rows, Matrix& logits);

 private:
  /// forward()'s attention core: causal per-head attention over the whole
  /// sequence, scores and context through matmul_dynamic.
  void attend(const QkvScratch& s, Matrix& context);

  /// Handles of one layer's registered weight matrices.
  struct LayerHandles {
    int wq, wk, wv, wo, w_gate, w_up, w_down;
  };

  const ModelConfig& config_;
  const TransformerWeights& weights_;
  MatmulBackend& matmul_;
  NonlinearBackend& nonlinear_;
  std::vector<LayerHandles> handles_;
  int lm_head_handle_ = -1;
  float logit_scale_ = 1.0f;
};

}  // namespace bbal::llm
