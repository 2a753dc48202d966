#include "llm/transformer.hpp"

#include <cassert>
#include <cmath>

#include "common/threadpool.hpp"

namespace bbal::llm {

Transformer::Transformer(const ModelConfig& config,
                         const TransformerWeights& weights,
                         MatmulBackend& matmul_backend,
                         NonlinearBackend& nl_backend)
    : config_(config),
      weights_(weights),
      matmul_(matmul_backend),
      nonlinear_(nl_backend) {
  assert(static_cast<int>(weights.layers.size()) == config.n_layers);
  for (int l = 0; l < config.n_layers; ++l) {
    const LayerWeights& lw = weights.layers[static_cast<std::size_t>(l)];
    const std::string p = "layer" + std::to_string(l) + ".";
    LayerHandles h{};
    h.wq = matmul_.prepare_weights(lw.wq, p + "wq");
    h.wk = matmul_.prepare_weights(lw.wk, p + "wk");
    h.wv = matmul_.prepare_weights(lw.wv, p + "wv");
    h.wo = matmul_.prepare_weights(lw.wo, p + "wo");
    h.w_gate = matmul_.prepare_weights(lw.w_gate, p + "gate");
    h.w_up = matmul_.prepare_weights(lw.w_up, p + "up");
    h.w_down = matmul_.prepare_weights(lw.w_down, p + "down");
    handles_.push_back(h);
  }
  lm_head_handle_ = matmul_.prepare_weights(weights.lm_head, "lm_head");
}

namespace {

/// x += scale * branch: a residual branch joins the stream.
void add_branch(Matrix& x, Matrix& branch, double scale) {
  const auto s = static_cast<float>(scale);
  for (float& v : branch.flat()) v *= s;
  add_inplace(x, branch);
}

}  // namespace

void Transformer::embed(std::span<const int> tokens, Matrix& x) const {
  const int d = config_.d_model;
  const float emb_scale = 1.0f / std::sqrt(static_cast<float>(d));
  x.resize(static_cast<int>(tokens.size()), d);
  for (int i = 0; i < x.rows(); ++i) {
    const int token = tokens[static_cast<std::size_t>(i)];
    assert(token >= 0 && token < config_.vocab);
    const std::span<const float> emb = weights_.embedding.row(token);
    const std::span<float> row = x.row(i);
    for (int c = 0; c < d; ++c)
      row[static_cast<std::size_t>(c)] =
          emb[static_cast<std::size_t>(c)] * emb_scale;
  }
}

void Transformer::project_qkv(int l, const Matrix& x, QkvScratch& s) {
  const LayerHandles& h = handles_[static_cast<std::size_t>(l)];
  s.normed = x;
  rmsnorm_rows(s.normed,
               weights_.layers[static_cast<std::size_t>(l)].attn_norm_gain);
  matmul_.matmul(s.normed, h.wq, s.q);
  matmul_.matmul(s.normed, h.wk, s.k);
  matmul_.matmul(s.normed, h.wv, s.v);
}

void Transformer::add_attention(int l, const Matrix& context, Matrix& x,
                                Matrix& out) {
  matmul_.matmul(context, handles_[static_cast<std::size_t>(l)].wo, out);
  add_branch(x, out, config_.residual_branch_scale);
}

void Transformer::add_mlp(int l, Matrix& x, MlpScratch& s) {
  const LayerHandles& h = handles_[static_cast<std::size_t>(l)];
  s.normed = x;
  rmsnorm_rows(s.normed,
               weights_.layers[static_cast<std::size_t>(l)].mlp_norm_gain);
  matmul_.matmul(s.normed, h.w_gate, s.gate);
  matmul_.matmul(s.normed, h.w_up, s.up);
  for (int r = 0; r < s.gate.rows(); ++r) nonlinear_.silu(s.gate.row(r));
  const std::span<float> g = s.gate.flat();
  const std::span<const float> u = s.up.flat();
  for (std::size_t i = 0; i < g.size(); ++i) g[i] *= u[i];
  matmul_.matmul(s.gate, h.w_down, s.down);
  add_branch(x, s.down, config_.residual_branch_scale);
}

void Transformer::lm_head(Matrix& rows, Matrix& logits) {
  rmsnorm_rows(rows, weights_.final_norm_gain);
  matmul_.matmul(rows, lm_head_handle_, logits);
  for (float& v : logits.flat()) v *= logit_scale_;
}

void Transformer::attend(const QkvScratch& s, Matrix& context) {
  const int t = s.q.rows();
  const int heads = config_.n_heads;
  const int dh = config_.head_dim();
  const float inv_sqrt =
      static_cast<float>(config_.attention_score_scale) /
      std::sqrt(static_cast<float>(dh));
  context.resize(t, config_.d_model);

  // Per-head attention. Scores/context products are activation-activation
  // GEMMs and go through matmul_dynamic (FP32 under every strategy), where
  // decorators such as Session's capture can see them.
  //
  // The head loop itself stays serial: backend calls must arrive in a fixed
  // order because decorators (Session's workload capture, traffic counters)
  // record them, and the captured sequence feeds the accelerator replay.
  // Parallelism lives *inside* each matmul (tiled over outputs), which
  // preserves the call order while using every thread.
  Matrix qh(t, dh), kh_t(dh, t), vh(t, dh);
  for (int head = 0; head < heads; ++head) {
    const int off = head * dh;
    for (int i = 0; i < t; ++i)
      for (int j = 0; j < dh; ++j) {
        qh.at(i, j) = s.q.at(i, off + j) * inv_sqrt;
        kh_t.at(j, i) = s.k.at(i, off + j);
        vh.at(i, j) = s.v.at(i, off + j);
      }
    Matrix scores;
    matmul_.matmul_dynamic(qh, kh_t, scores);  // t x t
    // Causal mask + softmax per row over the visible prefix.
    for (int i = 0; i < t; ++i) {
      const std::span<float> row = scores.row(i);
      nonlinear_.softmax(row.subspan(0, static_cast<std::size_t>(i) + 1));
      for (int j = i + 1; j < t; ++j) row[static_cast<std::size_t>(j)] = 0.0f;
    }
    Matrix ctx;
    matmul_.matmul_dynamic(scores, vh, ctx);  // t x dh
    for (int i = 0; i < t; ++i)
      for (int j = 0; j < dh; ++j) context.at(i, off + j) = ctx.at(i, j);
  }
}

Matrix Transformer::forward(std::span<const int> tokens) {
  assert(!tokens.empty());
  Matrix x;
  embed(tokens, x);
  for (int l = 0; l < config_.n_layers; ++l) {
    {
      // Attention's buffers are freed before the MLP's are allocated, so a
      // long sequence holds one phase's (t x d_model) or (t x d_ff)
      // matrices at a time.
      QkvScratch qkv;
      project_qkv(l, x, qkv);
      Matrix context, out;
      attend(qkv, context);
      add_attention(l, context, x, out);
    }
    MlpScratch mlp;
    add_mlp(l, x, mlp);
  }
  Matrix logits;
  lm_head(x, logits);
  return logits;
}

double capped_nll(std::span<const float> logits, int next) {
  // log-softmax at the realised next token.
  float mx = logits[0];
  for (const float v : logits) mx = std::max(mx, v);
  double sum = 0.0;
  for (const float v : logits) sum += std::exp(static_cast<double>(v) - mx);
  const double logp =
      static_cast<double>(logits[static_cast<std::size_t>(next)]) - mx -
      std::log(sum);
  // Per-token surprise is clipped at uniform + 2 nats so catastrophic
  // quantisers produce large-but-finite perplexities (the same scale as
  // the paper's worst Olive rows) instead of numerically unbounded ones.
  const double cap = std::log(static_cast<double>(logits.size())) + 2.0;
  return std::min(-logp, cap);
}

double Transformer::mean_nll(std::span<const int> tokens) {
  assert(tokens.size() >= 2);
  const Matrix logits = forward(tokens);
  const int t = static_cast<int>(tokens.size());
  // Positions are independent; compute each position's surprise in
  // parallel, then reduce serially in index order so the floating-point
  // sum is bit-identical to the serial loop at any thread count.
  std::vector<double> position_nll(static_cast<std::size_t>(t - 1));
  common::ThreadPool::global().parallel_for_chunks(
      0, t - 1, /*grain=*/0, [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i)
          position_nll[static_cast<std::size_t>(i)] =
              capped_nll(logits.row(static_cast<int>(i)),
                         tokens[static_cast<std::size_t>(i) + 1]);
      });
  double nll = 0.0;
  for (const double v : position_nll) nll += v;
  return nll / static_cast<double>(t - 1);
}

double Transformer::perplexity(std::span<const int> tokens) {
  return std::exp(mean_nll(tokens));
}

}  // namespace bbal::llm
