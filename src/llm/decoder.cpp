#include "llm/decoder.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace bbal::llm {

Decoder::Decoder(Transformer& model)
    : model_(model), cache_(model.config().n_layers) {}

void Decoder::reset() { cache_.clear(); }

KVCache Decoder::make_cache() const {
  return KVCache(model_.config().n_layers);
}

std::vector<float> Decoder::step(int token) { return step(token, cache_); }

std::vector<float> Decoder::step(int token, KVCacheView& view) {
  // A batch of one: the single-request path shares the fused datapath
  // (and its persistent workspace), so it too stops allocating per token
  // — apart from this API's returned vector.
  KVCacheView* views[1] = {&view};
  step_batch(std::span<const int>(&token, 1),
             std::span<KVCacheView* const>(views, 1), ws_.logits);
  const std::span<const float> row = ws_.logits.row(0);
  return {row.begin(), row.end()};
}

void Decoder::step_batch(std::span<const int> tokens,
                         std::span<KVCacheView* const> views,
                         Matrix& logits_out) {
  // A grouped step with every count == 1: same iteration structure, same
  // arithmetic, one logits row per view — the pre-chunking contract.
  ws_.ones.assign(views.size(), 1);
  step_groups(tokens, views,
              std::span<const int>(ws_.ones.data(), views.size()),
              logits_out);
}

void Decoder::prefill_chunk(std::span<const int> tokens, KVCacheView& view,
                            Matrix& logits_out) {
  KVCacheView* views[1] = {&view};
  const int count = static_cast<int>(tokens.size());
  step_groups(tokens, std::span<KVCacheView* const>(views, 1),
              std::span<const int>(&count, 1), logits_out);
}

void Decoder::step_groups(std::span<const int> tokens,
                          std::span<KVCacheView* const> views,
                          std::span<const int> counts, Matrix& logits_out,
                          LogitsMode mode) {
  const ModelConfig& cfg = model_.config();
  const TransformerWeights& w = model_.weights();
  MatmulBackend& mm = model_.matmul_backend();
  NonlinearBackend& nl = model_.nonlinear_backend();
  assert(counts.size() == views.size());
  const int groups = static_cast<int>(views.size());
  if (groups == 0) {
    logits_out.resize(0, cfg.vocab);
    return;
  }
  int batch = 0;
  for (const int count : counts) {
    assert(count >= 1);
    batch += count;
  }
  assert(static_cast<int>(tokens.size()) == batch);

  const int d = cfg.d_model;
  const int heads = cfg.n_heads;
  const int dh = cfg.head_dim();
  const float inv_sqrt = static_cast<float>(cfg.attention_score_scale) /
                         std::sqrt(static_cast<float>(dh));
  const float emb_scale = 1.0f / std::sqrt(static_cast<float>(d));

  // x: stacked hidden states, one row per new position, so the quantising
  // backends see one (batch x d_model) activation matrix per projection —
  // decode rows and prefill-chunk rows alike.
  ws_.x.resize(batch, d);
  ws_.pos.resize(static_cast<std::size_t>(batch));
  for (int g = 0, r = 0; g < groups; ++g) {
    assert(views[static_cast<std::size_t>(g)] != nullptr);
    // The first position this step writes for group g; the group's row i
    // lands at base + i (KVCacheView protocol), so length() is read once.
    const int base = views[static_cast<std::size_t>(g)]->length();
    for (int i = 0; i < counts[static_cast<std::size_t>(g)]; ++i, ++r) {
      const int token = tokens[static_cast<std::size_t>(r)];
      assert(token >= 0 && token < cfg.vocab);
      const std::span<const float> emb = w.embedding.row(token);
      const std::span<float> row = ws_.x.row(r);
      for (int c = 0; c < d; ++c)
        row[static_cast<std::size_t>(c)] =
            emb[static_cast<std::size_t>(c)] * emb_scale;
      ws_.pos[static_cast<std::size_t>(r)] = base + i;
    }
  }

  for (int l = 0; l < cfg.n_layers; ++l) {
    const LayerWeights& lw = w.layers[static_cast<std::size_t>(l)];
    const Transformer::LayerHandles& h =
        model_.layer_handles()[static_cast<std::size_t>(l)];

    // --- Attention ---
    ws_.normed = ws_.x;
    rmsnorm_rows(ws_.normed, lw.attn_norm_gain);
    mm.matmul(ws_.normed, h.wq, ws_.q);
    mm.matmul(ws_.normed, h.wk, ws_.k);
    mm.matmul(ws_.normed, h.wv, ws_.v);
    for (int g = 0, r = 0; g < groups; ++g)
      for (int i = 0; i < counts[static_cast<std::size_t>(g)]; ++i, ++r)
        views[static_cast<std::size_t>(g)]->append(
            l, ws_.pos[static_cast<std::size_t>(r)], ws_.k.row(r),
            ws_.v.row(r));

    // Per-row attention over each row's own (ragged, causal) context: a
    // decode row attends over its whole sequence, row i of a prefill
    // chunk over positions 0..base+i — including the chunk's earlier rows,
    // read back through the view exactly as a later step would read them.
    // The loop stays serial: NonlinearBackend carries no thread-safety
    // contract, and the parallelism lives in the batched GEMMs around it
    // (llm::matmul row tiling). Row lookups are hoisted per position so a
    // paged view pays one page-table walk per position, not per element;
    // the element read order (and accumulation order) matches the
    // single-request path exactly.
    ws_.context.resize(batch, d);
    for (int g = 0, r = 0; g < groups; ++g) {
      const KVCacheView& view = *views[static_cast<std::size_t>(g)];
      for (int i = 0; i < counts[static_cast<std::size_t>(g)]; ++i, ++r) {
        const int ctx = ws_.pos[static_cast<std::size_t>(r)] + 1;
        ws_.krows.resize(static_cast<std::size_t>(ctx));
        ws_.vrows.resize(static_cast<std::size_t>(ctx));
        ws_.scores.resize(static_cast<std::size_t>(ctx));
        for (int p = 0; p < ctx; ++p) {
          ws_.krows[static_cast<std::size_t>(p)] = view.k_at(l, p);
          ws_.vrows[static_cast<std::size_t>(p)] = view.v_at(l, p);
        }
        const std::span<float> scores(ws_.scores.data(),
                                      static_cast<std::size_t>(ctx));
        for (int head = 0; head < heads; ++head) {
          const int off = head * dh;
          for (int p = 0; p < ctx; ++p) {
            double acc = 0.0;
            const std::span<const float> krow =
                ws_.krows[static_cast<std::size_t>(p)];
            for (int j = 0; j < dh; ++j)
              acc += static_cast<double>(ws_.q.at(r, off + j)) *
                     krow[static_cast<std::size_t>(off + j)];
            scores[static_cast<std::size_t>(p)] =
                static_cast<float>(acc) * inv_sqrt;
          }
          nl.softmax(scores);
          for (int j = 0; j < dh; ++j) {
            double acc = 0.0;
            for (int p = 0; p < ctx; ++p)
              acc += static_cast<double>(scores[static_cast<std::size_t>(p)]) *
                     ws_.vrows[static_cast<std::size_t>(p)]
                             [static_cast<std::size_t>(off + j)];
            ws_.context.at(r, off + j) = static_cast<float>(acc);
          }
        }
      }
    }
    mm.matmul(ws_.context, h.wo, ws_.attn_out);
    const auto branch = static_cast<float>(cfg.residual_branch_scale);
    for (float& vv : ws_.attn_out.flat()) vv *= branch;
    add_inplace(ws_.x, ws_.attn_out);

    // --- MLP ---
    ws_.normed = ws_.x;
    rmsnorm_rows(ws_.normed, lw.mlp_norm_gain);
    mm.matmul(ws_.normed, h.w_gate, ws_.gate);
    mm.matmul(ws_.normed, h.w_up, ws_.up);
    for (int r = 0; r < batch; ++r) nl.silu(ws_.gate.row(r));
    const std::span<float> g = ws_.gate.flat();
    const std::span<const float> u = ws_.up.flat();
    for (std::size_t i = 0; i < g.size(); ++i) g[i] *= u[i];
    mm.matmul(ws_.gate, h.w_down, ws_.down);
    for (float& vv : ws_.down.flat()) vv *= branch;
    add_inplace(ws_.x, ws_.down);
  }

  // LM head. Default mode gathers each group's LAST row only: mid-chunk
  // prompt logits are never used (a prompt's intermediate next-token
  // distributions are discarded), so the vocab GEMM runs at M = groups,
  // not M = batch. With every count == 1 the gather copies the whole
  // batch in order, and each output row stays the same independent serial
  // accumulation — the pre-chunk step_batch result, bit for bit.
  // kAllRows keeps every row (the speculative verify window): only the
  // gather changes, so a row surfaced by both modes is the same floats
  // through the same final-norm + GEMM — bit-identical.
  if (mode == LogitsMode::kAllRows) {
    ws_.last.resize(batch, d);
    const std::span<const float> src = ws_.x.flat();
    const std::span<float> dst = ws_.last.flat();
    std::copy(src.begin(), src.end(), dst.begin());
  } else {
    ws_.last.resize(groups, d);
    for (int g = 0, r = 0; g < groups; ++g) {
      r += counts[static_cast<std::size_t>(g)] - 1;
      const std::span<const float> src = ws_.x.row(r);
      const std::span<float> dst = ws_.last.row(g);
      std::copy(src.begin(), src.end(), dst.begin());
      ++r;
    }
  }
  rmsnorm_rows(ws_.last, w.final_norm_gain);
  mm.matmul(ws_.last, model_.lm_head_handle(), logits_out);
  const float scale = model_.logit_scale();
  for (float& vv : logits_out.flat()) vv *= scale;
}

}  // namespace bbal::llm
