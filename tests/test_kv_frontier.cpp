// The KV-page accuracy/memory frontier (docs/KV_QUANT.md): what storing
// attention state in a quantised page format costs in model quality and
// what it saves in priced page bytes. Compute is FP32 throughout (weights,
// activations and nonlinearities exact), so every delta is the page
// codec's alone. Per storable format, through the paged serving datapath
// (Decoder::step over a PagedKVView) on Llama-1B with 96 eval tokens:
//  - KV-cached teacher-forced perplexity over the eval stream, scored
//    by llm::capped_nll exactly as Transformer::mean_nll scores it;
//  - the greedy continuation (serve::greedy_argmax) of the stream's first
//    12 tokens for 32 tokens, and where it first leaves the FP32-page one.
// The bounds and their measured headroom are tabulated in
// docs/KV_QUANT.md; they hold at these defaults only.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "bbal/registry.hpp"
#include "bbal/session.hpp"
#include "llm/decoder.hpp"
#include "serve/paged_kv.hpp"
#include "serve/workload.hpp"

namespace bbal {
namespace {

constexpr int kEvalTokens = 96;
constexpr int kPromptTokens = 12;
constexpr int kGreedyTokens = 32;

/// One cache layout's measurements.
struct Measured {
  double ppl = 0.0;
  std::vector<int> stream;  ///< greedy continuation of the eval prompt
};

/// Perplexity over `tokens` and the greedy continuation of its first
/// kPromptTokens, one decoder step per position. `new_sequence()` returns
/// a callable that feeds one token through a fresh cache and returns the
/// logits; each of the two passes gets its own.
template <typename NewSequence>
Measured measure(const std::vector<int>& tokens, NewSequence new_sequence) {
  Measured out;
  auto teacher = new_sequence();
  double nll = 0.0;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i)
    nll += llm::capped_nll(teacher(tokens[i]), tokens[i + 1]);
  out.ppl = std::exp(nll / static_cast<double>(tokens.size() - 1));

  auto greedy = new_sequence();
  std::vector<float> logits;
  for (int i = 0; i < kPromptTokens; ++i)
    logits = greedy(tokens[static_cast<std::size_t>(i)]);
  for (int i = 0; i < kGreedyTokens; ++i) {
    out.stream.push_back(serve::greedy_argmax(logits));
    if (i + 1 < kGreedyTokens) logits = greedy(out.stream.back());
  }
  return out;
}

/// A format's documented bounds against FP32 pages: the largest relative
/// perplexity delta and the fewest greedy tokens before the stream first
/// differs from the FP32-page stream.
struct Bound {
  const char* format;
  double max_ppl_delta;
  std::size_t min_first_divergence;
};

constexpr Bound kBounds[] = {
    {"INT8", 0.30, 6},
    {"BFP4", 6.00, 6},
    {"BBFP(4,2)", 1.00, 2},
    {"BBFP(6,3)", 0.06, 2},
};

/// FP32-compute decoding over the prepared model, shared by every test.
struct Frontier {
  Frontier()
      : prepared(prepare_shared("Llama-1B", kEvalTokens)),
        matmul(BackendRegistry::instance().make_matmul("FP32").expect("FP32")),
        model(prepared->config, prepared->weights, *matmul, nonlinear),
        decoder(model) {
    model.set_logit_scale(prepared->logit_scale);
  }

  /// The contiguous-cache reference run.
  Measured contiguous() {
    return measure(prepared->eval_stream, [this] {
      return [this, cache = decoder.make_cache()](int token) mutable {
        return decoder.step(token, cache);
      };
    });
  }

  /// A pool whose pages store rows in `format`.
  serve::PagedKVPool pool(const char* format) const {
    serve::PagedKVPool::Options options;
    options.kv_format = quant::KvFormat::parse(format).expect(format);
    return serve::PagedKVPool(prepared->config, options);
  }

  /// A run over pool pages in `format`.
  Measured paged(const char* format) {
    serve::PagedKVPool kv = pool(format);
    return measure(prepared->eval_stream, [this, &kv] {
      serve::PagedKVView view(kv, kv.create());
      return [this, &kv, view](int token) mutable {
        kv.reserve_next(view.sequence()).expect("KV page");
        return decoder.step(token, view);
      };
    });
  }

  std::shared_ptr<const llm::PreparedModel> prepared;
  std::unique_ptr<llm::MatmulBackend> matmul;
  llm::Fp32NonlinearBackend nonlinear;
  llm::Transformer model;
  llm::Decoder decoder;
};

Frontier& frontier() {
  static Frontier f;
  return f;
}

TEST(KvFrontier, Fp32PagesMatchTheContiguousCacheExactly) {
  const Measured reference = frontier().contiguous();
  const Measured fp32 = frontier().paged("FP32");
  // The same exp of the same sum: ==, not a tolerance.
  EXPECT_EQ(fp32.ppl, reference.ppl);
  EXPECT_EQ(fp32.stream, reference.stream);
}

TEST(KvFrontier, Bbfp42PagesPriceAtMostAQuarterOfFp32) {
  const std::int64_t fp32 = frontier().pool("FP32").page_bytes();
  const std::int64_t bbfp = frontier().pool("BBFP(4,2)").page_bytes();
  EXPECT_LE(bbfp * 4, fp32) << bbfp << " B against FP32's " << fp32 << " B";
}

TEST(KvFrontier, QuantisedPagesStayWithinTheirDocumentedBounds) {
  const Measured fp32 = frontier().paged("FP32");
  for (const Bound& bound : kBounds) {
    const Measured run = frontier().paged(bound.format);
    const double delta = std::fabs(run.ppl - fp32.ppl) / fp32.ppl;
    std::size_t first_divergence = 0;
    while (first_divergence < run.stream.size() &&
           run.stream[first_divergence] == fp32.stream[first_divergence])
      ++first_divergence;
    EXPECT_LE(delta, bound.max_ppl_delta) << bound.format << " " << run.ppl;
    EXPECT_GE(first_divergence, bound.min_first_divergence) << bound.format;
  }
}

}  // namespace
}  // namespace bbal
