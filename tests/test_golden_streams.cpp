// Golden streams: the modelled PE datapath computes the same logits as the
// fast backend over whole forward passes, not just single GEMMs.
//
// accel::execute_gemm_bit_exact models the paper's compute path (Section
// IV): the input encoder, integer block dot products on the PE array, then
// FP accumulation across blocks. GoldenMatmul below runs every static GEMM
// of a model through it; attention's activation-activation products stay
// FP32, as under every strategy. The registry backend runs the fake-quant
// GEMM (llm::matmul over quantised operands). On the zoo Llama-7B, two
// runs must give the same logits bit for bit in each format below: the
// teacher-forced forward over the 64-token eval stream, and a paged
// step_groups tick in which one group prefills 5 rows while another
// decodes, with every row's logits surfaced.
//
// Precondition: every partial sum must be exact in double. The fast GEMM
// adds the per-element products in k order; the golden GEMM adds each
// block's products as an integer, then adds the block sums. Where every
// partial sum along k is exact in double, both hold the exact dot product
// and round it to float once, so they agree. Roughly, that holds when a
// row-column pair's exponent spread plus the block-sum width fits in 53
// bits. These models are inside it; a case outside it is not pinned here.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "accel/gemm_executor.hpp"
#include "bbal/registry.hpp"
#include "bbal/session.hpp"
#include "llm/decoder.hpp"
#include "quant/format.hpp"
#include "serve/paged_kv.hpp"

namespace bbal {
namespace {

/// Every static GEMM on the modelled PE array, in one block format for
/// weights and activations. Kept out of the registry: it keeps the FP32
/// weights and encodes them again on every call.
class GoldenMatmul final : public llm::MatmulBackend {
 public:
  explicit GoldenMatmul(quant::BlockFormat fmt) : fmt_(fmt) {}

  int prepare_weights(const llm::Matrix& w, const std::string&) override {
    weights_.push_back(w);
    return static_cast<int>(weights_.size()) - 1;
  }
  void matmul(const llm::Matrix& acts, int weight_handle,
              llm::Matrix& out) override {
    out = accel::execute_gemm_bit_exact(
        acts, weights_[static_cast<std::size_t>(weight_handle)], fmt_, fmt_);
  }
  void matmul_dynamic(const llm::Matrix& a, const llm::Matrix& b,
                      llm::Matrix& out) override {
    llm::matmul(a, b, out);
  }
  [[nodiscard]] std::int64_t weights_bytes() const override { return 0; }
  [[nodiscard]] std::string name() const override {
    return "golden " + fmt_.name();
  }

 private:
  quant::BlockFormat fmt_;
  std::vector<llm::Matrix> weights_;
};

const quant::BlockFormat kFormats[] = {
    quant::BlockFormat::bbfp(4, 2), quant::BlockFormat::bbfp(6, 3),
    quant::BlockFormat::bfp(6), quant::BlockFormat::bbfp(3, 1)};

std::shared_ptr<const llm::PreparedModel> llama_7b() {
  return prepare_shared("Llama-7B", /*eval_tokens=*/64);
}

/// The prepared model on one matmul backend, FP32 nonlinear units.
struct Model {
  Model(const llm::PreparedModel& prepared, llm::MatmulBackend& mm)
      : transformer(prepared.config, prepared.weights, mm, nl) {
    transformer.set_logit_scale(prepared.logit_scale);
  }
  llm::Fp32NonlinearBackend nl;
  llm::Transformer transformer;
};

/// Logits that differ from `expected` in any bit (shapes must match).
int differing(const llm::Matrix& expected, const llm::Matrix& got) {
  EXPECT_EQ(got.rows(), expected.rows());
  EXPECT_EQ(got.cols(), expected.cols());
  if (got.size() != expected.size()) return static_cast<int>(expected.size());
  int count = 0;
  for (std::size_t i = 0; i < expected.size(); ++i)
    if (std::bit_cast<std::uint32_t>(expected.flat()[i]) !=
        std::bit_cast<std::uint32_t>(got.flat()[i]))
      ++count;
  return count;
}

std::unique_ptr<llm::MatmulBackend> registry_backend(
    const quant::BlockFormat& fmt) {
  auto made = BackendRegistry::instance().make_matmul(fmt.name());
  return std::move(made).expect("registry backend");
}

TEST(GoldenStreams, ForwardLogitsMatchTheRegistryBackend) {
  const auto prepared = llama_7b();
  const std::span<const int> stream = prepared->eval_stream;
  ASSERT_EQ(stream.size(), 64u);
  for (const quant::BlockFormat& fmt : kFormats) {
    const auto fast = registry_backend(fmt);
    GoldenMatmul golden(fmt);
    const llm::Matrix expected =
        Model(*prepared, *fast).transformer.forward(stream);
    const llm::Matrix got = Model(*prepared, golden).transformer.forward(stream);
    EXPECT_EQ(differing(expected, got), 0)
        << fmt.name() << ": of " << expected.size() << " logits";
  }
}

/// Every row's logits from two step_groups calls over a paged pool of
/// 4-position pages: B prefills 7 prompt tokens alone, then one tick
/// prefills A's first 5 rows beside B's first decode row.
std::vector<llm::Matrix> mixed_tick_logits(const llm::PreparedModel& prepared,
                                           llm::MatmulBackend& mm) {
  Model model(prepared, mm);
  llm::Decoder decoder(model.transformer);
  serve::PagedKVPool::Options options;
  options.page_tokens = 4;
  serve::PagedKVPool pool(prepared.config, options);
  const auto a = pool.create();
  const auto b = pool.create();
  serve::PagedKVView view_a(pool, a);
  serve::PagedKVView view_b(pool, b);
  const std::span<const int> stream = prepared.eval_stream;
  constexpr auto kAllRows = llm::Decoder::LogitsMode::kAllRows;
  std::vector<llm::Matrix> logits(2);

  EXPECT_TRUE(pool.reserve(b, 7).is_ok());
  llm::KVCacheView* prefill_views[] = {&view_b};
  const int prefill_counts[] = {7};
  decoder.step_groups(stream.first(7), prefill_views, prefill_counts,
                      logits[0], kAllRows);

  EXPECT_TRUE(pool.reserve(a, 5).is_ok());
  EXPECT_TRUE(pool.reserve(b, 1).is_ok());
  std::vector<int> tokens(stream.begin() + 20, stream.begin() + 25);
  tokens.push_back(stream[7]);
  llm::KVCacheView* tick_views[] = {&view_a, &view_b};
  const int tick_counts[] = {5, 1};
  decoder.step_groups(tokens, tick_views, tick_counts, logits[1], kAllRows);
  EXPECT_EQ(pool.length(a), 5);
  EXPECT_EQ(pool.length(b), 8);
  return logits;
}

TEST(GoldenStreams, MixedTickLogitsMatchTheRegistryBackend) {
  const auto prepared = llama_7b();
  for (const quant::BlockFormat& fmt : kFormats) {
    const auto fast = registry_backend(fmt);
    GoldenMatmul golden(fmt);
    const std::vector<llm::Matrix> expected =
        mixed_tick_logits(*prepared, *fast);
    const std::vector<llm::Matrix> got = mixed_tick_logits(*prepared, golden);
    ASSERT_EQ(expected[0].rows(), 7);
    ASSERT_EQ(expected[1].rows(), 6);
    for (std::size_t call = 0; call < expected.size(); ++call)
      EXPECT_EQ(differing(expected[call], got[call]), 0)
          << fmt.name() << " call " << call << ": of "
          << expected[call].size() << " logits";
  }
}

}  // namespace
}  // namespace bbal
