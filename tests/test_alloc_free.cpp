// Steady-state heap allocations of the decode step's kernels: once warm,
// block quantisation of an activation matrix, a pooled GEMM at one and four
// threads, the nonlinear unit's softmax and SiLU, a fused decoder step over
// KV pool pages, and pricing a serving tick on the accelerator model
// allocate nothing. The global operator new is replaced by a counting one,
// so this test is a binary of its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "accel/config.hpp"
#include "accel/simulator.hpp"
#include "accel/workload.hpp"
#include "bbal/registry.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "llm/decoder.hpp"
#include "llm/model.hpp"
#include "llm/tensor.hpp"
#include "nl/engine.hpp"
#include "quant/block.hpp"
#include "quant/strategy.hpp"
#include "serve/paged_kv.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// The array and nothrow forms default to these. All three stay out of
// line: inlined into a new-expression, their malloc() and free() read to
// GCC's -Wmismatched-new-delete as mismatched with delete and new.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace bbal {
namespace {

/// Heap allocations made while `fn` runs.
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  const std::uint64_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

std::vector<float> gaussian_row(std::size_t n, std::uint64_t seed,
                                double stddev) {
  Rng rng(seed);
  std::vector<float> xs(n);
  for (float& x : xs) x = static_cast<float>(rng.gaussian(0.0, stddev));
  return xs;
}

TEST(AllocFree, CountingAllocatorSeesAllocations) {
  // Guards the harness: a zero below must mean no allocation, not that
  // the replacement operator new is not the one in use.
  std::vector<float>* volatile sink = nullptr;
  EXPECT_GE(allocations_during([&] { sink = new std::vector<float>(8); }), 2u);
  delete sink;
}

TEST(AllocFree, BlockQuantiseOfFourActivationRows) {
  const std::vector<float> acts = gaussian_row(4 * 341, 1, 1.5);
  std::vector<float> q(acts.size());
  for (const quant::BlockFormat& fmt :
       {quant::BlockFormat::bbfp(4, 2), quant::BlockFormat::bfp(6),
        quant::BlockFormat::bbfp(6, 3)}) {
    const auto quantise_rows = [&] {
      for (std::size_t r = 0; r < 4; ++r)
        quant::quantise(std::span<const float>(acts).subspan(r * 341, 341),
                        fmt, std::span<float>(q).subspan(r * 341, 341));
    };
    quantise_rows();
    EXPECT_EQ(allocations_during(quantise_rows), 0u) << fmt.name();
  }
}

TEST(AllocFree, WarmPooledMatmulAllocatesNothing) {
  // 4 x 128 x 344 MACs is above the pool's inline cutoff, so the GEMM opens
  // a loop on the pool: at one thread the caller runs it alone, at four
  // workers join it. The loop lives in the caller's frame and takes the
  // tile body by reference. Workers join at different times, so the worst
  // of many calls is what must be 0.
  llm::Matrix a(4, 128), b(128, 344), c;
  const std::vector<float> acts = gaussian_row(a.size(), 4, 1.0);
  const std::vector<float> weights = gaussian_row(b.size(), 5, 0.1);
  std::copy(acts.begin(), acts.end(), a.flat().begin());
  std::copy(weights.begin(), weights.end(), b.flat().begin());
  const auto gemm = [&] { llm::matmul(a, b, c); };
  for (const int threads : {1, 4}) {
    common::ThreadPool::set_global_threads(threads);
    gemm();
    std::uint64_t worst = 0;
    for (int call = 0; call < 200; ++call)
      worst = std::max(worst, allocations_during(gemm));
    EXPECT_EQ(worst, 0u) << threads << " threads";
  }
  common::ThreadPool::set_global_threads(common::ThreadPool::env_threads());
}

TEST(AllocFree, NonlinearUnitSoftmaxAndSilu) {
  nl::NlUnitEngine engine(quant::BlockFormat::bbfp(10, 5));
  // Softmax at decode_long's longest context, SiLU at its FFN width.
  const std::vector<float> scores = gaussian_row(108, 2, 3.0);
  const std::vector<float> gate = gaussian_row(341, 3, 2.0);
  std::vector<float> xs;
  xs.reserve(gate.size());
  const auto softmax = [&] {
    xs.assign(scores.begin(), scores.end());
    engine.softmax(xs);
  };
  const auto silu = [&] {
    xs.assign(gate.begin(), gate.end());
    engine.silu(xs);
  };
  softmax();
  silu();
  EXPECT_EQ(allocations_during(softmax), 0u);
  EXPECT_EQ(allocations_during(silu), 0u);
}

TEST(AllocFree, WarmPagedStepAllocatesNothing) {
  // A BBFP(4,2) model over BBFP(4,2) pages of 4 positions. A leader
  // prefills a 9-token prompt and registers its two full pages.
  llm::ModelConfig config;
  config.vocab = 64;
  config.d_model = 32;
  config.n_layers = 2;
  config.n_heads = 2;
  config.d_ff = 48;
  const llm::TransformerWeights weights = llm::generate_weights(config);
  auto mm = BackendRegistry::instance().make_matmul("BBFP(4,2)").expect("mm");
  llm::Fp32NonlinearBackend nl;
  llm::Transformer model(config, weights, *mm, nl);
  llm::Decoder decoder(model);
  serve::PagedKVPool::Options options;
  options.page_tokens = 4;
  options.kv_format = quant::KvFormat::parse("BBFP(4,2)").expect("format");
  serve::PagedKVPool pool(config, options);
  const std::vector<int> prompt = {3, 1, 4, 1, 5, 9, 2, 6, 5};
  const auto leader = pool.create();
  ASSERT_TRUE(pool.reserve(leader, 9).is_ok());
  serve::PagedKVView leader_view(pool, leader);
  llm::Matrix logits;
  decoder.prefill_chunk(prompt, leader_view, logits);
  pool.register_prefix(leader, prompt);

  // One pass over two fresh sequences: a follower attached to the prefix
  // steps its last prompt token and two decode tokens into a page of its
  // own, beside a new sequence that prefills 3 tokens and decodes 2,
  // crossing into its second page. Pages are reserved and views built
  // before the counted window.
  const int prefill[] = {5, 7, 8, 9};
  const int prefill_counts[] = {1, 3};
  const int decode[][2] = {{10, 11}, {12, 13}};
  const int decode_counts[] = {1, 1};
  const auto pass = [&] {
    const auto follower = pool.create(prompt);
    const auto fresh = pool.create();
    EXPECT_EQ(pool.shared_length(follower), 8);
    EXPECT_TRUE(pool.reserve(follower, 3).is_ok());
    EXPECT_TRUE(pool.reserve(fresh, 5).is_ok());
    serve::PagedKVView follower_view(pool, follower);
    serve::PagedKVView fresh_view(pool, fresh);
    llm::KVCacheView* views[] = {&follower_view, &fresh_view};
    const std::uint64_t count = allocations_during([&] {
      decoder.step_groups(prefill, views, prefill_counts, logits);
      for (const auto& tokens : decode)
        decoder.step_groups(tokens, views, decode_counts, logits);
    });
    EXPECT_EQ(pool.length(follower), 11);
    EXPECT_EQ(pool.length(fresh), 5);
    pool.release(follower);
    pool.release(fresh);
    return count;
  };
  pass();  // warm: the decoder's workspace grows to this context
  EXPECT_EQ(pass(), 0u);
}

TEST(AllocFree, PricingAWarmTickAllocatesNothing) {
  // One decode tick of four in-flight requests, priced the way
  // serve::Engine prices it: the shapes go into a reused list, then the
  // whole list is simulated on the bound accelerator.
  const llm::ModelConfig model = llm::config_by_name("Llama-7B");
  const accel::AcceleratorConfig cfg =
      accel::make_iso_area_config(quant::spec_of("BBFP(4,2)"), 150000.0)
          .expect("iso-area config");
  std::vector<accel::GemmShape> tick;
  std::size_t last_flight = 0;
  double seconds = 0.0;
  double flight_seconds = 0.0;
  const auto fill = [&] {
    tick.clear();
    for (int row = 0; row < 4; ++row) {
      last_flight = tick.size();
      accel::prefill_chunk_gemms(model, /*base=*/40 + row, 1, tick);
    }
  };
  const auto price = [&] {
    seconds = accel::simulate_workload(cfg, tick).seconds;
  };
  // A resumed flight's recompute is priced on its slice of the tick.
  const auto price_flight = [&] {
    flight_seconds =
        accel::simulate_workload(cfg, std::span(tick).subspan(last_flight))
            .seconds;
  };
  fill();
  price();
  price_flight();
  EXPECT_EQ(allocations_during(fill), 0u);
  EXPECT_EQ(allocations_during(price), 0u);
  EXPECT_EQ(allocations_during(price_flight), 0u);
  EXPECT_GT(flight_seconds, 0.0);
  EXPECT_LT(flight_seconds, seconds);
}

}  // namespace
}  // namespace bbal
