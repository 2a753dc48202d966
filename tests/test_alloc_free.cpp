// Steady-state heap allocations of the decode step's kernels: once warm,
// block quantisation of an activation matrix and the nonlinear unit's
// softmax and SiLU allocate nothing. The global operator new is replaced
// by a counting one, so this test is a binary of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nl/engine.hpp"
#include "quant/block.hpp"

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

}  // namespace
}  // namespace bbal
