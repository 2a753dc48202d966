// Strong encode properties via exhaustive enumeration: for the Eq. (9)
// strategy the encoder behaves as round-to-nearest onto the format's
// representable grid (up to the documented top-of-window saturation), and
// the workload fusion flags are wired correctly.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "accel/simulator.hpp"
#include "accel/workload.hpp"
#include "quant/block.hpp"

namespace bbal::quant {
namespace {

/// All representable magnitudes of a BBFP(m,o) block with shared exponent
/// E_s: low group m' * 2^(E_s - m + 1), high group m' * 2^(E_s - m + 1 + d).
std::vector<double> representable_grid(const BlockFormat& fmt, int es) {
  std::set<double> grid;
  const int m = fmt.mantissa_bits;
  const int d = fmt.shift_distance();
  for (std::uint32_t mant = 0; mant < (1u << m); ++mant) {
    grid.insert(std::ldexp(static_cast<double>(mant), es - m + 1));
    if (fmt.is_bbfp())
      grid.insert(std::ldexp(static_cast<double>(mant), es - m + 1 + d));
  }
  return {grid.begin(), grid.end()};
}

double nearest(const std::vector<double>& grid, double x) {
  double best = grid.front();
  for (const double g : grid)
    if (std::fabs(g - x) < std::fabs(best - x)) best = g;
  return best;
}

class GridOptimality : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(GridOptimality, EncodeIsNearestGridValueForTwoElementBlocks) {
  // Fix the block max (which pins E_s) and sweep the second element over a
  // fine lattice: its decode must equal the nearest representable value
  // (ties and the top-of-window saturation get half-step slack).
  const auto [m, o] = GetParam();
  const BlockFormat fmt = BlockFormat::bbfp(m, o, 2);
  const double anchor = 1.75;  // e = 0 -> E_s = -(m - o) + 0
  const int es = 0 - fmt.shift_distance();
  const std::vector<double> grid = representable_grid(fmt, es);
  const double step_low = std::ldexp(1.0, es - m + 1);

  for (int i = 1; i <= 160; ++i) {
    const double x = static_cast<double>(i) / 160.0 * 1.6;
    const std::vector<double> block = {anchor, x};
    const EncodedBlock enc = encode_block(block, fmt);
    ASSERT_EQ(enc.shared_exponent, es) << "x=" << x;
    const double got = enc.decode(1);
    const double ideal = nearest(grid, x);
    // Nearest-grid up to one element step: FP16 pre-rounding (p = 11)
    // creates double-rounding ties that can land one step away from the
    // true nearest when the grid step approaches the source ulp (m = 8).
    const double d_lift = enc.elems[1].flag ? fmt.shift_distance() : 0;
    const double step_elem = std::ldexp(step_low, static_cast<int>(d_lift));
    EXPECT_NEAR(got, ideal, step_elem + 1e-12) << fmt.name() << " x=" << x;
    // Absolute accuracy: half a step in the bulk, a full step at window
    // boundaries (the sticky saturation just below a group's top code —
    // e.g. 0.49 in BBFP(3,1) rounds up to the unreachable code 8 and
    // saturates to 7), plus half a source ulp.
    EXPECT_LE(std::fabs(got - x),
              step_elem + std::ldexp(std::fabs(x) + 2.0, -12) + 1e-12)
        << fmt.name() << " x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, GridOptimality,
    ::testing::Values(std::pair{3, 1}, std::pair{4, 2}, std::pair{4, 3},
                      std::pair{6, 3}, std::pair{8, 4}),
    [](const ::testing::TestParamInfo<std::pair<int, int>>& info) {
      return "m" + std::to_string(info.param.first) + "o" +
             std::to_string(info.param.second);
    });

TEST(GridCoverage, BbfpGridStrictlyContainsBfpGrid) {
  // BBFP's representable set extends BFP's by the lifted high group.
  const BlockFormat bbfp = BlockFormat::bbfp(4, 2, 2);
  const BlockFormat bfp = BlockFormat::bfp(4, 2);
  const auto big = representable_grid(bbfp, 0);
  const auto small = representable_grid(bfp, 0);
  EXPECT_GT(big.size(), small.size());
  for (const double g : small)
    EXPECT_NE(std::find(big.begin(), big.end(), g), big.end()) << g;
}

}  // namespace
}  // namespace bbal::quant

namespace bbal::accel {
namespace {

TEST(WorkloadFusion, AttentionGemmsCarryFusionFlags) {
  llm::ModelConfig cfg;
  cfg.d_model = 64;
  cfg.n_layers = 1;
  cfg.n_heads = 2;
  cfg.d_ff = 96;
  for (const auto& gemms :
       {prefill_gemms(cfg, 64), decode_step_gemms(cfg, 64)}) {
    int fused_out = 0;
    int fused_act = 0;
    for (const GemmShape& g : gemms) {
      if (g.output_on_chip) {
        ++fused_out;
        EXPECT_EQ(g.tag, "attn_scores");
      }
      if (g.acts_on_chip) {
        ++fused_act;
        EXPECT_EQ(g.tag, "attn_context");
      }
    }
    EXPECT_EQ(fused_out, cfg.n_layers);
    EXPECT_EQ(fused_act, cfg.n_layers);
  }
}

TEST(WorkloadFusion, FusionRemovesDramTraffic) {
  const AcceleratorConfig cfg;  // the default BBFP(4,2) PE array
  GemmShape fused{256, 64, 256, "attn_scores", true, false};
  GemmShape unfused = fused;
  unfused.output_on_chip = false;
  EXPECT_LT(simulate_gemm(cfg, fused).dram_bytes,
            simulate_gemm(cfg, unfused).dram_bytes);
}

TEST(WorkloadFusion, NlOpsScaleWithContext) {
  llm::ModelConfig cfg;
  cfg.d_model = 64;
  cfg.n_layers = 2;
  cfg.n_heads = 2;
  cfg.d_ff = 96;
  const auto a = decode_step_nl_ops(cfg, 256);
  const auto b = decode_step_nl_ops(cfg, 1024);
  EXPECT_EQ(a[0].elements() * 4, b[0].elements());  // softmax scales w/ ctx
  EXPECT_EQ(a[1].elements(), b[1].elements());      // SiLU does not
}

}  // namespace
}  // namespace bbal::accel
