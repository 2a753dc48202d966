// Cycle-level simulator invariants and the iso-area machinery behind Fig. 8.
#include "accel/simulator.hpp"

#include <gtest/gtest.h>

#include "accel/gemm_executor.hpp"
#include "bbal/registry.hpp"
#include "common/rng.hpp"
#include "llm/backend.hpp"
#include "quant/strategy.hpp"

namespace bbal::accel {
namespace {

AcceleratorConfig base_config() {
  AcceleratorConfig cfg;
  cfg.strategy = "BBFP(4,2)";
  cfg.array_rows = 16;
  cfg.array_cols = 16;
  return cfg;
}

TEST(Simulator, CyclesLowerBoundedByComputeRoof) {
  const AcceleratorConfig cfg = base_config();
  const GemmShape g{256, 512, 512, "fc"};
  const GemmStats s = simulate_gemm(cfg, g);
  EXPECT_EQ(s.macs, 256ll * 512 * 512);
  // Cycles can never beat MACs / PEs.
  EXPECT_GE(s.cycles, static_cast<double>(s.macs) /
                          static_cast<double>(cfg.pe_count()));
  EXPECT_LE(s.utilization(cfg), 1.0);
  EXPECT_GT(s.utilization(cfg), 0.3);  // big square GEMM should run well
}

TEST(Simulator, GemvUtilizationIsPoor) {
  // Decode-phase GEMVs (M = 1) cannot fill a weight-stationary array.
  const AcceleratorConfig cfg = base_config();
  const GemmStats s = simulate_gemm(cfg, {1, 512, 512, "gemv"});
  EXPECT_LT(s.utilization(cfg), 0.2);
}

TEST(Simulator, MoreMacsMoreCycles) {
  const AcceleratorConfig cfg = base_config();
  const double c1 = simulate_gemm(cfg, {64, 256, 256, "a"}).cycles;
  const double c2 = simulate_gemm(cfg, {128, 256, 256, "b"}).cycles;
  EXPECT_GT(c2, c1);
}

TEST(Simulator, BiggerArrayFasterOnBigGemm) {
  AcceleratorConfig small = base_config();
  AcceleratorConfig big = base_config();
  big.array_rows = big.array_cols = 32;
  const GemmShape g{512, 1024, 1024, "fc"};
  EXPECT_LT(simulate_gemm(big, g).cycles, simulate_gemm(small, g).cycles);
}

TEST(Simulator, LowBitFormatsMoveFewerDramBytes) {
  AcceleratorConfig bfp6 = base_config();
  bfp6.strategy = "BFP6";
  AcceleratorConfig fp16 = base_config();
  fp16.strategy = "FP16";
  const GemmShape g{128, 512, 512, "fc"};
  EXPECT_LT(simulate_gemm(bfp6, g).dram_bytes,
            simulate_gemm(fp16, g).dram_bytes);
}

TEST(Simulator, BandwidthStarvedRunsAreMemoryBound) {
  AcceleratorConfig cfg = base_config();
  cfg.dram_gbps = 0.5;  // starve
  const GemmStats s = simulate_gemm(cfg, {4, 2048, 2048, "skinny"});
  EXPECT_GT(s.memory_cycles, s.compute_cycles);
  EXPECT_GE(s.cycles, s.memory_cycles);
}

TEST(Simulator, EnergyComponentsPositiveAndDramScalesWithBits) {
  const AcceleratorConfig cfg = base_config();
  const std::vector<GemmShape> w = {{128, 512, 512, "fc"}};
  const RunStats run = simulate_workload(cfg, w);
  EXPECT_GT(run.energy.core_j, 0.0);
  EXPECT_GT(run.energy.buffer_j, 0.0);
  EXPECT_GT(run.energy.dram_j, 0.0);
  EXPECT_GT(run.energy.static_j, 0.0);

  AcceleratorConfig fp16 = cfg;
  fp16.strategy = "FP16";
  const RunStats run16 = simulate_workload(fp16, w);
  EXPECT_GT(run16.energy.dram_j, run.energy.dram_j);
}

TEST(IsoArea, PeCountsScaleInverselyWithPeArea) {
  const double budget = 150000.0;  // um^2
  const AcceleratorConfig bfp4 = iso_area_config("BFP4", budget);
  const AcceleratorConfig bbfp31 = iso_area_config("BBFP(3,1)", budget);
  EXPECT_GT(bbfp31.pe_count(), bfp4.pe_count());
  // Both fit the budget.
  EXPECT_LE(bfp4.pe_array_area_um2(), budget * 1.02);
  EXPECT_LE(bbfp31.pe_array_area_um2(), budget * 1.02);
}

TEST(IsoArea, ReprovisioningAnArraysOwnAreaKeepsItsPeCount) {
  // An array's own PE area must buy back exactly its PE count: a self-
  // draft priced on an iso-area re-provisioning of the target's silicon
  // runs on the target's array, not one PE short of it.
  std::vector<std::string> strategies = table2_strategies();
  strategies.insert(strategies.end(), {"FP32", "INT8", "INT4", "BFP8"});
  int checked = 0;
  for (const std::string& name : strategies) {
    const quant::StrategySpec spec = quant::spec_of(name);
    if (!BackendRegistry::instance().has_cost_model(spec)) continue;
    const AcceleratorConfig cfg =
        make_iso_area_config(spec, 150000.0).expect("iso-area config");
    const AcceleratorConfig again =
        make_iso_area_config(spec, cfg.pe_array_area_um2())
            .expect("re-provisioned config");
    EXPECT_EQ(again.pe_count(), cfg.pe_count()) << name;
    EXPECT_EQ(again.array_rows, cfg.array_rows) << name;
    ++checked;
  }
  EXPECT_GE(checked, 8);
}

TEST(IsoArea, HeadlineClaim_Bbfp31FasterThanBfp4) {
  // Fig. 8: at iso PE area, BBFP(3,1) beats BFP4 on throughput (paper: 40%).
  const double budget = 150000.0;
  const std::vector<GemmShape> w = {{256, 1024, 1024, "fc"},
                                    {256, 1024, 2752, "mlp"}};
  const RunStats bfp4 = simulate_workload(iso_area_config("BFP4", budget), w);
  const RunStats bbfp31 =
      simulate_workload(iso_area_config("BBFP(3,1)", budget), w);
  EXPECT_GT(bbfp31.throughput_gops, bfp4.throughput_gops * 1.1);
}

TEST(Workload, DecodeStepShapes) {
  llm::ModelConfig cfg;
  cfg.d_model = 128;
  cfg.n_layers = 2;
  cfg.n_heads = 4;
  cfg.d_ff = 344;
  const auto gemms = decode_step_gemms(cfg, 1024);
  EXPECT_EQ(gemms.size(), 7u * 2u);
  // Attention terms scale with ctx.
  const auto g512 = decode_step_gemms(cfg, 512);
  EXPECT_GT(total_macs(gemms), total_macs(g512));
  const auto nl = decode_step_nl_ops(cfg, 1024);
  ASSERT_EQ(nl.size(), 2u);
  EXPECT_EQ(nl[0].width, 1024);
  EXPECT_EQ(nl[0].vectors, 4 * 2);
}

TEST(Workload, PrefillScalesQuadraticallyInAttention) {
  llm::ModelConfig cfg;
  cfg.d_model = 128;
  cfg.n_layers = 1;
  cfg.n_heads = 4;
  cfg.d_ff = 344;
  const auto a = total_macs(prefill_gemms(cfg, 256));
  const auto b = total_macs(prefill_gemms(cfg, 512));
  EXPECT_GT(static_cast<double>(b) / static_cast<double>(a), 2.0);
}

TEST(GemmExecutor, MatchesFakeQuantBackend) {
  // The golden integer-datapath GEMM equals the fast fake-quant executor.
  Rng rng(42);
  llm::Matrix a(5, 96), w(96, 7);
  for (float& v : a.flat())
    v = static_cast<float>(rng.heavy_tailed(1.0, 0.05, 20.0));
  for (float& v : w.flat())
    v = static_cast<float>(rng.heavy_tailed(0.2, 0.02, 15.0));

  const quant::BlockFormat fmt = quant::BlockFormat::bbfp(4, 2);
  const llm::Matrix golden = execute_gemm_bit_exact(a, w, fmt, fmt);

  llm::BlockQuantMatmulBackend backend(fmt, fmt);
  const int h = backend.prepare_weights(w, "w");
  llm::Matrix fast;
  backend.matmul(a, h, fast);

  ASSERT_EQ(golden.rows(), fast.rows());
  ASSERT_EQ(golden.cols(), fast.cols());
  for (int i = 0; i < golden.rows(); ++i)
    for (int j = 0; j < golden.cols(); ++j)
      EXPECT_NEAR(golden.at(i, j), fast.at(i, j),
                  1e-5 * (1.0 + std::fabs(golden.at(i, j))))
          << i << "," << j;
}

TEST(GemmExecutor, ExactWhenValuesOnGrid) {
  // Values representable in the format produce an exact GEMM.
  llm::Matrix a(2, 64), w(64, 3);
  for (int i = 0; i < 2; ++i)
    for (int k = 0; k < 64; ++k) a.at(i, k) = (k % 2 == 0) ? 1.0f : -0.5f;
  for (int k = 0; k < 64; ++k)
    for (int j = 0; j < 3; ++j) w.at(k, j) = (k + j) % 3 == 0 ? 2.0f : 0.25f;
  const quant::BlockFormat fmt = quant::BlockFormat::bbfp(6, 3);
  const llm::Matrix golden = execute_gemm_bit_exact(a, w, fmt, fmt);
  const llm::Matrix exact = llm::matmul(a, w);
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 3; ++j)
      EXPECT_FLOAT_EQ(golden.at(i, j), exact.at(i, j));
}

}  // namespace
}  // namespace bbal::accel
