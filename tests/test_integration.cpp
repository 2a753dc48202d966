// End-to-end integration: the full stack (synthetic model -> quantised
// backends -> nonlinear units -> accelerator models) reproducing the
// paper's headline relationships on a small scale — now routed through
// the bbal::Session co-simulation API.
#include <gtest/gtest.h>

#include "bbal/session.hpp"
#include "nl/unit_cost.hpp"

namespace bbal {
namespace {

using namespace bbal::llm;

/// One shared prepared model for the whole suite (expensive to build).
std::shared_ptr<const PreparedModel> shared_model() {
  static const std::shared_ptr<const PreparedModel> prepared =
      prepare_shared("Llama-7B", /*eval_tokens=*/320);
  return prepared;
}

/// Perplexity of one strategy on the shared model, via a Session.
double session_ppl(const std::string& matmul,
                   const std::string& nonlinear = "FP32") {
  auto session = Session::create({.prepared = shared_model(),
                                  .matmul = matmul,
                                  .nonlinear = nonlinear})
                     .expect("create");
  return session.evaluate().expect("evaluate").perplexity;
}

TEST(Integration, BaselineCalibratedToPaperRow) {
  const PreparedModel& m = *shared_model();
  // Self-PPL vs logit scale has cliffs on short streams; the calibration
  // keeps the closest point, which can sit ~20% off on unlucky seeds.
  EXPECT_NEAR(m.fp32_ppl, m.config.fp_baseline_ppl,
              m.config.fp_baseline_ppl * 0.3);
}

TEST(Integration, WideBbfpTracksBaseline) {
  const double ppl = session_ppl("BBFP(6,4)");
  // Synthetic small models carry more relative error per layer than a
  // trained 7B; the paper-scale claim is checked as a trend in Table II.
  EXPECT_LT(ppl, shared_model()->fp32_ppl * 1.5);
}

TEST(Integration, AccuracyOrderingAcrossWidths) {
  const double b64 = session_ppl("BBFP(6,4)");
  const double b42 = session_ppl("BBFP(4,2)");
  const double bfp4 = session_ppl("BFP4");
  EXPECT_LE(b64, b42 * 1.05);  // wider mantissa at least as good
  // BBFP beats (or at worst matches) BFP at 4-bit width; the strict
  // per-column comparison holds on 11/12 Table II columns (bench_table2),
  // a single short stream carries sampling noise.
  EXPECT_LT(b42, bfp4 * 1.3);
}

TEST(Integration, BbfpBeatsOltronOnLlamaLikeModel) {
  // Fig. 8 / Table II: outlier budgets break on outlier-rich models.
  EXPECT_LT(session_ppl("BBFP(4,2)"), session_ppl("Oltron"));
}

TEST(Integration, OliveCatastrophic) {
  EXPECT_GT(session_ppl("Olive"), shared_model()->fp32_ppl * 5.0);
}

TEST(Integration, NonlinearBbfpSafeBfpWorse) {
  // Table IV setting: sharp-attention model (the regime where BFP10's
  // max alignment visibly hurts), linear layers FP32.
  static const std::shared_ptr<const PreparedModel> prepared =
      prepare_shared("Llama-7B-nl", 224);
  auto ppl_with_nl = [&](const std::string& nl) {
    auto session = Session::create({.prepared = prepared, .nonlinear = nl})
                       .expect("create");
    return session.evaluate().expect("evaluate").perplexity;
  };
  const double ppl_bbfp = ppl_with_nl("BBFP-LUT(10,5)");
  const double ppl_bfp = ppl_with_nl("BFP-LUT(10)");
  EXPECT_LT(ppl_bbfp, prepared->fp32_ppl * 1.10);
  EXPECT_GT(ppl_bfp, ppl_bbfp);
}

TEST(Integration, IsoAreaThroughputStory) {
  // The Fig. 8 compute story end to end on the accelerator model:
  // cost-only sessions, identical fixed prefill workload, iso PE area.
  auto throughput = [](const std::string& strategy) {
    auto session = Session::create({.prepared = shared_model(),
                                    .matmul = strategy,
                                    .iso_area_um2 = 120000.0,
                                    .iso_dram_gbps = 51.2,
                                    .prefill_seq = 512,
                                    .skip_accuracy = true})
                       .expect("create");
    return session.evaluate().expect("evaluate").run.throughput_gops;
  };
  EXPECT_GT(throughput("BBFP(3,1)"), throughput("BFP4") * 1.08);
}

TEST(Integration, EnergyStory) {
  // Fig. 9: same array, BBFP(3,x) no more expensive than BFP4; BBFP at
  // equal width within a modest premium of BFP.
  auto energy = [](const std::string& strategy) {
    accel::AcceleratorConfig cfg;
    cfg.array_rows = cfg.array_cols = 16;
    auto session = Session::create({.prepared = shared_model(),
                                    .matmul = strategy,
                                    .accelerator = cfg,
                                    .prefill_seq = 256,
                                    .skip_accuracy = true})
                       .expect("create");
    return session.evaluate().expect("evaluate").energy.total_j();
  };
  EXPECT_LT(energy("BBFP(3,1)"), energy("BFP4") * 1.02);
  EXPECT_LT(energy("BBFP(6,3)"), energy("BFP6") * 1.25);
}

TEST(Integration, NonlinearUnitCostStory) {
  // Table V ordering via the registry of unit cost models.
  EXPECT_GT(nl::bbal_nl_unit_cost(16).efficiency(),
            nl::base2_softmax_cost().efficiency() * 10.0);
  EXPECT_LT(nl::pseudo_softmax_cost().adp(),
            nl::bbal_nl_unit_cost(16).adp());
}

}  // namespace
}  // namespace bbal
