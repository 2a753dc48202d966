// bbal::Session: options validation, the one-call accuracy+cost
// co-simulation, and its consistency with the underlying primitives.
// Plus bbal::SweepRunner: parallel sweeps must reproduce serial
// Session::evaluate() bit for bit, in declaration order.
#include <gtest/gtest.h>

#include "accel/simulator.hpp"
#include "bbal/session.hpp"
#include "bbal/sweep.hpp"
#include "common/threadpool.hpp"
#include "llm/perplexity.hpp"

namespace bbal {
namespace {

/// Small, cheap model shared by the suite.
std::shared_ptr<const llm::PreparedModel> tiny_model() {
  static const std::shared_ptr<const llm::PreparedModel> prepared = [] {
    llm::ModelConfig cfg;
    cfg.name = "session-test";
    cfg.vocab = 96;
    cfg.d_model = 64;
    cfg.n_layers = 2;
    cfg.n_heads = 2;
    cfg.d_ff = 96;
    cfg.seed = 11;
    return prepare_shared(cfg, /*eval_tokens=*/96);
  }();
  return prepared;
}

TEST(SessionOptions, RejectsBadStrategies) {
  const auto bogus =
      Session::create({.prepared = tiny_model(), .matmul = "bogus"});
  EXPECT_FALSE(bogus.is_ok());
  EXPECT_FALSE(bogus.message().empty());

  // A nonlinear-only strategy cannot serve as the matmul backend.
  const auto wrong_kind =
      Session::create({.prepared = tiny_model(), .matmul = "PseudoSoftmax"});
  EXPECT_FALSE(wrong_kind.is_ok());

  // ...and a matmul-only strategy cannot serve as the nonlinear backend.
  const auto wrong_nl =
      Session::create({.prepared = tiny_model(), .nonlinear = "BBFP(4,2)"});
  EXPECT_FALSE(wrong_nl.is_ok());
}

TEST(SessionOptions, RejectsMissingModelAndUselessCombos) {
  EXPECT_FALSE(Session::create({.matmul = "BBFP(4,2)"}).is_ok());

  // Unknown zoo names surface as create() errors naming the known models
  // (the seed's config_by_name silently fell back under NDEBUG).
  const auto unknown = Session::create({.model = "No-Such-Model"});
  ASSERT_FALSE(unknown.is_ok());
  EXPECT_NE(unknown.message().find("No-Such-Model"), std::string::npos);
  EXPECT_NE(unknown.message().find("Llama-7B"), std::string::npos)
      << unknown.message();

  // skip_accuracy with no accelerator evaluates nothing.
  const auto nothing =
      Session::create({.prepared = tiny_model(), .skip_accuracy = true});
  EXPECT_FALSE(nothing.is_ok());

  // FP32 has no hardware cost model: attaching an accelerator is an error,
  // reported at create time.
  accel::AcceleratorConfig cfg;
  const auto r = Session::create(
      {.prepared = tiny_model(), .matmul = "FP32", .accelerator = cfg});
  EXPECT_FALSE(r.is_ok());
  EXPECT_NE(r.message().find("cost model"), std::string::npos)
      << r.message();
}

TEST(SessionOptions, RejectsConflictingFields) {
  accel::AcceleratorConfig cfg;
  // Two accelerators: a bound array and an iso-area one.
  const auto two_accels = Session::create({.prepared = tiny_model(),
                                           .matmul = "BBFP(4,2)",
                                           .accelerator = cfg,
                                           .iso_area_um2 = 150000.0});
  ASSERT_FALSE(two_accels.is_ok());
  EXPECT_NE(two_accels.message().find("iso_area_um2"), std::string::npos)
      << two_accels.message();

  // Two fixed workloads: a prefill and a decode step.
  const auto two_workloads = Session::create({.prepared = tiny_model(),
                                              .matmul = "BBFP(4,2)",
                                              .accelerator = cfg,
                                              .prefill_seq = 64,
                                              .decode_ctx = 64});
  ASSERT_FALSE(two_workloads.is_ok());
  EXPECT_NE(two_workloads.message().find("decode_ctx"), std::string::npos)
      << two_workloads.message();

  // Cost only with nothing fixed to price: the captured workload needs
  // the accuracy run that skip_accuracy skips.
  const auto no_workload = Session::create({.prepared = tiny_model(),
                                            .matmul = "BBFP(4,2)",
                                            .accelerator = cfg,
                                            .skip_accuracy = true});
  ASSERT_FALSE(no_workload.is_ok());
  EXPECT_NE(no_workload.message().find("workload"), std::string::npos)
      << no_workload.message();
}

TEST(Session, OneCallMatchesUnderlyingPrimitives) {
  // The acceptance check: one evaluate() must reproduce both halves of a
  // Table II cell exactly as the layer-by-layer APIs compute them.
  accel::AcceleratorConfig cfg;
  cfg.array_rows = cfg.array_cols = 8;
  auto session = Session::create(
      {.prepared = tiny_model(), .matmul = "BBFP(4,2)", .accelerator = cfg});
  ASSERT_TRUE(session.is_ok()) << session.message();
  const auto report = session.value().evaluate().expect("evaluate");

  ASSERT_TRUE(report.has_accuracy);
  ASSERT_TRUE(report.has_cost);

  // Accuracy half: identical to the direct block-format evaluation.
  const double direct_ppl = llm::evaluate_ppl_block_format(
      *tiny_model(), quant::BlockFormat::bbfp(4, 2));
  EXPECT_DOUBLE_EQ(report.perplexity, direct_ppl);

  // Cost half: identical to simulating the captured workload directly.
  const auto& workload = session.value().captured_workload();
  ASSERT_FALSE(workload.empty());
  const accel::AcceleratorConfig bound =
      accel::with_strategy(cfg, quant::spec_of("BBFP(4,2)")).expect("bind");
  const accel::RunStats direct = accel::simulate_workload(bound, workload);
  EXPECT_DOUBLE_EQ(report.run.throughput_gops, direct.throughput_gops);
  EXPECT_DOUBLE_EQ(report.energy.total_j(), direct.energy.total_j());
  EXPECT_GT(report.run.throughput_gops, 0.0);
}

TEST(Session, CapturedWorkloadMatchesModelShape) {
  auto session = Session::create({.prepared = tiny_model(), .matmul = "BFP4"})
                     .expect("create");
  const auto report = session.evaluate().expect("evaluate");

  // Teacher-forced pass over T tokens: per layer 7 weight GEMMs + 2
  // dynamic GEMMs per head, plus the LM head.
  const llm::ModelConfig& cfg = tiny_model()->config;
  const std::size_t expected =
      static_cast<std::size_t>(cfg.n_layers) * (7 + 2 * cfg.n_heads) + 1;
  EXPECT_EQ(report.captured_gemms, expected);
  EXPECT_GT(report.captured_macs, 0);

  // Score/context fusion flags alternate on the dynamic GEMMs.
  std::size_t scores = 0;
  std::size_t contexts = 0;
  for (const auto& g : session.captured_workload()) {
    if (g.tag == "attn_scores") {
      EXPECT_TRUE(g.output_on_chip);
      ++scores;
    } else if (g.tag == "attn_context") {
      EXPECT_TRUE(g.acts_on_chip);
      ++contexts;
    }
  }
  EXPECT_EQ(scores, contexts);
  EXPECT_EQ(scores,
            static_cast<std::size_t>(cfg.n_layers) * cfg.n_heads);
}

TEST(Session, MemoryFootprintTracksFormatWidth) {
  auto footprint = [](const char* strategy) {
    auto session =
        Session::create({.prepared = tiny_model(), .matmul = strategy})
            .expect("create");
    return session.evaluate().expect("evaluate").memory_footprint_bytes;
  };
  const double fp32 = footprint("FP32");
  const double bfp6 = footprint("BFP6");
  const double bfp4 = footprint("BFP4");
  EXPECT_GT(fp32, bfp6);
  EXPECT_GT(bfp6, bfp4);
}

TEST(Session, CostOnlySessionSkipsPreparation) {
  // A cost-only session must not calibrate the model (which would be the
  // dominant cost): its prepared_model() stays null after evaluate().
  llm::ModelConfig cfg = tiny_model()->config;
  accel::AcceleratorConfig acfg;
  acfg.array_rows = acfg.array_cols = 8;
  auto session = Session::create({.config = cfg,
                                  .matmul = "BBFP(4,2)",
                                  .accelerator = acfg,
                                  .prefill_seq = 64,
                                  .skip_accuracy = true})
                     .expect("create");
  const auto report = session.evaluate().expect("evaluate");
  EXPECT_EQ(session.prepared_model(), nullptr);
  EXPECT_FALSE(report.has_accuracy);
  ASSERT_TRUE(report.has_cost);
  EXPECT_GT(report.run.throughput_gops, 0.0);
  EXPECT_GT(report.memory_footprint_bytes, 0.0);
}

TEST(Session, ReportSerialisesToJson) {
  auto session =
      Session::create({.prepared = tiny_model(), .matmul = "BBFP(4,2)"})
          .expect("create");
  const std::string json =
      session.evaluate().expect("evaluate").to_json();
  EXPECT_NE(json.find("\"matmul\": \"BBFP(4,2)\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"perplexity\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"memory_footprint_bytes\""), std::string::npos)
      << json;
}

TEST(Session, EvaluateIsRepeatable) {
  auto session =
      Session::create({.prepared = tiny_model(), .matmul = "BBFP(4,2)"})
          .expect("create");
  const auto first = session.evaluate().expect("evaluate");
  const auto second = session.evaluate().expect("evaluate");
  EXPECT_DOUBLE_EQ(first.perplexity, second.perplexity);
  EXPECT_EQ(first.captured_gemms, second.captured_gemms);
}

TEST(SweepRunner, MatchesSerialSessionEvaluateInOrder) {
  // The engine's core guarantee: a parallel sweep returns, slot for slot,
  // exactly what serial Session::evaluate() calls produce.
  const std::vector<std::string> strategies = {"BBFP(4,2)", "BFP4", "FP32",
                                               "BBFP(6,3)"};
  common::ThreadPool::set_global_threads(4);
  SweepRunner sweep;
  for (const std::string& s : strategies)
    sweep.add({.prepared = tiny_model(), .matmul = s});
  const auto result = sweep.run();
  common::ThreadPool::set_global_threads(common::ThreadPool::env_threads());
  ASSERT_TRUE(result.all_ok()) << result.first_error();
  ASSERT_EQ(result.reports.size(), strategies.size());
  EXPECT_EQ(result.threads, 4);

  for (std::size_t i = 0; i < strategies.size(); ++i) {
    auto serial =
        Session::create({.prepared = tiny_model(), .matmul = strategies[i]})
            .expect("serial create");
    const auto expected = serial.evaluate().expect("serial evaluate");
    const Session::Report& got = result.reports[i].value();
    EXPECT_EQ(got.matmul_strategy.to_string(), strategies[i]);
    EXPECT_DOUBLE_EQ(got.perplexity, expected.perplexity);
    EXPECT_DOUBLE_EQ(got.fp32_perplexity, expected.fp32_perplexity);
    EXPECT_DOUBLE_EQ(got.memory_footprint_bytes,
                     expected.memory_footprint_bytes);
    EXPECT_EQ(got.captured_gemms, expected.captured_gemms);
    EXPECT_EQ(got.captured_macs, expected.captured_macs);
  }
}

TEST(SweepRunner, IsolatesFailingItems) {
  SweepRunner sweep;
  sweep.add({.prepared = tiny_model(), .matmul = "BFP4"});
  sweep.add({.prepared = tiny_model(), .matmul = "no-such-strategy"});
  sweep.add({.model = "No-Such-Model"});
  const auto result = sweep.run();
  ASSERT_EQ(result.reports.size(), 3u);
  EXPECT_TRUE(result.reports[0].is_ok()) << result.reports[0].message();
  EXPECT_FALSE(result.reports[1].is_ok());
  EXPECT_FALSE(result.reports[2].is_ok());
  EXPECT_NE(result.reports[2].message().find("No-Such-Model"),
            std::string::npos);
  EXPECT_FALSE(result.all_ok());
  EXPECT_FALSE(result.first_error().empty());
}

TEST(SweepRunner, SharesOnePreparationAcrossItems) {
  // Four items on the same (tiny) model config: the sweep must calibrate
  // once, and every report must see the same baseline.
  llm::ModelConfig cfg = tiny_model()->config;
  SweepRunner sweep;
  sweep.eval_tokens(96);
  for (const char* s : {"FP32", "BFP4", "BFP6", "BBFP(4,2)"})
    sweep.add({.config = cfg, .matmul = s});
  const auto result = sweep.run();
  ASSERT_TRUE(result.all_ok()) << result.first_error();
  EXPECT_EQ(result.models_prepared, 1);
  const double baseline = result.reports[0].value().fp32_perplexity;
  for (const auto& r : result.reports)
    EXPECT_DOUBLE_EQ(r.value().fp32_perplexity, baseline);
  // FP32 run on the shared preparation reproduces its own baseline.
  EXPECT_DOUBLE_EQ(result.reports[0].value().perplexity, baseline);
}

TEST(SweepRunner, PreparesEachDistinctConfigOnce) {
  // Configs a and b share a name and differ only in seed. The sweep
  // compares configs field by field, so each gets a model of its own,
  // prepared once however many items use it.
  const llm::ModelConfig a = tiny_model()->config;
  llm::ModelConfig b = a;
  b.seed = a.seed + 1;
  common::ThreadPool::set_global_threads(4);
  SweepRunner sweep;
  sweep.eval_tokens(96);
  for (const llm::ModelConfig& cfg : {a, b, a, b}) sweep.add({.config = cfg});
  const auto result = sweep.run();
  common::ThreadPool::set_global_threads(common::ThreadPool::env_threads());
  ASSERT_TRUE(result.all_ok()) << result.first_error();
  EXPECT_EQ(result.models_prepared, 2);
  const double ppl_a = prepare_shared(a, 96)->fp32_ppl;
  const double ppl_b = prepare_shared(b, 96)->fp32_ppl;
  for (std::size_t i = 0; i < result.reports.size(); ++i)
    EXPECT_DOUBLE_EQ(result.reports[i].value().fp32_perplexity,
                     i % 2 == 0 ? ppl_a : ppl_b)
        << "item " << i;
}

TEST(SessionReport, CarriesAcceleratorPeCount) {
  accel::AcceleratorConfig cfg;
  cfg.array_rows = 4;
  cfg.array_cols = 8;
  auto session = Session::create({.prepared = tiny_model(),
                                  .matmul = "BBFP(4,2)",
                                  .accelerator = cfg})
                     .expect("create");
  const auto report = session.evaluate().expect("evaluate");
  EXPECT_EQ(report.accelerator_pes, 32);
  EXPECT_NE(report.to_json().find("\"accelerator_pes\": 32"),
            std::string::npos);
}

}  // namespace
}  // namespace bbal
