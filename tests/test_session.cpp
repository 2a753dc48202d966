// bbal::Session: builder validation, the one-call accuracy+cost
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

TEST(SessionBuilder, RejectsBadStrategies) {
  const auto bogus =
      Session::Builder().prepared(tiny_model()).matmul("bogus").build();
  EXPECT_FALSE(bogus.is_ok());
  EXPECT_FALSE(bogus.message().empty());

  // A nonlinear-only strategy cannot serve as the matmul backend.
  const auto wrong_kind = Session::Builder()
                              .prepared(tiny_model())
                              .matmul("PseudoSoftmax")
                              .build();
  EXPECT_FALSE(wrong_kind.is_ok());

  // ...and a matmul-only strategy cannot serve as the nonlinear backend.
  const auto wrong_nl = Session::Builder()
                            .prepared(tiny_model())
                            .nonlinear("BBFP(4,2)")
                            .build();
  EXPECT_FALSE(wrong_nl.is_ok());
}

TEST(SessionBuilder, RejectsMissingModelAndUselessCombos) {
  EXPECT_FALSE(Session::Builder().matmul("BBFP(4,2)").build().is_ok());

  // Unknown zoo names surface as build() errors naming the known models
  // (the seed's config_by_name silently fell back under NDEBUG).
  const auto unknown = Session::Builder().model("No-Such-Model").build();
  ASSERT_FALSE(unknown.is_ok());
  EXPECT_NE(unknown.message().find("No-Such-Model"), std::string::npos);
  EXPECT_NE(unknown.message().find("Llama-7B"), std::string::npos)
      << unknown.message();

  // skip_accuracy with no accelerator evaluates nothing.
  EXPECT_FALSE(Session::Builder()
                   .prepared(tiny_model())
                   .skip_accuracy()
                   .build()
                   .is_ok());

  // FP32 has no hardware cost model: attaching an accelerator is an error,
  // reported at build time.
  accel::AcceleratorConfig cfg;
  const auto r = Session::Builder()
                     .prepared(tiny_model())
                     .matmul("FP32")
                     .accelerator(cfg)
                     .build();
  EXPECT_FALSE(r.is_ok());
  EXPECT_NE(r.message().find("cost model"), std::string::npos)
      << r.message();
}

TEST(Session, OneCallMatchesUnderlyingPrimitives) {
  // The acceptance check: one evaluate() must reproduce both halves of a
  // Table II cell exactly as the layer-by-layer APIs compute them.
  accel::AcceleratorConfig cfg;
  cfg.array_rows = cfg.array_cols = 8;
  auto session = Session::Builder()
                     .prepared(tiny_model())
                     .matmul("BBFP(4,2)")
                     .accelerator(cfg)
                     .build();
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
  auto session = Session::Builder()
                     .prepared(tiny_model())
                     .matmul("BFP4")
                     .build()
                     .expect("build");
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
    auto session = Session::Builder()
                       .prepared(tiny_model())
                       .matmul(strategy)
                       .build()
                       .expect("build");
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
  auto session = Session::Builder()
                     .model(cfg)
                     .matmul("BBFP(4,2)")
                     .accelerator(acfg)
                     .skip_accuracy()
                     .workload_prefill(64)
                     .build()
                     .expect("build");
  const auto report = session.evaluate().expect("evaluate");
  EXPECT_EQ(session.prepared_model(), nullptr);
  EXPECT_FALSE(report.has_accuracy);
  ASSERT_TRUE(report.has_cost);
  EXPECT_GT(report.run.throughput_gops, 0.0);
  EXPECT_GT(report.memory_footprint_bytes, 0.0);
}

TEST(Session, ReportSerialisesToJson) {
  auto session = Session::Builder()
                     .prepared(tiny_model())
                     .matmul("BBFP(4,2)")
                     .build()
                     .expect("build");
  const std::string json =
      session.evaluate().expect("evaluate").to_json();
  EXPECT_NE(json.find("\"matmul\": \"BBFP(4,2)\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"perplexity\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"memory_footprint_bytes\""), std::string::npos)
      << json;
}

TEST(Session, EvaluateIsRepeatable) {
  auto session = Session::Builder()
                     .prepared(tiny_model())
                     .matmul("BBFP(4,2)")
                     .build()
                     .expect("build");
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
  for (const std::string& s : strategies) {
    SweepRunner::Item item;
    item.prepared = tiny_model();
    item.matmul = s;
    sweep.add(std::move(item));
  }
  const auto result = sweep.run();
  common::ThreadPool::set_global_threads(common::ThreadPool::env_threads());
  ASSERT_TRUE(result.all_ok()) << result.first_error();
  ASSERT_EQ(result.reports.size(), strategies.size());
  EXPECT_EQ(result.threads, 4);

  for (std::size_t i = 0; i < strategies.size(); ++i) {
    auto serial = Session::Builder()
                      .prepared(tiny_model())
                      .matmul(strategies[i])
                      .build()
                      .expect("serial build");
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
  SweepRunner::Item good;
  good.prepared = tiny_model();
  good.matmul = "BFP4";
  sweep.add(good);
  SweepRunner::Item bad;
  bad.prepared = tiny_model();
  bad.matmul = "no-such-strategy";
  sweep.add(bad);
  SweepRunner::Item bad_model;
  bad_model.model = "No-Such-Model";
  sweep.add(bad_model);
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
  // Four items on the same (tiny) model config: the cache must calibrate
  // once, and every report must see the same baseline.
  llm::ModelConfig cfg = tiny_model()->config;
  cfg.name = "sweep-shared";  // distinct cache key from other tests
  SweepRunner sweep;
  sweep.eval_tokens(96);
  for (const char* s : {"FP32", "BFP4", "BFP6", "BBFP(4,2)"}) {
    SweepRunner::Item item;
    item.config = cfg;
    item.matmul = s;
    sweep.add(std::move(item));
  }
  const auto result = sweep.run();
  ASSERT_TRUE(result.all_ok()) << result.first_error();
  EXPECT_EQ(result.models_prepared, 1);
  const double baseline = result.reports[0].value().fp32_perplexity;
  for (const auto& r : result.reports)
    EXPECT_DOUBLE_EQ(r.value().fp32_perplexity, baseline);
  // FP32 run on the shared preparation reproduces its own baseline.
  EXPECT_DOUBLE_EQ(result.reports[0].value().perplexity, baseline);
}

TEST(SessionReport, CarriesAcceleratorPeCount) {
  accel::AcceleratorConfig cfg;
  cfg.array_rows = 4;
  cfg.array_cols = 8;
  auto session = Session::Builder()
                     .prepared(tiny_model())
                     .matmul("BBFP(4,2)")
                     .accelerator(cfg)
                     .build()
                     .expect("build");
  const auto report = session.evaluate().expect("evaluate");
  EXPECT_EQ(report.accelerator_pes, 32);
  EXPECT_NE(report.to_json().find("\"accelerator_pes\": 32"),
            std::string::npos);
}

}  // namespace
}  // namespace bbal
