// bbal::Session — the single entry point for accuracy + cost co-simulation.
//
// One Session binds a model, a matmul strategy, a nonlinear strategy and
// (optionally) an accelerator configuration. evaluate() runs the quantised
// transformer over the model's evaluation stream, capturing the GEMM
// workload *as it executes*, then replays that workload on the cycle-level
// accelerator model — so the perplexity and the throughput/energy numbers
// of a Table II / Fig. 8 cell come from the same forward passes, with none
// of the per-bench glue the seed repeated 14 times.
//
//   auto model = bbal::prepare_shared("Llama-7B", /*eval_tokens=*/320);
//   auto session = bbal::Session::create({.prepared = model,
//                                         .matmul = "BBFP(4,2)",
//                                         .iso_area_um2 = 150000.0});
//   if (!session.is_ok()) { /* session.message() explains why */ }
//   auto report = session.value().evaluate().expect("evaluate");
//   // report.perplexity, .run.throughput_gops, .energy.total_j()
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "accel/config.hpp"
#include "accel/simulator.hpp"
#include "accel/workload.hpp"
#include "common/result.hpp"
#include "llm/perplexity.hpp"
#include "quant/strategy.hpp"

namespace bbal {

/// Build + calibrate a model once and share it across many Sessions (a
/// PreparedModel is by far the most expensive artefact of an evaluation).
[[nodiscard]] std::shared_ptr<const llm::PreparedModel> prepare_shared(
    const llm::ModelConfig& config, int eval_tokens = 512);
[[nodiscard]] std::shared_ptr<const llm::PreparedModel> prepare_shared(
    const std::string& zoo_name, int eval_tokens = 512);

class Session {
 public:
  /// Everything evaluate() produces. Accuracy fields are valid when
  /// has_accuracy, cost fields when has_cost.
  struct Report {
    std::string model;
    quant::StrategySpec matmul_strategy;
    quant::StrategySpec nonlinear_strategy;

    bool has_accuracy = false;
    double perplexity = 0.0;
    double fp32_perplexity = 0.0;  ///< calibrated baseline on the stream

    bool has_cost = false;
    accel::RunStats run;            ///< cycles, seconds, GOPS (+ energy)
    accel::EnergyBreakdown energy;  ///< run.energy, surfaced directly
    int accelerator_pes = 0;        ///< PE count of the attached accelerator
    double memory_footprint_bytes = 0.0;  ///< weights under the strategy

    std::size_t captured_gemms = 0;  ///< GEMMs recorded during eval
    std::int64_t captured_macs = 0;

    /// Flat JSON object (used by tools/record_table2 for BENCH_table2.json).
    [[nodiscard]] std::string to_json() const;
  };

  /// Everything a Session binds. Name the fields you set in a designated
  /// initializer; the rest keep their defaults.
  struct Options {
    /// The model: `prepared` (shared across sessions) if set, else
    /// `config`, else the zoo name `model`. The Session prepares
    /// (calibrates) a config or zoo model itself on its first accuracy
    /// run.
    std::string model{};
    std::optional<llm::ModelConfig> config{};
    std::shared_ptr<const llm::PreparedModel> prepared{};
    /// Evaluation stream length when the Session prepares its own model.
    int eval_tokens = 512;

    /// Strategy names (quant::StrategySpec::parse's grammar).
    std::string matmul = "FP32";
    std::string nonlinear = "FP32";

    /// An accelerator, its PE design rebound to the matmul strategy
    /// through accel::with_strategy (one strategy drives both halves)...
    std::optional<accel::AcceleratorConfig> accelerator{};
    /// ...or an iso-area one (Fig. 8's comparison rule), derived from the
    /// matmul strategy's PE design. Setting both is an error.
    std::optional<double> iso_area_um2{};
    double iso_dram_gbps = hw::kDramBandwidthGBs;

    /// A synthetic prefill or decode-step cost workload from the model
    /// config instead of the captured one; at most one of the two.
    std::optional<int> prefill_seq{};
    std::optional<int> decode_ctx{};
    /// Skip the perplexity run: cost only, on a synthetic workload.
    bool skip_accuracy = false;
  };

  /// Validate the combination and construct the Session. All errors
  /// (unknown model or strategy, missing capability, conflicting fields)
  /// surface here.
  [[nodiscard]] static Result<Session> create(Options options);

  /// Run the co-simulation. Deterministic and repeatable: backends are
  /// constructed fresh per call. The model is prepared (calibrated) lazily
  /// on the first accuracy evaluation — cost-only sessions never pay it.
  [[nodiscard]] Result<Report> evaluate();

  /// Force the lazy model preparation now and return the shared prepared
  /// model. Serving (serve::Engine::from_session) attaches here: the
  /// engine reuses the session's calibrated model, strategy pair and
  /// accelerator without running an evaluate(), then serves requests over
  /// its own paged KV pool (serve::PagedKVPool) — see docs/SERVING.md.
  /// Idempotent — repeat calls return the same model.
  [[nodiscard]] const std::shared_ptr<const llm::PreparedModel>& prepare();

  [[nodiscard]] const llm::ModelConfig& model_config() const {
    return config_;
  }
  /// Null until a prepared model is attached or an accuracy run happened.
  [[nodiscard]] const llm::PreparedModel* prepared_model() const {
    return prepared_.get();
  }
  [[nodiscard]] const quant::StrategySpec& matmul_strategy() const {
    return matmul_;
  }
  [[nodiscard]] const quant::StrategySpec& nonlinear_strategy() const {
    return nonlinear_;
  }
  [[nodiscard]] bool has_accelerator() const { return accel_.has_value(); }
  [[nodiscard]] const accel::AcceleratorConfig& accelerator() const {
    return *accel_;
  }
  /// GEMM workload captured by the most recent evaluate().
  [[nodiscard]] const std::vector<accel::GemmShape>& captured_workload()
      const {
    return captured_;
  }

 private:
  Session() = default;

  llm::ModelConfig config_;
  std::shared_ptr<const llm::PreparedModel> prepared_;
  int eval_tokens_ = 512;
  quant::StrategySpec matmul_;
  quant::StrategySpec nonlinear_;
  std::optional<accel::AcceleratorConfig> accel_;
  bool skip_accuracy_ = false;
  std::optional<std::vector<accel::GemmShape>> workload_override_;
  std::vector<accel::GemmShape> captured_;
};

}  // namespace bbal
