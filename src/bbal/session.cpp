#include "bbal/session.hpp"

#include <sstream>
#include <utility>

#include "bbal/registry.hpp"

namespace bbal {
namespace {

/// MatmulBackend decorator that records every GEMM it executes as a
/// GemmShape, so the accelerator model can replay exactly the workload the
/// accuracy run performed. Attention fusion flags follow the Fig. 7
/// convention used by accel::prefill_gemms: dynamic products alternate
/// score (outputs stay on chip, feeding the nonlinear unit) and context
/// (activations consumed straight from the unit's buffer) — the order our
/// transformer issues them in.
class CapturingMatmul final : public llm::MatmulBackend {
 public:
  explicit CapturingMatmul(std::unique_ptr<llm::MatmulBackend> inner)
      : inner_(std::move(inner)) {}

  int prepare_weights(const llm::Matrix& w, const std::string& tag) override {
    const int handle = inner_->prepare_weights(w, tag);
    if (handle >= static_cast<int>(weights_.size()))
      weights_.resize(static_cast<std::size_t>(handle) + 1);
    weights_[static_cast<std::size_t>(handle)] = {w.rows(), w.cols(), tag};
    weight_elements_ += static_cast<std::int64_t>(w.rows()) * w.cols();
    return handle;
  }

  void matmul(const llm::Matrix& acts, int weight_handle,
              llm::Matrix& out) override {
    const WeightInfo& w = weights_[static_cast<std::size_t>(weight_handle)];
    gemms_.push_back({acts.rows(), acts.cols(), w.cols, w.tag});
    inner_->matmul(acts, weight_handle, out);
  }

  void matmul_dynamic(const llm::Matrix& a, const llm::Matrix& b,
                      llm::Matrix& out) override {
    const bool is_score = (dynamic_calls_++ % 2) == 0;
    gemms_.push_back({a.rows(), a.cols(), b.cols(),
                      is_score ? "attn_scores" : "attn_context",
                      /*output_on_chip=*/is_score,
                      /*acts_on_chip=*/!is_score});
    inner_->matmul_dynamic(a, b, out);
  }

  [[nodiscard]] std::int64_t weights_bytes() const override {
    return inner_->weights_bytes();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] const std::vector<accel::GemmShape>& captured() const {
    return gemms_;
  }
  [[nodiscard]] std::int64_t weight_elements() const {
    return weight_elements_;
  }

 private:
  struct WeightInfo {
    std::int64_t rows = 0;
    std::int64_t cols = 0;
    std::string tag;
  };
  std::unique_ptr<llm::MatmulBackend> inner_;
  std::vector<WeightInfo> weights_;
  std::vector<accel::GemmShape> gemms_;
  std::int64_t weight_elements_ = 0;
  std::uint64_t dynamic_calls_ = 0;
};

/// Storage bits per weight element under a strategy: the PE design's
/// equivalent bits when a cost model exists, else full FP32 words.
double storage_bits_per_element(const quant::StrategySpec& spec) {
  const Result<hw::DatapathDesign> design = hw::pe_for_spec(spec);
  if (design.is_ok()) return design.value().equivalent_bits;
  return 32.0;
}

void append_json(std::ostringstream& os, const char* key, double v,
                 bool* first) {
  if (!*first) os << ", ";
  *first = false;
  os << '"' << key << "\": " << v;
}

}  // namespace

std::shared_ptr<const llm::PreparedModel> prepare_shared(
    const llm::ModelConfig& config, int eval_tokens) {
  return std::make_shared<const llm::PreparedModel>(
      llm::prepare_model(config, eval_tokens));
}

std::shared_ptr<const llm::PreparedModel> prepare_shared(
    const std::string& zoo_name, int eval_tokens) {
  return prepare_shared(llm::config_by_name(zoo_name), eval_tokens);
}

Result<Session> Session::create(Options options) {
  using R = Result<Session>;
  Session session;

  // Model: a shared prepared model wins; a config or zoo name defers the
  // (expensive) preparation until the first accuracy evaluation.
  if (options.prepared) {
    session.config_ = options.prepared->config;
    session.prepared_ = std::move(options.prepared);
  } else if (options.config) {
    session.config_ = std::move(*options.config);
  } else if (!options.model.empty()) {
    auto config = llm::find_config(options.model);
    if (!config.is_ok()) return R::error("model: " + config.message());
    session.config_ = std::move(config).value();
  } else {
    return R::error("no model: set model, config or prepared");
  }
  session.eval_tokens_ = options.eval_tokens;
  session.skip_accuracy_ = options.skip_accuracy;

  auto matmul = quant::StrategySpec::parse(options.matmul);
  if (!matmul.is_ok()) return R::error("matmul: " + matmul.message());
  session.matmul_ = matmul.value();
  auto nonlinear = quant::StrategySpec::parse(options.nonlinear);
  if (!nonlinear.is_ok()) return R::error("nonlinear: " + nonlinear.message());
  session.nonlinear_ = nonlinear.value();

  // Capability checks up front, so evaluate() cannot fail on lookups.
  const BackendRegistry& registry = BackendRegistry::instance();
  const auto caps = registry.capabilities(session.matmul_);
  if (!caps.is_ok()) return R::error("matmul: " + caps.message());
  if (!caps.value().matmul)
    return R::error("matmul: " + session.matmul_.to_string() +
                    " is not a linear-layer strategy");
  const auto nl_caps = registry.capabilities(session.nonlinear_);
  if (!nl_caps.is_ok()) return R::error("nonlinear: " + nl_caps.message());
  if (!nl_caps.value().nonlinear)
    return R::error("nonlinear: " + session.nonlinear_.to_string() +
                    " is not a nonlinear strategy");

  // Accelerator: bind the matmul strategy's PE design to the cost model.
  if (options.accelerator && options.iso_area_um2)
    return R::error("choose one of accelerator, iso_area_um2");
  const bool wants_accel = options.accelerator || options.iso_area_um2;
  if (wants_accel) {
    auto cfg = options.accelerator
                   ? accel::with_strategy(std::move(*options.accelerator),
                                          session.matmul_)
                   : accel::make_iso_area_config(session.matmul_,
                                                 *options.iso_area_um2,
                                                 options.iso_dram_gbps);
    if (!cfg.is_ok()) return R::error("accelerator: " + cfg.message());
    session.accel_ = std::move(cfg).value();
  }

  // Cost workload overrides.
  if (options.prefill_seq && options.decode_ctx)
    return R::error("choose one of prefill_seq, decode_ctx");
  if (options.prefill_seq) {
    session.workload_override_ =
        accel::prefill_gemms(session.config_, *options.prefill_seq);
  } else if (options.decode_ctx) {
    session.workload_override_ =
        accel::decode_step_gemms(session.config_, *options.decode_ctx);
  }

  if (options.skip_accuracy && !wants_accel)
    return R::error("nothing to do: skip_accuracy with no accelerator");
  if (options.skip_accuracy && !session.workload_override_)
    return R::error(
        "skip_accuracy needs an explicit workload (prefill_seq or "
        "decode_ctx)");

  return session;
}

// --- Session -----------------------------------------------------------------

const std::shared_ptr<const llm::PreparedModel>& Session::prepare() {
  if (!prepared_) prepared_ = prepare_shared(config_, eval_tokens_);
  return prepared_;
}

Result<Session::Report> Session::evaluate() {
  using R = Result<Report>;
  const BackendRegistry& registry = BackendRegistry::instance();

  Report report;
  report.model = config_.name;
  report.matmul_strategy = matmul_;
  report.nonlinear_strategy = nonlinear_;

  std::int64_t weight_elements = 0;
  captured_.clear();

  if (!skip_accuracy_) {
    (void)prepare();
    auto matmul_backend = registry.make_matmul(matmul_);
    if (!matmul_backend.is_ok()) return R::error(matmul_backend.message());
    auto nl_backend = registry.make_nonlinear(nonlinear_);
    if (!nl_backend.is_ok()) return R::error(nl_backend.message());

    CapturingMatmul capture(std::move(matmul_backend).value());
    report.perplexity =
        llm::evaluate_ppl(*prepared_, capture, *nl_backend.value());
    report.fp32_perplexity = prepared_->fp32_ppl;
    report.has_accuracy = true;

    captured_ = capture.captured();
    weight_elements = capture.weight_elements();
  }

  const std::vector<accel::GemmShape>& workload =
      workload_override_ ? *workload_override_ : captured_;
  report.captured_gemms = captured_.size();
  report.captured_macs = accel::total_macs(captured_);

  if (accel_) {
    report.run = accel::simulate_workload(*accel_, workload);
    report.energy = report.run.energy;
    report.accelerator_pes = accel_->pe_count();
    report.has_cost = true;
  }

  // Memory footprint of the registered weights under the strategy's
  // storage format (FP32 words when no hardware format exists).
  if (weight_elements == 0) {
    // Accuracy skipped: size the weights from the model config instead.
    const llm::ModelConfig& cfg = config_;
    const std::int64_t d = cfg.d_model;
    const std::int64_t ff = cfg.d_ff;
    weight_elements =
        cfg.n_layers * (4 * d * d + 3 * d * ff) +
        static_cast<std::int64_t>(cfg.vocab) * d;  // lm_head
  }
  report.memory_footprint_bytes =
      static_cast<double>(weight_elements) *
      storage_bits_per_element(matmul_) / 8.0;

  return report;
}

std::string Session::Report::to_json() const {
  std::ostringstream os;
  os.precision(6);
  os << "{\"model\": \"" << model << "\", \"matmul\": \""
     << matmul_strategy.to_string() << "\", \"nonlinear\": \""
     << nonlinear_strategy.to_string() << "\"";
  bool first = false;
  if (has_accuracy) {
    append_json(os, "perplexity", perplexity, &first);
    append_json(os, "fp32_perplexity", fp32_perplexity, &first);
  }
  if (has_cost) {
    append_json(os, "throughput_gops", run.throughput_gops, &first);
    append_json(os, "seconds", run.seconds, &first);
    append_json(os, "cycles", run.gemm.cycles, &first);
    append_json(os, "accelerator_pes", static_cast<double>(accelerator_pes),
                &first);
    append_json(os, "energy_j", energy.total_j(), &first);
    append_json(os, "energy_core_j", energy.core_j, &first);
    append_json(os, "energy_buffer_j", energy.buffer_j, &first);
    append_json(os, "energy_dram_j", energy.dram_j, &first);
    append_json(os, "energy_static_j", energy.static_j, &first);
  }
  append_json(os, "memory_footprint_bytes", memory_footprint_bytes, &first);
  append_json(os, "captured_gemms", static_cast<double>(captured_gemms),
              &first);
  append_json(os, "captured_macs", static_cast<double>(captured_macs),
              &first);
  os << "}";
  return os.str();
}

}  // namespace bbal
