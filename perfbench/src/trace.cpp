#include "trace.hpp"

#include <chrono>
#include <memory>
#include <utility>

#include "baselines/quant_baselines.hpp"
#include "bbal/registry.hpp"
#include "nl/backends.hpp"

namespace perfbench {

namespace {

using bbal::Result;
using bbal::quant::StrategyFamily;
using bbal::quant::StrategySpec;
using Clock = std::chrono::steady_clock;
using MatmulPtr = std::unique_ptr<bbal::llm::MatmulBackend>;
using NonlinearPtr = std::unique_ptr<bbal::llm::NonlinearBackend>;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct TraceState {
  TraceRecord record;
  bool decorating = false;
  bool record_ticks = false;
  // Tick reconstruction: the layer of the most recent weight GEMM (the
  // decoder runs softmax between a layer's QKV and output projections),
  // and the forward being assembled.
  int current_layer = -1;
  ObservedTick open_tick;
};

TraceState& state() {
  static TraceState s;
  return s;
}

/// Where a prepared weight sits: its projection class and layer.
struct WeightSlot {
  GemmKind kind = GemmKind::kQkv;
  int layer = -1;  ///< -1 for the LM head
  bool is_wq = false;
  bool is_wk = false;
};

/// Transformer tags weights "layer<l>.<name>" and the head "lm_head".
WeightSlot classify(const std::string& tag) {
  WeightSlot slot;
  if (tag == "lm_head") {
    slot.kind = GemmKind::kLmHead;
    return slot;
  }
  const std::size_t dot = tag.find('.');
  if (tag.rfind("layer", 0) == 0 && dot != std::string::npos)
    slot.layer = std::stoi(tag.substr(5, dot - 5));
  const std::string name = dot == std::string::npos ? tag : tag.substr(dot + 1);
  if (name == "wq" || name == "wk" || name == "wv") {
    slot.kind = GemmKind::kQkv;
    slot.is_wq = name == "wq";
    slot.is_wk = name == "wk";
  } else if (name == "wo") {
    slot.kind = GemmKind::kWo;
  } else {
    slot.kind = GemmKind::kFfn;  // gate, up, down
  }
  return slot;
}

void add(GemmBucket& bucket, double seconds, std::int64_t m, std::int64_t macs) {
  bucket.seconds += seconds;
  bucket.calls += 1;
  bucket.rows += m;
  bucket.macs += macs;
}

class TracedMatmul final : public bbal::llm::MatmulBackend {
 public:
  /// `block_format` names the activation format of a block-quantised
  /// backend ("" for every other family).
  TracedMatmul(MatmulPtr inner, std::string block_format)
      : inner_(std::move(inner)), block_format_(std::move(block_format)) {}

  int prepare_weights(const bbal::llm::Matrix& w,
                      const std::string& tag) override {
    const auto start = Clock::now();
    const int handle = inner_->prepare_weights(w, tag);
    TraceRecord& rec = state().record;
    rec.prepare_weights_s += seconds_since(start);
    if (handle >= static_cast<int>(slots_.size()))
      slots_.resize(static_cast<std::size_t>(handle) + 1);
    slots_[static_cast<std::size_t>(handle)] = classify(tag);
    return handle;
  }

  void matmul(const bbal::llm::Matrix& acts, int weight_handle,
              bbal::llm::Matrix& out) override {
    const auto start = Clock::now();
    inner_->matmul(acts, weight_handle, out);
    const double seconds = seconds_since(start);

    TraceState& s = state();
    TraceRecord& rec = s.record;
    const WeightSlot& slot = slots_[static_cast<std::size_t>(weight_handle)];
    const std::int64_t m = acts.rows();
    const std::int64_t macs = m * acts.cols() * out.cols();
    add(rec.gemm[static_cast<int>(slot.kind)], seconds, m, macs);
    add(m <= kSmallM ? rec.small_m : rec.large_m, seconds, m, macs);
    if (!block_format_.empty())
      rec.act_shapes[{block_format_, acts.rows(), acts.cols()}] += 1;
    if (slot.is_wk) rec.kv_rows += 2 * m;

    if (slot.is_wq && slot.layer == 0) s.open_tick = ObservedTick{};
    if (slot.layer >= 0) s.current_layer = slot.layer;
    if (slot.kind == GemmKind::kLmHead) {
      s.open_tick.groups = acts.rows();
      if (s.record_ticks) rec.ticks.push_back(std::move(s.open_tick));
      s.open_tick = ObservedTick{};
      s.current_layer = -1;
    }
  }

  void matmul_dynamic(const bbal::llm::Matrix& a, const bbal::llm::Matrix& b,
                      bbal::llm::Matrix& out) override {
    const auto start = Clock::now();
    inner_->matmul_dynamic(a, b, out);
    const std::int64_t m = a.rows();
    add(state().record.dynamic, seconds_since(start), m,
        m * a.cols() * b.cols());
  }

  [[nodiscard]] std::int64_t weights_bytes() const override {
    return inner_->weights_bytes();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  MatmulPtr inner_;
  std::string block_format_;
  std::vector<WeightSlot> slots_;  ///< by weight handle
};

class TracedNonlinear final : public bbal::llm::NonlinearBackend {
 public:
  explicit TracedNonlinear(NonlinearPtr inner) : inner_(std::move(inner)) {}

  void softmax(std::span<float> xs) override {
    const auto start = Clock::now();
    inner_->softmax(xs);
    TraceState& s = state();
    s.record.softmax_s += seconds_since(start);
    const int width = static_cast<int>(xs.size());
    s.record.nl_elements += width;
    s.record.softmax_widths[width] += 1;
    if (s.current_layer == 0) s.open_tick.row_contexts.push_back(width);
  }

  void silu(std::span<float> xs) override {
    const auto start = Clock::now();
    inner_->silu(xs);
    TraceRecord& rec = state().record;
    rec.silu_s += seconds_since(start);
    rec.nl_elements += static_cast<std::int64_t>(xs.size());
    rec.silu_widths[static_cast<int>(xs.size())] += 1;
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  NonlinearPtr inner_;
};

// The plain backends, built the way registry.cpp's built-in factories build
// them (the registry keeps its factories private, so they are restated).
Result<MatmulPtr> make_plain_matmul(const StrategySpec& spec) {
  switch (spec.family) {
    case StrategyFamily::kFp32:
    case StrategyFamily::kFp16:
      return MatmulPtr(std::make_unique<bbal::llm::Fp32MatmulBackend>());
    case StrategyFamily::kBfp:
    case StrategyFamily::kBbfp: {
      auto fmt = spec.block_format();
      if (!fmt.is_ok()) return Result<MatmulPtr>::error(fmt.message());
      return MatmulPtr(bbal::llm::make_block_backend(fmt.value()));
    }
    case StrategyFamily::kOltron:
      return MatmulPtr(std::make_unique<bbal::baselines::OltronBackend>());
    case StrategyFamily::kOlive:
      return MatmulPtr(std::make_unique<bbal::baselines::OliveBackend>());
    case StrategyFamily::kOmniquant:
      return MatmulPtr(std::make_unique<bbal::baselines::OmniquantBackend>());
    default:
      return Result<MatmulPtr>::error("perfbench: no traced matmul for " +
                                      spec.to_string());
  }
}

Result<NonlinearPtr> make_plain_nonlinear(const StrategySpec& spec) {
  if (spec.family == StrategyFamily::kFp32)
    return NonlinearPtr(std::make_unique<bbal::llm::Fp32NonlinearBackend>());
  auto fmt = spec.block_format();
  if (!fmt.is_ok()) return Result<NonlinearPtr>::error(fmt.message());
  const bool do_softmax = spec.nl_scope != bbal::quant::NlScope::kSiluOnly;
  const bool do_silu = spec.nl_scope != bbal::quant::NlScope::kSoftmaxOnly;
  return NonlinearPtr(std::make_unique<bbal::nl::LutNonlinearBackend>(
      fmt.value(), do_softmax, do_silu));
}

Result<MatmulPtr> traced_matmul(const StrategySpec& spec) {
  auto plain = make_plain_matmul(spec);
  if (!plain.is_ok() || !state().decorating) return plain;
  const bool block = spec.family == StrategyFamily::kBfp ||
                     spec.family == StrategyFamily::kBbfp;
  return MatmulPtr(std::make_unique<TracedMatmul>(
      std::move(plain).value(), block ? spec.to_string() : std::string()));
}

Result<NonlinearPtr> traced_nonlinear(const StrategySpec& spec) {
  auto plain = make_plain_nonlinear(spec);
  if (!plain.is_ok() || !state().decorating) return plain;
  return NonlinearPtr(
      std::make_unique<TracedNonlinear>(std::move(plain).value()));
}

}  // namespace

double TraceRecord::decorated_seconds() const {
  double total = dynamic.seconds + softmax_s + silu_s;
  for (const GemmBucket& b : gemm) total += b.seconds;
  return total;
}

void install_tracing_factories() {
  bbal::BackendRegistry& registry = bbal::BackendRegistry::instance();
  // One representative name per family: register_family is keyed by family,
  // and each family keeps the capabilities it was registered with.
  for (const char* name : {"FP32", "FP16", "BFP4", "BBFP(4,2)", "Oltron",
                           "Olive", "OmniQuant", "BBFP-LUT(10,5)"}) {
    const StrategySpec spec = StrategySpec::parse(name).expect(name);
    const bbal::BackendCapabilities caps =
        registry.capabilities(spec).expect(name);
    registry.register_family(
        spec.family, caps,
        caps.matmul ? bbal::BackendRegistry::MatmulFactory(traced_matmul)
                    : nullptr,
        caps.nonlinear
            ? bbal::BackendRegistry::NonlinearFactory(traced_nonlinear)
            : nullptr);
  }
}

void set_decorating(bool on) { state().decorating = on; }
void set_record_ticks(bool on) { state().record_ticks = on; }
TraceRecord& trace_record() { return state().record; }

}  // namespace perfbench
