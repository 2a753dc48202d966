#include "bbal/registry.hpp"

#include <utility>

#include "baselines/quant_baselines.hpp"
#include "hw/datapath_designs.hpp"
#include "nl/backends.hpp"

namespace bbal {

using quant::StrategyFamily;
using quant::StrategySpec;

BackendRegistry& BackendRegistry::instance() {
  // Magic-static: initialisation is thread-safe (C++11); everything after
  // that is guarded by mutex_ (see the contract in registry.hpp).
  static BackendRegistry registry;
  return registry;
}

void BackendRegistry::register_family(StrategyFamily family,
                                      BackendCapabilities caps,
                                      MatmulFactory matmul,
                                      NonlinearFactory nonlinear) {
  std::lock_guard<std::mutex> lk(mutex_);
  for (auto& [f, entry] : entries_) {
    if (f == family) {
      entry = Entry{caps, std::move(matmul), std::move(nonlinear)};
      return;
    }
  }
  entries_.emplace_back(family,
                        Entry{caps, std::move(matmul), std::move(nonlinear)});
}

std::optional<BackendRegistry::Entry> BackendRegistry::find(
    StrategyFamily family) const {
  std::lock_guard<std::mutex> lk(mutex_);
  for (const auto& [f, entry] : entries_)
    if (f == family) return entry;
  return std::nullopt;
}

Result<std::unique_ptr<llm::MatmulBackend>> BackendRegistry::make_matmul(
    const StrategySpec& spec) const {
  using R = Result<std::unique_ptr<llm::MatmulBackend>>;
  const std::optional<Entry> entry = find(spec.family);
  if (!entry)
    return R::error("no backend registered for " + spec.to_string());
  if (!entry->matmul)
    return R::error(spec.to_string() +
                    " is not a matmul (linear-layer) strategy");
  // Invoked on the copied functor, outside the registry lock.
  return entry->matmul(spec);
}

Result<std::unique_ptr<llm::MatmulBackend>> BackendRegistry::make_matmul(
    std::string_view name) const {
  auto spec = StrategySpec::parse(name);
  if (!spec.is_ok())
    return Result<std::unique_ptr<llm::MatmulBackend>>::error(spec.message());
  return make_matmul(spec.value());
}

Result<std::unique_ptr<llm::NonlinearBackend>> BackendRegistry::make_nonlinear(
    const StrategySpec& spec) const {
  using R = Result<std::unique_ptr<llm::NonlinearBackend>>;
  const std::optional<Entry> entry = find(spec.family);
  if (!entry)
    return R::error("no backend registered for " + spec.to_string());
  if (!entry->nonlinear)
    return R::error(spec.to_string() + " is not a nonlinear strategy");
  return entry->nonlinear(spec);
}

Result<std::unique_ptr<llm::NonlinearBackend>> BackendRegistry::make_nonlinear(
    std::string_view name) const {
  auto spec = StrategySpec::parse(name);
  if (!spec.is_ok())
    return Result<std::unique_ptr<llm::NonlinearBackend>>::error(
        spec.message());
  return make_nonlinear(spec.value());
}

Result<BackendCapabilities> BackendRegistry::capabilities(
    const StrategySpec& spec) const {
  const std::optional<Entry> entry = find(spec.family);
  if (!entry)
    return Result<BackendCapabilities>::error("no backend registered for " +
                                              spec.to_string());
  return entry->caps;
}

bool BackendRegistry::has_cost_model(const StrategySpec& spec) const {
  return hw::pe_for_spec(spec).is_ok();
}

bool BackendRegistry::is_known(std::string_view name) const {
  const auto spec = StrategySpec::parse(name);
  return spec.is_ok() && find(spec.value().family).has_value();
}

// --- Built-in family registrations ------------------------------------------

namespace {

using MatmulPtr = std::unique_ptr<llm::MatmulBackend>;
using NonlinearPtr = std::unique_ptr<llm::NonlinearBackend>;
using MatmulR = Result<MatmulPtr>;
using NonlinearR = Result<NonlinearPtr>;

MatmulR make_int_matmul(const StrategySpec& spec) {
  return MatmulPtr(std::make_unique<baselines::IntQuantBackend>(spec.bits));
}

MatmulR make_block_matmul(const StrategySpec& spec) {
  auto fmt = spec.block_format();
  if (!fmt.is_ok()) return MatmulR::error(fmt.message());
  return MatmulPtr(llm::make_block_backend(fmt.value()));
}

NonlinearR make_lut_nonlinear(const StrategySpec& spec) {
  auto fmt = spec.block_format();
  if (!fmt.is_ok()) return NonlinearR::error(fmt.message());
  const Status fits = nl::NlUnitEngine::check_format(fmt.value());
  if (!fits.is_ok())
    return NonlinearR::error(spec.to_string() + ": " + fits.message());
  const bool do_softmax = spec.nl_scope != quant::NlScope::kSiluOnly;
  const bool do_silu = spec.nl_scope != quant::NlScope::kSoftmaxOnly;
  return NonlinearPtr(std::make_unique<nl::LutNonlinearBackend>(
      fmt.value(), do_softmax, do_silu));
}

/// A matmul strategy with no parameters: its default-constructed backend.
template <typename Backend>
MatmulR make_default_matmul(const StrategySpec&) {
  return MatmulPtr(std::make_unique<Backend>());
}

constexpr BackendCapabilities kMatmulOnly{.matmul = true};
constexpr BackendCapabilities kNonlinearOnly{.nonlinear = true};

// FP32 / FP16 (FP16 numerics are modelled as FP32, as in the seed): the
// reference backends, FP16 priced by the hw model, FP32 purely functional.
const BackendRegistrar kFp32(
    StrategyFamily::kFp32, {.matmul = true, .nonlinear = true},
    make_default_matmul<llm::Fp32MatmulBackend>,
    [](const StrategySpec&) -> NonlinearR {
      return NonlinearPtr(std::make_unique<llm::Fp32NonlinearBackend>());
    });

const BackendRegistrar kFp16(StrategyFamily::kFp16, kMatmulOnly,
                             make_default_matmul<llm::Fp32MatmulBackend>,
                             nullptr);

const BackendRegistrar kInt(StrategyFamily::kInt, kMatmulOnly, make_int_matmul,
                            nullptr);

const BackendRegistrar kBfp(StrategyFamily::kBfp, kMatmulOnly,
                            make_block_matmul, nullptr);

const BackendRegistrar kBbfp(StrategyFamily::kBbfp, kMatmulOnly,
                             make_block_matmul, nullptr);

const BackendRegistrar kOltron(StrategyFamily::kOltron, kMatmulOnly,
                               make_default_matmul<baselines::OltronBackend>,
                               nullptr);

const BackendRegistrar kOlive(StrategyFamily::kOlive, kMatmulOnly,
                              make_default_matmul<baselines::OliveBackend>,
                              nullptr);

// OmniQuant publishes no PE design (hw::pe_for_spec), so it has no cost
// model.
const BackendRegistrar kOmniquant(
    StrategyFamily::kOmniquant, kMatmulOnly,
    make_default_matmul<baselines::OmniquantBackend>, nullptr);

const BackendRegistrar kLutBbfp(StrategyFamily::kLutBbfp, kNonlinearOnly,
                                nullptr, make_lut_nonlinear);

const BackendRegistrar kLutBfp(StrategyFamily::kLutBfp, kNonlinearOnly,
                               nullptr, make_lut_nonlinear);

const BackendRegistrar kPseudoSoftmax(
    StrategyFamily::kPseudoSoftmax, kNonlinearOnly, nullptr,
    [](const StrategySpec& spec) -> NonlinearR {
      return NonlinearPtr(
          std::make_unique<nl::PseudoSoftmaxBackend>(spec.bits));
    });

const BackendRegistrar kBase2(
    StrategyFamily::kBase2Softmax, kNonlinearOnly, nullptr,
    [](const StrategySpec& spec) -> NonlinearR {
      return NonlinearPtr(std::make_unique<nl::Base2SoftmaxBackend>(spec.bits));
    });

}  // namespace

// --- Convenience free functions ---------------------------------------------

Result<std::unique_ptr<llm::MatmulBackend>> make_matmul_backend(
    std::string_view name) {
  return BackendRegistry::instance().make_matmul(name);
}

Result<std::unique_ptr<llm::NonlinearBackend>> make_nonlinear_backend(
    std::string_view name) {
  return BackendRegistry::instance().make_nonlinear(name);
}

std::vector<std::string> table2_strategies() {
  return {"FP16",      "Oltron",    "Olive",     "OmniQuant",
          "BFP6",      "BFP4",      "BBFP(3,1)", "BBFP(4,2)",
          "BBFP(4,3)", "BBFP(6,3)", "BBFP(6,4)"};
}

}  // namespace bbal
