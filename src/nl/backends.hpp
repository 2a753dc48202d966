// llm::NonlinearBackend adapters for the nonlinear units compared in
// Tables IV and V: the BBFP/BFP LUT engine, the pseudo-softmax of [32]
// (Cardarilli et al.) and the base-2 high-precision unit of [33].
#pragma once

#include <memory>

#include "llm/backend.hpp"
#include "nl/engine.hpp"

namespace bbal::nl {

/// LUT-engine-backed nonlinear backend (softmax + SiLU through the unit).
class LutNonlinearBackend final : public llm::NonlinearBackend {
 public:
  /// quantise_softmax / quantise_silu let Table IV's "Softmax Only" /
  /// "SILU Only" rows route just one of the two through the unit.
  LutNonlinearBackend(quant::BlockFormat fmt, bool quantise_softmax = true,
                      bool quantise_silu = true);

  void softmax(std::span<float> xs) override;
  void silu(std::span<float> xs) override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] NlUnitEngine& engine() { return engine_; }

 private:
  NlUnitEngine engine_;
  bool quantise_softmax_;
  bool quantise_silu_;
};

/// [32]: pseudo-softmax — exponentials replaced by powers of two computed
/// with INT8 shifts: p_i = 2^(x_i - max) / sum_j 2^(x_j - max), with the
/// exponent truncated to integer-plus-fraction-bits precision. Cheap and
/// softmax-only (no SiLU support; SiLU stays on the FP32 default).
class PseudoSoftmaxBackend final : public llm::NonlinearBackend {
 public:
  explicit PseudoSoftmaxBackend(int fraction_bits = 3);
  void softmax(std::span<float> xs) override;
  [[nodiscard]] std::string name() const override { return "PseudoSoftmax"; }

 private:
  int fraction_bits_;
};

/// [33]: base-2 high-precision softmax — exact up to 27-bit fixed point;
/// numerically near-FP32 (the cost model, not the numerics, is what makes
/// it unattractive). Softmax-only (SiLU stays on the FP32 default).
class Base2SoftmaxBackend final : public llm::NonlinearBackend {
 public:
  explicit Base2SoftmaxBackend(int fixed_bits = 27);
  void softmax(std::span<float> xs) override;
  [[nodiscard]] std::string name() const override { return "Base2HighPrec"; }

 private:
  int fixed_bits_;
};

}  // namespace bbal::nl
