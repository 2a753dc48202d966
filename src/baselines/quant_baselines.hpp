// Behavioural emulations of the quantisation baselines the paper compares
// against in Table II / Fig. 8: INT-k, Oltron (outlier budget), Olive
// (outlier-victim pairs) and OmniQuant (clip search). They reproduce each
// method's failure mode, not its exact published kernels. Each is a
// weight-column and an activation-row quantiser on
// llm::QuantisedMatmulBackend.
#pragma once

#include "llm/backend.hpp"

namespace bbal::baselines {

/// Symmetric INT-k fake-quant with absmax calibration: one scale per
/// weight column (output channel) and per activation row (token).
class IntQuantBackend final : public llm::QuantisedMatmulBackend {
 public:
  explicit IntQuantBackend(int bits);
  [[nodiscard]] std::string name() const override;

  /// Quantise one vector onto the symmetric grid its absmax sets.
  void quantise_vector(std::span<const float> in, std::span<float> out) const;

 protected:
  void quantise_weight_column(std::span<const float> in,
                              std::span<float> out) const override {
    quantise_vector(in, out);
  }
  void quantise_activation_row(std::span<const float> in,
                               std::span<float> out) const override {
    quantise_vector(in, out);
  }

 private:
  int bits_;
};

/// Oltron: group-wise low-bit quantisation (3-bit magnitude grid) with a
/// fixed budget of groups promoted to 8 bits — chosen per vector by group
/// absmax. Works when outliers fit the budget (OPT-like), degrades when
/// they do not (Llama-like): the paper's Fig. 8 discussion.
class OltronBackend final : public llm::QuantisedMatmulBackend {
 public:
  explicit OltronBackend(double outlier_budget = 0.03, int group = 32,
                         int low_bits = 4, int high_bits = 8);
  [[nodiscard]] std::string name() const override { return "Oltron"; }

  /// Quantise a contiguous vector in `group`-sized chunks with the budget
  /// rule.
  void quantise_vector(std::span<const float> in, std::span<float> out) const;

 protected:
  void quantise_weight_column(std::span<const float> in,
                              std::span<float> out) const override {
    quantise_vector(in, out);
  }
  void quantise_activation_row(std::span<const float> in,
                               std::span<float> out) const override {
    quantise_vector(in, out);
  }

 private:
  double outlier_budget_;
  int group_;
  int low_bits_;
  int high_bits_;
};

/// Olive: outlier-victim pair quantisation. The grid is scaled for the bulk
/// (percentile-based); a value beyond the grid steals its neighbour's slot
/// (the victim is zeroed) to gain range. When outliers collide or exceed
/// even the extended range they clip — the blow-up Table II shows.
class OliveBackend final : public llm::QuantisedMatmulBackend {
 public:
  explicit OliveBackend(int bits = 4, double bulk_percentile = 92.0);
  [[nodiscard]] std::string name() const override { return "Olive"; }

  void quantise_vector(std::span<const float> in, std::span<float> out) const;

 protected:
  void quantise_weight_column(std::span<const float> in,
                              std::span<float> out) const override {
    quantise_vector(in, out);
  }
  void quantise_activation_row(std::span<const float> in,
                               std::span<float> out) const override {
    quantise_vector(in, out);
  }

 private:
  int bits_;
  double bulk_percentile_;
};

/// OmniQuant: INT4 weights with per-channel clip-ratio search (MSE-optimal
/// over a grid — the PTQ analogue of its learnable clipping), INT6
/// per-token activations behind a smoothing (LET) step.
class OmniquantBackend final : public llm::QuantisedMatmulBackend {
 public:
  explicit OmniquantBackend(int weight_bits = 4, int act_bits = 6);
  [[nodiscard]] std::string name() const override { return "OmniQuant"; }

  /// Clip-search quantisation of one channel (exposed for tests).
  static void quantise_channel_clip_search(std::span<const float> in,
                                           std::span<float> out, int bits);

 protected:
  void quantise_weight_column(std::span<const float> in,
                              std::span<float> out) const override {
    quantise_channel_clip_search(in, out, weight_bits_);
  }
  void quantise_activation_row(std::span<const float> in,
                               std::span<float> out) const override;

 private:
  int weight_bits_;
  int act_bits_;
};

}  // namespace bbal::baselines
