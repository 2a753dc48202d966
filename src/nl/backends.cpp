#include "nl/backends.hpp"

#include <cmath>
#include <vector>

namespace bbal::nl {

// --- LutNonlinearBackend ----------------------------------------------------

LutNonlinearBackend::LutNonlinearBackend(quant::BlockFormat fmt,
                                         bool quantise_softmax,
                                         bool quantise_silu)
    : engine_(fmt),
      quantise_softmax_(quantise_softmax),
      quantise_silu_(quantise_silu) {}

void LutNonlinearBackend::softmax(std::span<float> xs) {
  if (quantise_softmax_) {
    engine_.softmax(xs);
  } else {
    NonlinearBackend::softmax(xs);
  }
}

void LutNonlinearBackend::silu(std::span<float> xs) {
  if (quantise_silu_) {
    engine_.silu(xs);
  } else {
    NonlinearBackend::silu(xs);
  }
}

std::string LutNonlinearBackend::name() const {
  std::string n = engine_.format().name();
  if (quantise_softmax_ && !quantise_silu_) n += " softmax-only";
  if (!quantise_softmax_ && quantise_silu_) n += " silu-only";
  return n;
}

// --- PseudoSoftmaxBackend ---------------------------------------------------

PseudoSoftmaxBackend::PseudoSoftmaxBackend(int fraction_bits)
    : fraction_bits_(fraction_bits) {}

void PseudoSoftmaxBackend::softmax(std::span<float> xs) {
  if (xs.empty()) return;
  float mx = xs[0];
  for (const float v : xs) mx = std::max(mx, v);
  // 2^(x log2 e) with the exponent truncated to `fraction_bits_` fractional
  // bits — realisable with integer adds and shifts (the INT8 datapath).
  const double log2e = 1.4426950408889634;
  const double grid = std::ldexp(1.0, -fraction_bits_);
  double sum = 0.0;
  std::vector<double> pows(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double ex = (static_cast<double>(xs[i]) - mx) * log2e;
    const double trunc = std::floor(ex / grid) * grid;
    pows[i] = trunc < -31.0 ? 0.0 : std::exp2(trunc);
    sum += pows[i];
  }
  if (sum <= 0.0) sum = 1.0;
  for (std::size_t i = 0; i < xs.size(); ++i)
    xs[i] = static_cast<float>(pows[i] / sum);
}

// --- Base2SoftmaxBackend ----------------------------------------------------

Base2SoftmaxBackend::Base2SoftmaxBackend(int fixed_bits)
    : fixed_bits_(fixed_bits) {}

void Base2SoftmaxBackend::softmax(std::span<float> xs) {
  if (xs.empty()) return;
  float mx = xs[0];
  for (const float v : xs) mx = std::max(mx, v);
  // Fixed-point base-2 path: x*log2(e) split into integer/fraction, the
  // fractional exponential evaluated to `fixed_bits_` precision.
  const double log2e = 1.4426950408889634;
  const double quantum = std::ldexp(1.0, -fixed_bits_);
  double sum = 0.0;
  std::vector<double> pows(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double ex = (static_cast<double>(xs[i]) - mx) * log2e;
    const double v = std::exp2(ex);
    pows[i] = std::floor(v / quantum) * quantum;  // 27-bit fixed point
    sum += pows[i];
  }
  if (sum <= 0.0) sum = 1.0;
  for (std::size_t i = 0; i < xs.size(); ++i)
    xs[i] = static_cast<float>(pows[i] / sum);
}

}  // namespace bbal::nl
