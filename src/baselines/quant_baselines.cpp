#include "baselines/quant_baselines.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace bbal::baselines {

namespace {

/// Symmetric round-to-nearest onto a (2^(bits-1) - 1)-level grid.
float snap(float x, float scale, int bits) {
  if (scale <= 0.0f) return 0.0f;
  const auto qmax = static_cast<float>((1 << (bits - 1)) - 1);
  float q = std::nearbyint(x / scale);
  q = std::clamp(q, -qmax, qmax);
  return q * scale;
}

float absmax(std::span<const float> xs) {
  float m = 0.0f;
  for (const float v : xs) m = std::max(m, std::fabs(v));
  return m;
}

}  // namespace

// --- IntQuantBackend --------------------------------------------------------

IntQuantBackend::IntQuantBackend(int bits) : bits_(bits) { assert(bits >= 2); }

std::string IntQuantBackend::name() const {
  return "INT" + std::to_string(bits_);
}

void IntQuantBackend::quantise_vector(std::span<const float> in,
                                      std::span<float> out) const {
  assert(in.size() == out.size());
  const float scale = absmax(in) / static_cast<float>((1 << (bits_ - 1)) - 1);
  for (std::size_t i = 0; i < in.size(); ++i)
    out[i] = snap(in[i], scale, bits_);
}

// --- OltronBackend ----------------------------------------------------------

OltronBackend::OltronBackend(double outlier_budget, int group, int low_bits,
                             int high_bits)
    : outlier_budget_(outlier_budget),
      group_(group),
      low_bits_(low_bits),
      high_bits_(high_bits) {
  assert(outlier_budget >= 0.0 && outlier_budget <= 1.0);
}

void OltronBackend::quantise_vector(std::span<const float> in,
                                    std::span<float> out) const {
  assert(in.size() == out.size());
  const std::size_t g = static_cast<std::size_t>(group_);
  const std::size_t n_groups = (in.size() + g - 1) / g;

  // Rank groups by absmax; the top `budget` fraction get high precision.
  std::vector<std::pair<float, std::size_t>> ranked(n_groups);
  for (std::size_t gi = 0; gi < n_groups; ++gi) {
    const std::size_t start = gi * g;
    const std::size_t len = std::min(g, in.size() - start);
    ranked[gi] = {absmax(in.subspan(start, len)), gi};
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& x, const auto& y) { return x.first > y.first; });
  const auto n_high = static_cast<std::size_t>(
      std::ceil(outlier_budget_ * static_cast<double>(n_groups)));
  std::vector<bool> is_high(n_groups, false);
  for (std::size_t i = 0; i < std::min(n_high, n_groups); ++i)
    is_high[ranked[i].second] = true;

  for (std::size_t gi = 0; gi < n_groups; ++gi) {
    const std::size_t start = gi * g;
    const std::size_t len = std::min(g, in.size() - start);
    const int bits = is_high[gi] ? high_bits_ : low_bits_;
    const float scale = absmax(in.subspan(start, len)) /
                        static_cast<float>((1 << (bits - 1)) - 1);
    for (std::size_t i = start; i < start + len; ++i)
      out[i] = snap(in[i], scale, bits);
  }
}

// --- OliveBackend -----------------------------------------------------------

OliveBackend::OliveBackend(int bits, double bulk_percentile)
    : bits_(bits), bulk_percentile_(bulk_percentile) {}

void OliveBackend::quantise_vector(std::span<const float> in,
                                   std::span<float> out) const {
  assert(in.size() == out.size());
  if (in.empty()) return;

  // Bulk scale: percentile-based so ordinary values keep resolution.
  std::vector<float> mags(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) mags[i] = std::fabs(in[i]);
  std::sort(mags.begin(), mags.end());
  const auto idx = static_cast<std::size_t>(
      bulk_percentile_ / 100.0 * static_cast<double>(mags.size() - 1));
  const float qmax = static_cast<float>((1 << (bits_ - 1)) - 1);
  float scale = mags[idx] / qmax;
  if (scale <= 0.0f) scale = 1e-8f;
  const float grid_limit = qmax * scale;
  // Outliers borrow the victim's bits: range extends by 2^bits.
  const float extended_limit = grid_limit * static_cast<float>(1 << bits_);

  for (std::size_t i = 0; i < in.size(); ++i) out[i] = 0.0f;
  std::vector<bool> sacrificed(in.size(), false);

  for (std::size_t i = 0; i < in.size(); ++i) {
    if (sacrificed[i]) continue;  // this slot was zeroed by a neighbour
    const float x = in[i];
    if (std::fabs(x) <= grid_limit) {
      out[i] = snap(x, scale, bits_);
      continue;
    }
    // Outlier: try to sacrifice the pair neighbour (Olive pairs 2i/2i+1).
    const std::size_t buddy = (i % 2 == 0) ? i + 1 : i - 1;
    const bool buddy_ok = buddy < in.size() && !sacrificed[buddy] &&
                          std::fabs(in[buddy]) <= grid_limit;
    if (buddy_ok) {
      sacrificed[buddy] = true;
      out[buddy] = 0.0f;  // the victim
      const float coarse = scale * static_cast<float>(1 << bits_);
      float q = std::nearbyint(x / coarse);
      q = std::clamp(q, -qmax, qmax);
      out[i] = std::clamp(q * coarse, -extended_limit, extended_limit);
    } else {
      // No victim available: hard clip — Olive's failure mode.
      out[i] = std::copysign(grid_limit, x);
    }
  }
}

// --- OmniquantBackend -------------------------------------------------------

OmniquantBackend::OmniquantBackend(int weight_bits, int act_bits)
    : weight_bits_(weight_bits), act_bits_(act_bits) {}

void OmniquantBackend::quantise_channel_clip_search(std::span<const float> in,
                                                    std::span<float> out,
                                                    int bits) {
  assert(in.size() == out.size());
  const float mx = absmax(in);
  const float qmax = static_cast<float>((1 << (bits - 1)) - 1);
  float best_clip = mx;
  double best_mse = -1.0;
  for (const double ratio : {0.35, 0.5, 0.65, 0.8, 0.9, 1.0}) {
    const float clip = mx * static_cast<float>(ratio);
    const float scale = clip / qmax;
    double mse = 0.0;
    for (const float x : in) {
      const float q = snap(std::clamp(x, -clip, clip), scale, bits);
      const double d = static_cast<double>(x) - q;
      mse += d * d;
    }
    if (best_mse < 0.0 || mse < best_mse) {
      best_mse = mse;
      best_clip = clip;
    }
  }
  const float scale = best_clip / qmax;
  for (std::size_t i = 0; i < in.size(); ++i)
    out[i] = snap(std::clamp(in[i], -best_clip, best_clip), scale, bits);
}

void OmniquantBackend::quantise_activation_row(std::span<const float> in,
                                               std::span<float> out) const {
  assert(in.size() == out.size());
  if (in.empty()) return;
  // Learnable-equivalent-transformation emulation: migrate each channel's
  // outlier scale out of the row before quantisation and fold it back
  // afterwards (mathematically neutral, but the quantisation grid becomes
  // channel-aware — OmniQuant's LET). The statistic is the row's own
  // magnitudes against their median, so a token's grid never depends on
  // another token.
  const std::size_t n = in.size();
  std::vector<float> smooth(n);
  for (std::size_t c = 0; c < n; ++c) smooth[c] = std::fabs(in[c]);
  std::vector<float> sorted = smooth;
  const auto median = sorted.begin() + static_cast<std::ptrdiff_t>(n / 2);
  std::nth_element(sorted.begin(), median, sorted.end());
  const float typical = std::max(*median, 1e-6f);
  std::vector<float> scaled(n);
  for (std::size_t c = 0; c < n; ++c) {
    const float ratio = smooth[c] / typical;
    smooth[c] = ratio > 1.0f ? std::sqrt(ratio) : 1.0f;
    scaled[c] = in[c] / smooth[c];
  }
  quantise_channel_clip_search(scaled, out, act_bits_);
  // Fold the smoothing back (exact: only rescales the quantised grid).
  for (std::size_t c = 0; c < n; ++c) out[c] *= smooth[c];
}

}  // namespace bbal::baselines
