#include "common/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace bbal {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (const double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (const double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size());
}

double max_abs(std::span<const double> xs) {
  double best = 0.0;
  for (const double x : xs) best = std::max(best, std::fabs(x));
  return best;
}

double mean_abs(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (const double x : xs) acc += std::fabs(x);
  return acc / static_cast<double>(xs.size());
}

double mse(std::span<const double> reference, std::span<const double> approx) {
  assert(reference.size() == approx.size());
  if (reference.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const double d = reference[i] - approx[i];
    acc += d * d;
  }
  return acc / static_cast<double>(reference.size());
}

std::vector<std::size_t> abs_histogram(std::span<const double> xs,
                                       double max_value, std::size_t bins) {
  assert(bins > 0 && max_value > 0.0);
  std::vector<std::size_t> counts(bins, 0);
  for (const double x : xs) {
    const double a = std::fabs(x);
    auto idx = static_cast<std::size_t>(a / max_value *
                                        static_cast<double>(bins));
    idx = std::min(idx, bins - 1);
    ++counts[idx];
  }
  return counts;
}

namespace {

/// Percentile of an already-materialised (unsorted) sample; sorts in place.
double percentile_of(std::vector<double>& values, double p) {
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace

double percentile(std::span<const double> xs, double p) {
  assert(p >= 0.0 && p <= 100.0);
  if (xs.empty()) return 0.0;
  std::vector<double> values(xs.begin(), xs.end());
  return percentile_of(values, p);
}

double abs_percentile(std::span<const double> xs, double p) {
  assert(p >= 0.0 && p <= 100.0);
  if (xs.empty()) return 0.0;
  std::vector<double> mags(xs.size());
  std::transform(xs.begin(), xs.end(), mags.begin(),
                 [](double v) { return std::fabs(v); });
  return percentile_of(mags, p);
}

}  // namespace bbal
