// Small statistics helpers used by error-analysis experiments.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace bbal {

[[nodiscard]] double mean(std::span<const double> xs);
[[nodiscard]] double variance(std::span<const double> xs);  // population
[[nodiscard]] double max_abs(std::span<const double> xs);
[[nodiscard]] double mean_abs(std::span<const double> xs);

/// Mean squared error between a reference and an approximation.
[[nodiscard]] double mse(std::span<const double> reference,
                         std::span<const double> approx);

/// Fixed-width histogram over |x| in [0, max_value]; values above the range
/// land in the last bin. Returns per-bin counts.
[[nodiscard]] std::vector<std::size_t> abs_histogram(
    std::span<const double> xs, double max_value, std::size_t bins);

/// p-th percentile (p in [0,100]) of the values themselves, linear
/// interpolation between order statistics. Used for serving-latency
/// summaries (p50/p95/p99) where sign matters (latencies are positive but
/// uncentred); 0 for an empty span.
[[nodiscard]] double percentile(std::span<const double> xs, double p);

/// p-th percentile (p in [0,100]) of |x|, linear interpolation.
[[nodiscard]] double abs_percentile(std::span<const double> xs, double p);

}  // namespace bbal
