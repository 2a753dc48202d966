// The BBFP-based nonlinear computation unit (Section IV.B): exponent-
// segmented lookup tables addressed directly by aligned mantissas.
//
// Emulation model: the input vector is encoded block-wise in the configured
// format (BBFP(10,5) in the paper, BFP10 for the ablation). Each element's
// m-bit aligned mantissa supplies the LUT address (top `addr_bits` bits);
// the sub-table is selected by the block's shared exponent and the
// element's flag bit, so resolution is `step * 2^(m - addr_bits)` — for
// BFP10 that step is 2^(m-o) = 32x coarser than BBFP(10,5), which is the
// mechanism behind Table IV's blow-up.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/result.hpp"
#include "quant/block.hpp"

namespace bbal::nl {

/// LUT address width of the paper's unit: 7 bits, 128 entries a sub-table.
inline constexpr int kLutAddressBits = 7;

/// Scalar function identities the unit can compute (the Control Unit's
/// opcode space; "SILU and so on" in Table V).
enum class NlFunction { kSoftmax, kSilu, kGelu, kSigmoid, kExp };

/// Usage counters: LUT traffic and distinct sub-tables touched, for the
/// cost model and the segmented-loading story.
struct NlUsageStats {
  std::uint64_t lut_lookups = 0;
  std::uint64_t blocks_encoded = 0;
  std::uint64_t elements = 0;
  std::set<std::pair<int, bool>> subtables_touched;  // (shared exp, flag)
};

class NlUnitEngine {
 public:
  /// `fmt` must pass check_format (aborts otherwise); the paper uses
  /// BBFP(10,5) with 7-bit LUT addresses.
  explicit NlUnitEngine(quant::BlockFormat fmt,
                        int addr_bits = kLutAddressBits);

  /// Ok when `fmt` can feed `addr_bits`-bit LUT addresses: an address is
  /// the top addr_bits of an element's m-bit mantissa, so m >= addr_bits.
  [[nodiscard]] static Status check_format(const quant::BlockFormat& fmt,
                                           int addr_bits = kLutAddressBits);

  /// Numerically-stable softmax computed entirely through the unit's
  /// pipeline: max -> subtract -> exp LUT -> adder tree -> divide -> encode.
  void softmax(std::span<float> xs);

  /// SiLU via the sigmoid LUT and the Mul unit, in place, block-wise.
  void silu(std::span<float> xs);

  /// GELU (tanh-free formulation x * Phi(x)) via a Phi LUT.
  void gelu(std::span<float> xs);

  /// Plain sigmoid through the LUT path.
  void sigmoid(std::span<float> xs);

  /// Generic elementwise f through the LUT path on a fresh, empty table
  /// set (building block; exposed for error-bound tests).
  void apply_lut(std::span<const double> xs, std::span<double> out,
                 const std::function<double(double)>& f);

  [[nodiscard]] const NlUsageStats& stats() const { return stats_; }

  [[nodiscard]] const quant::BlockFormat& format() const { return fmt_; }
  [[nodiscard]] int addr_bits() const { return addr_bits_; }

  /// Sub-tables provisioned to cover input exponents [e_min, e_max]
  /// (x 2 if both signs are needed): the paper's 18 (softmax) / 24 (SiLU).
  [[nodiscard]] static int provisioned_subtables(int e_min, int e_max,
                                                 bool both_signs);

  /// Storage of one sub-table in bits (2^addr entries of sign+exp+mantissa).
  [[nodiscard]] std::size_t subtable_bits() const;

 private:
  /// One LUT entry, filled on first use.
  struct Entry {
    double value = 0.0;
    bool filled = false;
  };

  /// One function's table set: sub-tables of 2^addr_bits entries keyed by
  /// (shared exponent, flag, sign), plus the output for a zero mantissa.
  /// An entry is quantise_entry(f(x_mid)) at its bucket midpoint — a pure
  /// function of the key and address — so filling it on first use and
  /// reading it back afterwards is the same as computing it every time.
  struct LutTables {
    std::map<std::tuple<int, bool, bool>, std::vector<Entry>> subtables;
    Entry zero;
  };

  /// The LUT path over one block (all of `xs`): out[i] is the entry element
  /// i addresses; when `aligned` is non-empty, aligned[i] is the element's
  /// block-quantised value (the input the Mul unit scales).
  template <typename F>
  void lookup(std::span<const double> xs, std::span<double> out,
              std::span<double> aligned, LutTables& tables, const F& f);

  /// x * g(x) through the Mul unit, g read from `tables` (SiLU, GELU).
  template <typename F>
  void gated(std::span<float> xs, LutTables& tables, const F& g);

  /// Quantise a scalar LUT entry / output to the unit's mantissa precision.
  [[nodiscard]] double quantise_entry(double v) const;

  quant::BlockFormat fmt_;
  int addr_bits_;
  NlUsageStats stats_;
  LutTables exp_lut_;
  LutTables sigmoid_lut_;
  LutTables phi_lut_;
  // Per-call scratch, reused so a warm call allocates nothing.
  std::vector<double> in_;
  std::vector<double> lut_out_;
  std::vector<double> aligned_;
};

}  // namespace bbal::nl
