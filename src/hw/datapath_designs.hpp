// Structural gate-level compositions of the MAC units and PEs evaluated in
// the paper (Tables I and III): FP16, INT-n, BFP-m, BBFP(m,o), plus the
// outlier-aware baseline PEs (Oltron, Olive) used in Figs. 8/9.
//
// Each design is a GateTally; hw::CellLibrary prices it. The INT8 32-lane
// MAC is the calibration anchor against Table I (9257 um^2).
#pragma once

#include <string>

#include "arith/gates.hpp"
#include "common/result.hpp"
#include "hw/tech.hpp"
#include "quant/strategy.hpp"

namespace bbal::hw {

/// A datapath built from `lanes` copies of `lane` plus block-shared logic.
struct DatapathDesign {
  std::string name;
  arith::GateTally lane;
  arith::GateTally shared;
  int lanes = 1;
  double equivalent_bits = 16.0;  ///< storage bits/element (Table I column)

  [[nodiscard]] arith::GateTally total() const {
    return lane * lanes + shared;
  }
  [[nodiscard]] double area_um2(const CellLibrary& lib) const {
    return lib.area_um2(total());
  }
  /// Energy of one MAC op in every lane plus the shared logic, fJ.
  [[nodiscard]] double mac_energy_fj(const CellLibrary& lib) const {
    return lib.dynamic_fj(total());
  }
  [[nodiscard]] double leakage_nw(const CellLibrary& lib) const {
    return lib.leakage_nw(total());
  }
};

// --- 32-lane MAC units (Table I) ------------------------------------------

[[nodiscard]] DatapathDesign fp16_mac(int lanes = 32);
[[nodiscard]] DatapathDesign int_mac(int bits, int lanes = 32);
[[nodiscard]] DatapathDesign bfp_mac(const quant::BlockFormat& fmt,
                                     int lanes = 32);
[[nodiscard]] DatapathDesign bbfp_mac(const quant::BlockFormat& fmt,
                                      int lanes = 32);

// --- Single-PE systolic cells (Table III) ----------------------------------

/// The paper's two PE flavours (Fig. 7): one carries a shared-exponent
/// adder, the other only a bypass path.
enum class PeVariant { kExponentAdder, kExponentBypass };

/// Defaults to the bypass variant: shared-exponent adders sit at the array
/// edge, most PEs only forward the exponent (Fig. 7's PE mix).
[[nodiscard]] DatapathDesign bfp_pe(
    const quant::BlockFormat& fmt,
    PeVariant variant = PeVariant::kExponentBypass);
[[nodiscard]] DatapathDesign bbfp_pe(
    const quant::BlockFormat& fmt,
    PeVariant variant = PeVariant::kExponentBypass);
[[nodiscard]] DatapathDesign int_pe(int bits);
[[nodiscard]] DatapathDesign fp16_pe();

/// Outlier-aware baseline PEs (behavioural emulations, see DESIGN.md):
/// Oltron: 3-bit core multiplier plus an outlier steering path.
[[nodiscard]] DatapathDesign oltron_pe();
/// Olive: 4-bit core plus outlier-victim pair encode/decode logic.
[[nodiscard]] DatapathDesign olive_pe();

/// PE design for a parsed strategy used in Table III / Fig. 8 rows.
/// Errors (instead of asserting) for strategies without a published PE
/// design (FP32, OmniQuant, nonlinear units).
[[nodiscard]] Result<DatapathDesign> pe_for_spec(
    const quant::StrategySpec& spec);

}  // namespace bbal::hw
