#include "hw/datapath_designs.hpp"

#include <cassert>

#include "common/bitutils.hpp"

namespace bbal::hw {

using arith::GateTally;
using quant::BlockFormat;

namespace {

/// Flag-combination logic of Fig. 5(a): XOR of signs, AND/OR of flags and
/// the 2-bit output-flag encoder.
GateTally flag_logic() {
  GateTally t;
  t.xor2 = 1;  // sign
  t.and2 = 1;  // flag1 & flag2
  t.or2 = 1;   // flag1 | flag2
  return t;
}

/// Accumulator guard bits for a 32-deep block reduction in a MAC lane.
constexpr int kMacGuardBits = 4;
/// Guard bits for the short in-array accumulation of a systolic PE.
constexpr int kPeGuardBits = 2;

}  // namespace

DatapathDesign int_mac(int bits, int lanes) {
  assert(bits >= 2 && lanes >= 1);
  DatapathDesign d;
  d.name = "INT" + std::to_string(bits);
  d.lanes = lanes;
  d.equivalent_bits = bits;
  const int acc = 2 * bits + kMacGuardBits;
  d.lane += arith::array_multiplier(bits, bits);
  d.lane += arith::ripple_adder(acc);
  d.lane += arith::register_bank(acc);
  return d;
}

DatapathDesign fp16_mac(int lanes) {
  DatapathDesign d;
  d.name = "FP16";
  d.lanes = lanes;
  d.equivalent_bits = 16.0;
  // Mantissa multiplier (11x11 incl. implicit ones).
  d.lane += arith::array_multiplier(11, 11);
  // Exponent path: two adders plus a comparator for the accumulate align.
  d.lane += arith::ripple_adder(8);
  d.lane += arith::ripple_adder(8);
  d.lane += arith::comparator(8);
  // Product normalisation: LOD + shifter + round increment.
  d.lane += arith::leading_one_detector(22);
  d.lane += arith::barrel_shifter(22, 22);
  d.lane += arith::ripple_adder(11);
  // FP32-width accumulation: align shifter, 28-bit add, renormalise, round.
  d.lane += arith::barrel_shifter(28, 28);
  d.lane += arith::ripple_adder(28);
  d.lane += arith::leading_one_detector(28);
  d.lane += arith::barrel_shifter(28, 28);
  d.lane += arith::ripple_adder(24);
  // Pipeline + accumulator registers (unpack, stage, 32-bit result).
  d.lane += arith::register_bank(36);
  d.lane += arith::register_bank(32);
  return d;
}

DatapathDesign bfp_mac(const BlockFormat& fmt, int lanes) {
  assert(!fmt.is_bbfp());
  DatapathDesign d;
  d.name = fmt.name();
  d.lanes = lanes;
  d.equivalent_bits = fmt.equivalent_bits();
  const int m = fmt.mantissa_bits;
  const int acc = 2 * m + kMacGuardBits;
  d.lane += arith::array_multiplier(m, m);
  d.lane.xor2 += 1;  // sign
  d.lane += arith::ripple_adder(acc);
  d.lane += arith::register_bank(acc);
  // Shared exponent adder, once per block of lanes.
  d.shared += arith::ripple_adder(fmt.exponent_bits);
  d.shared += arith::register_bank(fmt.exponent_bits + 1);
  return d;
}

DatapathDesign bbfp_mac(const BlockFormat& fmt, int lanes) {
  assert(fmt.is_bbfp());
  DatapathDesign d;
  d.name = fmt.name();
  d.lanes = lanes;
  d.equivalent_bits = fmt.equivalent_bits();
  const int m = fmt.mantissa_bits;
  const int dd = fmt.shift_distance();
  d.lane += arith::array_multiplier(m, m);
  d.lane += flag_logic();
  // Carry-chain placement mux (Fig. 5(b)) — small, spans the chain field.
  d.lane += arith::mux_bank(2 * dd + 2);
  // Sparse partial-sum adder: FAs on the 2m significant bits (+ guard),
  // carry-chain cells on the 2d structurally-zero positions.
  d.lane += arith::ripple_adder(2 * m + kMacGuardBits);
  d.lane += arith::carry_chain(2 * dd);
  // Accumulator register: compacted product (2m + 2-bit flag) + guard.
  d.lane += arith::register_bank(2 * m + 2 + kMacGuardBits);
  d.shared += arith::ripple_adder(fmt.exponent_bits);
  d.shared += arith::register_bank(fmt.exponent_bits + 1);
  return d;
}

// --- PEs -------------------------------------------------------------------

namespace {

/// Common systolic cell skeleton: weight register plus partial-sum forward
/// register. Activations are broadcast along rows (no per-PE forward
/// register) and shared-exponent adders sit at the array edge, so the
/// default per-PE exponent logic is just the bypass mux — matching the
/// register-light PEs behind Table III.
DatapathDesign systolic_pe(const std::string& name, int mant_bits,
                           int extra_elem_bits, int psum_bits,
                           const GateTally& extra, PeVariant variant) {
  DatapathDesign d;
  d.name = name;
  d.lanes = 1;
  const int elem_bits = mant_bits + 1 + extra_elem_bits;  // + sign
  d.lane += arith::array_multiplier(mant_bits, mant_bits);
  d.lane.xor2 += 1;  // sign
  d.lane += arith::register_bank(elem_bits);  // weight (stationary)
  d.lane += arith::register_bank(psum_bits);  // partial-sum forward
  d.lane += extra;
  if (variant == PeVariant::kExponentAdder) {
    d.lane += arith::ripple_adder(5);
    d.lane += arith::register_bank(6);
  } else {
    d.lane += arith::mux_bank(6);  // exponent bypass
  }
  return d;
}

}  // namespace

DatapathDesign bfp_pe(const BlockFormat& fmt, PeVariant variant) {
  assert(!fmt.is_bbfp());
  const int m = fmt.mantissa_bits;
  const int psum = 2 * m + kPeGuardBits;
  GateTally adder = arith::ripple_adder(psum);
  DatapathDesign d = systolic_pe(fmt.name(), m, 0, psum, adder, variant);
  d.equivalent_bits = fmt.equivalent_bits();
  return d;
}

DatapathDesign bbfp_pe(const BlockFormat& fmt, PeVariant variant) {
  assert(fmt.is_bbfp());
  const int m = fmt.mantissa_bits;
  const int dd = fmt.shift_distance();
  // Sparse adder (Section IV.A): the (2m + 2d)-bit partial sum is handled by
  // a 2m-bit full adder plus a 2d-bit carry chain — the chain field itself
  // provides the in-array accumulation headroom, so no extra guard bits.
  GateTally extra = arith::ripple_adder(2 * m);
  extra += arith::carry_chain(2 * dd);
  extra += arith::mux_bank(2);  // chain placement select
  extra += flag_logic();
  DatapathDesign d = systolic_pe(fmt.name(), m, /*extra_elem_bits=*/1,
                                 /*psum_bits=*/2 * m + 2 * dd, extra, variant);
  d.equivalent_bits = fmt.equivalent_bits();
  return d;
}

DatapathDesign int_pe(int bits) {
  const int psum = 2 * bits + kPeGuardBits;
  DatapathDesign d = systolic_pe("INT" + std::to_string(bits), bits, 0, psum,
                                 arith::ripple_adder(psum),
                                 PeVariant::kExponentBypass);
  d.equivalent_bits = bits;
  return d;
}

DatapathDesign fp16_pe() {
  DatapathDesign d;
  d.name = "FP16";
  d.lanes = 1;
  d.equivalent_bits = 16.0;
  d.lane = fp16_mac(1).lane;
  d.lane += arith::register_bank(16);  // weight
  d.lane += arith::register_bank(16);  // activation forward
  return d;
}

DatapathDesign oltron_pe() {
  // Oltron: 3-bit core datapath; a shared outlier path handles the small
  // fixed fraction of high-precision groups (amortised control here).
  const int m = 3;
  const int psum = 2 * m + kPeGuardBits;
  GateTally extra = arith::ripple_adder(psum);
  extra += arith::mux_bank(4);  // outlier steering
  extra.and2 += 2;
  extra.or2 += 1;
  DatapathDesign d =
      systolic_pe("Oltron", m, 0, psum, extra, PeVariant::kExponentBypass);
  d.equivalent_bits = 4.3;  // 4-bit groups + outlier metadata
  return d;
}

DatapathDesign olive_pe() {
  // Olive: 4-bit core plus outlier-victim pair decode (the victim slot is
  // sacrificed to widen its outlier neighbour), roughly a 4-bit PE with a
  // second half-datapath for pair reconstruction.
  const int m = 4;
  const int psum = 2 * m + kPeGuardBits;
  GateTally extra = arith::ripple_adder(psum);
  extra += arith::array_multiplier(4, 4);  // pair path multiplier
  extra += arith::mux_bank(10);            // victim decode / select
  extra += arith::register_bank(6);        // pair metadata
  extra.and2 += 4;
  extra.or2 += 2;
  DatapathDesign d =
      systolic_pe("Olive", m, 0, psum, extra, PeVariant::kExponentBypass);
  d.equivalent_bits = 4.5;
  return d;
}

Result<DatapathDesign> pe_for_spec(const quant::StrategySpec& spec) {
  using R = Result<DatapathDesign>;
  using quant::StrategyFamily;
  switch (spec.family) {
    case StrategyFamily::kOltron:
      return oltron_pe();
    case StrategyFamily::kOlive:
      return olive_pe();
    case StrategyFamily::kFp16:
      return fp16_pe();
    case StrategyFamily::kInt:
      return int_pe(spec.bits);
    case StrategyFamily::kBfp:
    case StrategyFamily::kBbfp: {
      auto fmt = spec.block_format();
      if (!fmt.is_ok()) return R::error(fmt.message());
      return fmt.value().is_bbfp() ? bbfp_pe(fmt.value())
                                   : bfp_pe(fmt.value());
    }
    default:
      return R::error("no PE design for strategy " + spec.to_string());
  }
}

}  // namespace bbal::hw
