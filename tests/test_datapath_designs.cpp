// Area-model sanity: orderings and ratios the paper's Tables I/III rely on.
#include "hw/datapath_designs.hpp"

#include <gtest/gtest.h>

namespace bbal::hw {
namespace {

const CellLibrary& lib() { return CellLibrary::tsmc28(); }

TEST(MacDesigns, Int8AnchorsNearTableOne) {
  // Calibration anchor: paper reports 9257 um^2 for the 32-lane INT8 MAC.
  const double area = int_mac(8).area_um2(lib());
  EXPECT_NEAR(area, 9257.0, 9257.0 * 0.12);
}

TEST(MacDesigns, Fp16RoughlyFourTimesInt8) {
  const double fp16 = fp16_mac().area_um2(lib());
  const double int8 = int_mac(8).area_um2(lib());
  EXPECT_GT(fp16 / int8, 3.0);
  EXPECT_LT(fp16 / int8, 6.0);
}

TEST(MacDesigns, BfpCloseToIntAtSameWidth) {
  // Table I: BFP8 (9371) is within ~2% of INT8 (9257).
  const double bfp8 = bfp_mac(quant::BlockFormat::bfp(8)).area_um2(lib());
  const double int8 = int_mac(8).area_um2(lib());
  EXPECT_NEAR(bfp8 / int8, 1.01, 0.06);
}

TEST(MacDesigns, BbfpCostsSlightlyMoreThanBfp) {
  // Table I: BBFP(8,4) ~ +5% over BFP8, BBFP(6,3) ~ +2% over BFP6.
  const double bfp8 = bfp_mac(quant::BlockFormat::bfp(8)).area_um2(lib());
  const double bbfp84 =
      bbfp_mac(quant::BlockFormat::bbfp(8, 4)).area_um2(lib());
  EXPECT_GT(bbfp84, bfp8);
  EXPECT_LT(bbfp84 / bfp8, 1.25);

  const double bfp6 = bfp_mac(quant::BlockFormat::bfp(6)).area_um2(lib());
  const double bbfp63 =
      bbfp_mac(quant::BlockFormat::bbfp(6, 3)).area_um2(lib());
  EXPECT_GT(bbfp63, bfp6);
  EXPECT_LT(bbfp63 / bfp6, 1.25);
}

TEST(MacDesigns, HeadlineClaim_Bbfp63CheaperThanBfp8) {
  // "BBFP(6,3) offers higher representation capability than BFP8 while
  //  consuming less area and memory footprint."
  const auto bbfp63 = bbfp_mac(quant::BlockFormat::bbfp(6, 3));
  const auto bfp8 = bfp_mac(quant::BlockFormat::bfp(8));
  EXPECT_LT(bbfp63.area_um2(lib()), bfp8.area_um2(lib()));
  EXPECT_LT(bbfp63.equivalent_bits, bfp8.equivalent_bits + 1.0);
}

TEST(PeDesigns, AreaOrderingMatchesTableThree) {
  // Table III norm ordering:
  // BBFP(3,2) < BBFP(3,1) ~ Oltron < BFP4 < BBFP(4,3) < BBFP(4,2)
  //   < Olive < BFP6 < BBFP(6,5) < BBFP(6,4) < BBFP(6,3).
  const double oltron = oltron_pe().area_um2(lib());
  const double olive = olive_pe().area_um2(lib());
  const double bfp4 = bfp_pe(quant::BlockFormat::bfp(4)).area_um2(lib());
  const double bfp6 = bfp_pe(quant::BlockFormat::bfp(6)).area_um2(lib());
  const double b31 = bbfp_pe(quant::BlockFormat::bbfp(3, 1)).area_um2(lib());
  const double b32 = bbfp_pe(quant::BlockFormat::bbfp(3, 2)).area_um2(lib());
  const double b42 = bbfp_pe(quant::BlockFormat::bbfp(4, 2)).area_um2(lib());
  const double b43 = bbfp_pe(quant::BlockFormat::bbfp(4, 3)).area_um2(lib());
  const double b63 = bbfp_pe(quant::BlockFormat::bbfp(6, 3)).area_um2(lib());
  const double b64 = bbfp_pe(quant::BlockFormat::bbfp(6, 4)).area_um2(lib());
  const double b65 = bbfp_pe(quant::BlockFormat::bbfp(6, 5)).area_um2(lib());

  EXPECT_LT(b32, b31);        // more overlap -> narrower chain -> smaller
  EXPECT_LT(b65, b64);
  EXPECT_LT(b64, b63);
  EXPECT_LT(b43, b42);
  EXPECT_LT(bfp4, b42);       // BBFP adds flag/mux/chain on top of BFP
  EXPECT_LT(bfp6, b63);
  EXPECT_LT(b42, bfp6);       // 4-bit multiplier beats 6-bit
  EXPECT_LT(oltron, bfp4);    // 3-bit core
  EXPECT_GT(olive, bfp4);     // victim-pair decode overhead
  EXPECT_LT(olive, bfp6);
}

TEST(PeDesigns, OltronNearBbfp31) {
  // Fig. 8 iso-area argument: Oltron, BBFP(3,1), BBFP(3,2) all use 3-bit
  // multipliers and land within ~15% of each other.
  const double oltron = oltron_pe().area_um2(lib());
  const double b31 = bbfp_pe(quant::BlockFormat::bbfp(3, 1)).area_um2(lib());
  EXPECT_NEAR(b31 / oltron, 1.0, 0.15);
}

TEST(PeDesigns, ExponentBypassCheaperThanAdder) {
  const auto fmt = quant::BlockFormat::bbfp(4, 2);
  const double with_adder =
      bbfp_pe(fmt, PeVariant::kExponentAdder).area_um2(lib());
  const double with_bypass =
      bbfp_pe(fmt, PeVariant::kExponentBypass).area_um2(lib());
  EXPECT_LT(with_bypass, with_adder);
}

TEST(PeDesigns, StrategyLookupRoundTrips) {
  for (const char* name :
       {"Oltron", "Olive", "BFP4", "BBFP(6,3)", "INT8", "FP16"})
    EXPECT_EQ(pe_for_spec(quant::spec_of(name)).expect(name).name, name);
}

TEST(EnergyModel, MacEnergyOrderingTracksArea) {
  const double e_int8 = int_mac(8).mac_energy_fj(lib());
  const double e_fp16 = fp16_mac().mac_energy_fj(lib());
  const double e_bfp4 =
      bfp_mac(quant::BlockFormat::bfp(4)).mac_energy_fj(lib());
  EXPECT_GT(e_fp16, e_int8);
  EXPECT_GT(e_int8, e_bfp4);
  EXPECT_GT(e_bfp4, 0.0);
}

TEST(EnergyModel, LeakagePositiveAndMonotonic) {
  const double l4 = bfp_pe(quant::BlockFormat::bfp(4)).leakage_nw(lib());
  const double l6 = bfp_pe(quant::BlockFormat::bfp(6)).leakage_nw(lib());
  EXPECT_GT(l4, 0.0);
  EXPECT_GT(l6, l4);
}

}  // namespace
}  // namespace bbal::hw
