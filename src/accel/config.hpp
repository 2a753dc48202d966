// BBAL accelerator configuration (Fig. 7): weight-stationary PE array,
// on-chip buffers, encoders, FP accumulation path and the nonlinear unit.
//
// The PE datapath is resolved once, when a matmul strategy is bound
// (with_strategy, make_iso_area_config); pricing reads the bound design and
// never parses a strategy name.
#pragma once

#include <cstddef>

#include "hw/datapath_designs.hpp"

namespace bbal::accel {

struct AcceleratorConfig {
  /// PE datapath design; the default is the paper's BBFP(4,2) PE. Rebind it
  /// through with_strategy rather than by hand.
  hw::DatapathDesign pe = hw::bbfp_pe(quant::BlockFormat::bbfp(4, 2));
  int array_rows = 16;
  int array_cols = 16;
  double freq_ghz = 1.0;
  std::size_t weight_buffer_bytes = 128 * 1024;
  std::size_t act_buffer_bytes = 64 * 1024;
  std::size_t out_buffer_bytes = 64 * 1024;
  double dram_gbps = hw::kDramBandwidthGBs;

  [[nodiscard]] int pe_count() const { return array_rows * array_cols; }
  /// Total PE-array area, um^2.
  [[nodiscard]] double pe_array_area_um2() const {
    return pe.area_um2(hw::CellLibrary::tsmc28()) * pe_count();
  }
};

/// Bind a matmul strategy to `cfg`: its PE design (hw::pe_for_spec) replaces
/// cfg.pe, everything else is kept. Errors when the strategy has no hardware
/// cost model. Session and serve::Engine bind their accelerators here.
[[nodiscard]] Result<AcceleratorConfig> with_strategy(
    AcceleratorConfig cfg, const quant::StrategySpec& spec);

/// Build an iso-area configuration: as many PEs of `spec` as fit in
/// `pe_area_budget_um2`, arranged near-square (Fig. 8's comparison rule).
/// Errors when the strategy has no PE design or the budget fits no PE.
[[nodiscard]] Result<AcceleratorConfig> make_iso_area_config(
    const quant::StrategySpec& spec, double pe_area_budget_um2,
    double dram_gbps = hw::kDramBandwidthGBs);

}  // namespace bbal::accel
