#include "accel/config.hpp"

#include <cmath>

#include "quant/strategy.hpp"

namespace bbal::accel {

Result<AcceleratorConfig> make_iso_area_config(const quant::StrategySpec& spec,
                                               double pe_area_budget_um2,
                                               double dram_gbps) {
  using R = Result<AcceleratorConfig>;
  if (pe_area_budget_um2 <= 0.0)
    return R::error("PE area budget must be positive");
  const Result<hw::DatapathDesign> design = hw::pe_for_spec(spec);
  if (!design.is_ok()) return R::error(design.message());

  AcceleratorConfig cfg;
  cfg.strategy = spec.to_string();
  cfg.dram_gbps = dram_gbps;
  const double pe_area = design.value().area_um2(hw::CellLibrary::tsmc28());
  auto n_pe = static_cast<int>(pe_area_budget_um2 / pe_area);
  // The quotient can land a rounding step below an exact multiple (21 x 21
  // INT8 PEs span 147646.80000000002 um2, and that over one PE's area is
  // 440.99999...): count the PE the budget really holds, so re-provisioning
  // an array's own area returns the same array.
  if (pe_area * (n_pe + 1) <= pe_area_budget_um2) ++n_pe;
  if (n_pe < 1)
    return R::error("PE area budget " + std::to_string(pe_area_budget_um2) +
                    " um2 fits no " + spec.to_string() + " PE (" +
                    std::to_string(pe_area) + " um2 each)");
  // Near-square array, rows <= cols.
  const int rows = std::max(1, static_cast<int>(std::sqrt(n_pe)));
  const int cols = std::max(1, n_pe / rows);
  cfg.array_rows = rows;
  cfg.array_cols = cols;
  return cfg;
}

AcceleratorConfig iso_area_config(const std::string& strategy,
                                  double pe_area_budget_um2,
                                  double dram_gbps) {
  const quant::StrategySpec spec =
      quant::StrategySpec::parse(strategy).expect("iso_area_config");
  return make_iso_area_config(spec, pe_area_budget_um2, dram_gbps)
      .expect("iso_area_config");
}

}  // namespace bbal::accel
