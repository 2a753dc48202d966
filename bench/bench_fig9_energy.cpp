// Regenerates Fig. 9: average normalised energy (static / DRAM / buffer /
// core) for each quantisation strategy under identical PE count and buffer
// sizes, on a Llama-7B-like prefill workload.
//
// Headline: BBFP width-3 cuts ~13% of BFP4's energy; BBFP vs BFP at equal
// mantissa width costs at most ~5% more.
#include <cstdio>
#include <string>
#include <vector>

#include "bbal/session.hpp"
#include "common/table.hpp"

int main() {
  using namespace bbal;
  using accel::EnergyBreakdown;

  print_banner("Fig. 9: normalised energy breakdown (same PEs, same buffers)");

  const std::vector<std::string> strategies = {
      "Oltron",    "Olive",     "BFP4",      "BFP6",
      "BBFP(3,1)", "BBFP(3,2)", "BBFP(4,2)", "BBFP(4,3)",
      "BBFP(6,3)", "BBFP(6,4)", "BBFP(6,5)"};

  struct Row {
    std::string name;
    EnergyBreakdown e;
  };
  std::vector<Row> rows;
  double max_total = 0.0;
  for (const std::string& s : strategies) {
    accel::AcceleratorConfig cfg;  // identical array + buffers everywhere
    cfg.array_rows = cfg.array_cols = 16;
    // Cost-only session: no perplexity run, same prefill workload per row.
    auto session = Session::create({.model = "Llama-7B",
                                    .matmul = s,
                                    .accelerator = cfg,
                                    .prefill_seq = 512,
                                    .skip_accuracy = true})
                       .expect("fig9 session");
    const auto report = session.evaluate().expect("fig9 evaluate");
    rows.push_back({s, report.energy});
    max_total = std::max(max_total, report.energy.total_j());
  }

  TextTable table({"Strategy", "Static", "DRAM", "Buffer", "Core", "Total",
                   "Norm"});
  for (const Row& r : rows) {
    table.add_row({r.name, TextTable::num(r.e.static_j * 1e6, 1),
                   TextTable::num(r.e.dram_j * 1e6, 1),
                   TextTable::num(r.e.buffer_j * 1e6, 1),
                   TextTable::num(r.e.core_j * 1e6, 1),
                   TextTable::num(r.e.total_j() * 1e6, 1),
                   TextTable::num(r.e.total_j() / max_total, 2)});
  }
  std::printf("(energies in microjoules for the whole workload)\n");
  table.print();

  auto total = [&](const std::string& n) {
    for (const Row& r : rows)
      if (r.name == n) return r.e.total_j();
    return 0.0;
  };
  std::printf("\nHeadline checks:\n");
  std::printf("  BBFP(3,1) vs BFP4 energy: %+.1f%% (paper: about -13%%)\n",
              (total("BBFP(3,1)") / total("BFP4") - 1.0) * 100.0);
  std::printf("  BBFP(6,3) vs BFP6 energy: %+.1f%% (paper: within +5%%)\n",
              (total("BBFP(6,3)") / total("BFP6") - 1.0) * 100.0);
  std::printf("  BBFP(4,2) vs BFP4 energy: %+.1f%% (paper: within +5%%)\n",
              (total("BBFP(4,2)") / total("BFP4") - 1.0) * 100.0);
  return 0;
}
