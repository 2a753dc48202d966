// Regenerates Table III: PE area across quantisation strategies,
// normalised by the largest (BBFP(6,3)) PE.
#include <string>
#include <vector>

#include "common/table.hpp"
#include "hw/datapath_designs.hpp"

int main() {
  using bbal::TextTable;
  using namespace bbal::hw;

  bbal::print_banner("Table III: PE area across quantisation strategies");
  const CellLibrary& lib = CellLibrary::tsmc28();

  // Paper values (um^2) for side-by-side comparison.
  const std::vector<std::pair<std::string, double>> strategies = {
      {"Oltron", 78.50},    {"Olive", 156.47},     {"BFP4", 110.24},
      {"BFP6", 215.23},     {"BBFP(3,1)", 77.69},  {"BBFP(3,2)", 75.51},
      {"BBFP(4,2)", 117.11},{"BBFP(4,3)", 113.31}, {"BBFP(6,3)", 241.01},
      {"BBFP(6,4)", 231.14},{"BBFP(6,5)", 224.70},
  };

  const auto pe_of = [](const std::string& name) {
    return pe_for_spec(bbal::quant::spec_of(name)).expect("Table III PE");
  };
  const double norm_base = pe_of("BBFP(6,3)").area_um2(lib);

  TextTable table({"Strategy", "Area um2", "Norm", "Paper um2", "Paper Norm"});
  for (const auto& [name, paper_area] : strategies) {
    const double area = pe_of(name).area_um2(lib);
    table.add_row({name, TextTable::num(area, 2),
                   TextTable::num(area / norm_base, 2),
                   TextTable::num(paper_area, 2),
                   TextTable::num(paper_area / 241.01, 2)});
  }
  table.print();
  return 0;
}
