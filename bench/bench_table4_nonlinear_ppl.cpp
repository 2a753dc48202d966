// Regenerates Table IV: perplexity with quantised *nonlinear* units
// (linear layers stay FP32). BBFP(10,5) must track the FP32 baseline;
// BFP10 must blow up — the max-alignment failure on nonlinear inputs.
//
// All (scheme, model) cells run as one SweepRunner sweep; the FP32 row is
// the calibrated baseline each report carries (fp32_perplexity), so it
// costs nothing extra. Env: BBAL_EVAL_TOKENS, BBAL_THREADS.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bbal/sweep.hpp"
#include "common/table.hpp"

int main() {
  using namespace bbal;
  using namespace bbal::llm;

  print_banner("Table IV: PPL with quantised nonlinear units");
  const char* tok_env = std::getenv("BBAL_EVAL_TOKENS");
  const int eval_tokens = tok_env != nullptr ? std::atoi(tok_env) : 320;

  const std::vector<ModelConfig> zoo = nonlinear_zoo();
  // Paper Table IV, column-per-model: FP32 / BBFP(10,5) x3 / BFP10 x3.
  const double paper[7][3] = {{5.68, 5.47, 6.14},   {5.74, 5.62, 6.24},
                              {5.71, 5.53, 6.21},   {5.81, 5.91, 6.34},
                              {67.31, 32.72, 69.95}, {33.21, 17.54, 31.30},
                              {99.28, 50.21, 102.35}};
  const std::vector<std::string> row_names = {
      "FP32 altogether",       "BBFP(10,5) softmax only",
      "BBFP(10,5) SILU only",  "BBFP(10,5) altogether",
      "BFP10 softmax only",    "BFP10 SILU only",
      "BFP10 altogether"};
  // Table IV rows as nonlinear strategy names: linear layers stay FP32,
  // the routing suffix picks which nonlinearity goes through the unit.
  const std::vector<std::string> nl_strategies = {
      "BBFP-LUT(10,5)/softmax", "BBFP-LUT(10,5)/silu", "BBFP-LUT(10,5)",
      "BFP-LUT(10)/softmax",    "BFP-LUT(10)/silu",    "BFP-LUT(10)"};

  SweepRunner sweep;
  sweep.eval_tokens(eval_tokens);
  for (const std::string& nl : nl_strategies)
    for (const ModelConfig& cfg : zoo)
      sweep.add({.config = cfg, .nonlinear = nl});

  std::fprintf(stderr, "sweeping %zu cells over %zu models...\n",
               sweep.size(), zoo.size());
  const SweepRunner::SweepResult result = sweep.run();
  if (!result.all_ok()) {
    std::fprintf(stderr, "sweep failed: %s\n", result.first_error().c_str());
    return 1;
  }
  std::fprintf(stderr, "sweep: %d threads, %.1fs wall\n", result.threads,
               result.wall_seconds);

  std::vector<std::string> header = {"Nonlinear scheme"};
  for (const auto& cfg : zoo) header.push_back(cfg.name);
  header.push_back("(paper row)");
  TextTable table(header);

  auto paper_cell = [&](int paper_idx) {
    std::string pstr;
    for (int j = 0; j < 3; ++j)
      pstr += (j != 0 ? " / " : "") + TextTable::num(paper[paper_idx][j], 2);
    return pstr;
  };

  // FP32 row: the calibrated baseline carried by every report.
  {
    std::vector<std::string> row = {row_names[0]};
    for (std::size_t i = 0; i < zoo.size(); ++i)
      row.push_back(
          TextTable::num(result.reports[i].value().fp32_perplexity, 2));
    row.push_back(paper_cell(0));
    table.add_row(row);
  }
  for (std::size_t s = 0; s < nl_strategies.size(); ++s) {
    std::vector<std::string> row = {row_names[s + 1]};
    for (std::size_t i = 0; i < zoo.size(); ++i)
      row.push_back(TextTable::num(
          result.reports[s * zoo.size() + i].value().perplexity, 2));
    row.push_back(paper_cell(static_cast<int>(s) + 1));
    table.add_row(row);
  }

  table.print();
  std::printf(
      "\nShape to check: every BBFP(10,5) row stays near FP32, every BFP10\n"
      "row inflates strongly (paper: >= 3x; mechanism in test_nl_engine).\n");
  return 0;
}
