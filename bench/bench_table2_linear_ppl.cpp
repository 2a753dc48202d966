// Regenerates Table II: perplexity of the 12-model zoo under every linear
// quantisation strategy (weights + activations, no calibration for the
// block formats). The FP32 row is calibrated to the paper's FP16 row
// (DESIGN.md substitution #1); every other number is measured.
//
// All strategy x model cells run as one SweepRunner sweep: models are
// prepared once and shared, cells fan out over the thread pool
// (BBAL_THREADS, default hardware_concurrency), and results come back in
// declaration order so the table is identical at any thread count.
//
// Env: BBAL_EVAL_TOKENS (default 320), BBAL_MODELS (comma list to subset),
//      BBAL_THREADS (sweep parallelism).
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bbal/registry.hpp"
#include "bbal/sweep.hpp"
#include "common/table.hpp"

namespace {

using namespace bbal;

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

/// Paper Table II values for side-by-side reporting ([row][model], -1 = N/A).
const std::vector<std::string> kModels = {
    "Llama-1B", "Llama-3B", "Llama-7B", "Llama-13B", "Llama-30B",
    "Llama-65B", "OPT-1.3B", "OPT-2.7B", "OPT-6.7B", "OPT-13B",
    "OPT-30B",  "OPT-66B"};

const std::map<std::string, std::vector<double>> kPaper = {
    {"FP16", {9.88, 7.87, 5.47, 5.09, 4.10, 3.53, 14.62, 12.47, 10.86, 10.12,
              9.56, 9.34}},
    {"Oltron", {-1, -1, 14.67, 9.48, 7.51, 6.69, -1, -1, 11.99, 11.65, 10.60,
                10.29}},
    {"Olive", {-1, -1, 144.78, 42.24, 36.55, -1, -1, -1, 107.15, 416.57,
               334.7, 4058.83}},
    {"OmniQuant", {-1, -1, 11.26, 10.87, 10.33, 9.17, -1, -1, 12.24, 11.65,
                   10.6, 10.29}},
    {"BFP6", {10.06, 7.95, 5.61, 5.13, 4.12, 3.61, 15.57, 12.5, 10.91, 10.22,
              9.62, 9.48}},
    {"BFP4", {13.45, 9.44, 5.83, 5.72, 5.05, 4.12, 27.21, 18.98, 12.24, 11.56,
              10.50, 10.10}},
    {"BBFP(3,1)", {12.35, 9.00, 5.66, 5.33, 4.46, 4.01, 23.12, 15.29, 14.07,
                   10.85, 10.45, 10.27}},
    {"BBFP(4,2)", {10.41, 8.13, 5.80, 5.39, 4.37, 3.65, 17.06, 13.36, 12.03,
                   10.39, 9.63, 9.87}},
    {"BBFP(4,3)", {10.65, 8.20, 5.80, 5.20, 4.26, 3.69, 17.52, 13.89, 11.54,
                   10.38, 9.61, 9.93}},
    {"BBFP(6,3)", {9.93, 7.89, 5.48, 5.09, 4.10, 3.59, 15.16, 12.49, 10.89,
                   10.12, 9.55, 9.38}},
    {"BBFP(6,4)", {9.93, 7.9, 5.48, 5.09, 4.10, 3.59, 15.00, 12.47, 10.89,
                   10.14, 9.55, 9.36}},
};

}  // namespace

int main() {
  print_banner("Table II: quantised perplexity on the synthetic zoo");
  const int eval_tokens = env_int("BBAL_EVAL_TOKENS", 320);

  std::vector<std::string> models = kModels;
  if (const char* sel = std::getenv("BBAL_MODELS")) {
    models.clear();
    std::string s(sel);
    std::size_t pos = 0;
    while (pos != std::string::npos) {
      const auto comma = s.find(',', pos);
      models.push_back(s.substr(pos, comma - pos));
      pos = comma == std::string::npos ? comma : comma + 1;
    }
  }

  const std::vector<std::string> strategies = table2_strategies();

  // One sweep item per (strategy, model) cell; the sweep prepares each
  // model once before any cell runs, like the seed's manual prepared map.
  SweepRunner sweep;
  sweep.eval_tokens(eval_tokens);
  for (const std::string& strat : strategies)
    for (const std::string& model : models)
      sweep.add({.model = model, .matmul = strat});

  std::fprintf(stderr, "sweeping %zu cells (%zu strategies x %zu models)...\n",
               sweep.size(), strategies.size(), models.size());
  const SweepRunner::SweepResult result = sweep.run();
  if (!result.all_ok()) {
    std::fprintf(stderr, "sweep failed: %s\n", result.first_error().c_str());
    return 1;
  }
  std::fprintf(stderr, "sweep: %zu cells, %d threads, %.1fs wall\n",
               sweep.size(), result.threads, result.wall_seconds);

  std::vector<std::string> header = {"Strategy"};
  for (const auto& m : models) header.push_back(m);
  TextTable measured(header);
  TextTable paper(header);

  std::map<std::string, double> avg_ratio;  // strategy -> mean PPL/FP32
  std::size_t cell = 0;
  for (const std::string& strat : strategies) {
    std::vector<std::string> row = {strat};
    std::vector<std::string> paper_row = {strat};
    double ratio_acc = 0.0;
    for (const std::string& model : models) {
      const Session::Report& report = result.reports[cell++].value();
      row.push_back(TextTable::num(report.perplexity, 2));
      ratio_acc += report.perplexity / report.fp32_perplexity;
      // Paper cell (when the full zoo is selected).
      const auto it = kPaper.find(strat);
      double pv = -1;
      if (it != kPaper.end()) {
        for (std::size_t i = 0; i < kModels.size(); ++i)
          if (kModels[i] == model) pv = it->second[i];
      }
      paper_row.push_back(pv < 0 ? "N/A" : TextTable::num(pv, 2));
    }
    avg_ratio[strat] = ratio_acc / static_cast<double>(models.size());
    measured.add_row(row);
    paper.add_row(paper_row);
  }

  std::printf("\nMeasured (this reproduction):\n");
  measured.print();
  std::printf("\nPaper Table II (for comparison):\n");
  paper.print();

  std::printf("\nAverage PPL inflation over FP32 baseline:\n");
  for (const std::string& strat : strategies)
    std::printf("  %-10s %.2fx\n", strat.c_str(), avg_ratio[strat]);

  std::printf(
      "\nShape checks (paper claims):\n"
      "  BBFP(4,2) within ~5%% of BFP6:        %s\n"
      "  BBFP(4,2) clearly better than Oltron: %s\n"
      "  BBFP(6,3)/(6,4) track FP16:           %s\n"
      "  Olive catastrophically bad:           %s\n",
      avg_ratio["BBFP(4,2)"] < avg_ratio["BFP6"] * 1.35 ? "PASS" : "CHECK",
      avg_ratio["BBFP(4,2)"] < avg_ratio["Oltron"] ? "PASS" : "CHECK",
      avg_ratio["BBFP(6,3)"] < 1.2 ? "PASS" : "CHECK",
      avg_ratio["Olive"] > 10.0 ? "PASS" : "CHECK");
  return 0;
}
