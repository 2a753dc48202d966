// Regenerates Fig. 8: accuracy (average Llama/OPT perplexity) and
// throughput under iso PE area for every quantisation strategy — each
// strategy is one Session; perplexity and throughput come from the same
// evaluate() call on the Llama model. The whole grid runs as one
// SweepRunner sweep (BBAL_THREADS-way parallel, deterministic order).
//
// Headline claims: BBFP(3,1)/(3,2) ~ Oltron throughput (all 3-bit
// multipliers) with better accuracy; ~40% faster than BFP4 at similar
// accuracy; BBFP(4,x) slower than Oltron but much more accurate.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bbal/sweep.hpp"
#include "common/table.hpp"

int main() {
  using namespace bbal;

  print_banner("Fig. 8: iso-area accuracy vs throughput");
  const char* tok_env = std::getenv("BBAL_EVAL_TOKENS");
  const int eval_tokens = tok_env != nullptr ? std::atoi(tok_env) : 256;

  // Dense prefill workload with bandwidth headroom so the comparison is
  // compute-bound — the regime of the paper's iso-area study.
  const double pe_budget_um2 = 150000.0;
  const double dram_gbps = 51.2;

  const std::vector<std::string> strategies = {
      "Oltron",    "Olive",     "BFP4",      "BFP6",
      "BBFP(3,1)", "BBFP(3,2)", "BBFP(4,2)", "BBFP(4,3)",
      "BBFP(6,3)", "BBFP(6,4)", "BBFP(6,5)"};

  // Two items per strategy: accuracy + iso-area throughput on the Llama
  // model (one evaluate, Fig. 8's rule) and accuracy on the OPT model.
  // The sweep prepares each of the two models once, before any item runs.
  SweepRunner sweep;
  sweep.eval_tokens(eval_tokens);
  for (const std::string& s : strategies) {
    sweep.add({.model = "Llama-7B",
               .matmul = s,
               .iso_area_um2 = pe_budget_um2,
               .iso_dram_gbps = dram_gbps,
               .prefill_seq = 1024});
    sweep.add({.model = "OPT-6.7B", .matmul = s});
  }

  std::fprintf(stderr, "sweeping %zu sessions...\n", sweep.size());
  const SweepRunner::SweepResult result = sweep.run();
  if (!result.all_ok()) {
    std::fprintf(stderr, "sweep failed: %s\n", result.first_error().c_str());
    return 1;
  }
  std::fprintf(stderr, "sweep: %d threads, %.1fs wall\n", result.threads,
               result.wall_seconds);

  struct Row {
    std::string name;
    double llama_ppl, opt_ppl, gops;
    int pes;
  };
  std::vector<Row> rows;
  double max_gops = 0.0;
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    const Session::Report& llama_report = result.reports[2 * i].value();
    const Session::Report& opt_report = result.reports[2 * i + 1].value();
    Row r;
    r.name = strategies[i];
    r.llama_ppl = llama_report.perplexity;
    r.opt_ppl = opt_report.perplexity;
    r.pes = llama_report.accelerator_pes;
    r.gops = llama_report.run.throughput_gops;
    max_gops = std::max(max_gops, r.gops);
    rows.push_back(r);
  }

  TextTable table({"Strategy", "PEs", "Llama PPL", "OPT PPL", "GOPS",
                   "Norm thru"});
  for (const Row& r : rows)
    table.add_row({r.name, std::to_string(r.pes),
                   TextTable::num(r.llama_ppl, 2),
                   TextTable::num(r.opt_ppl, 2), TextTable::num(r.gops, 1),
                   TextTable::num(r.gops / max_gops, 2)});
  table.print();

  auto find = [&](const std::string& n) -> const Row& {
    for (const Row& r : rows)
      if (r.name == n) return r;
    std::abort();
  };
  const Row& b31 = find("BBFP(3,1)");
  const Row& bfp4 = find("BFP4");
  const Row& oltron = find("Oltron");
  const Row& b42 = find("BBFP(4,2)");
  std::printf("\nHeadline checks:\n");
  std::printf("  BBFP(3,1) vs BFP4 throughput : %.0f%% faster (paper ~40%%)\n",
              (b31.gops / bfp4.gops - 1.0) * 100.0);
  std::printf("  BBFP(3,1) vs Oltron accuracy : %.0f%% lower avg PPL "
              "(paper ~22%%)\n",
              (1.0 - (b31.llama_ppl + b31.opt_ppl) /
                         (oltron.llama_ppl + oltron.opt_ppl)) *
                  100.0);
  std::printf("  BBFP(4,2) vs Oltron          : %.0f%% lower throughput, "
              "%.0f%% lower Llama PPL (paper: -30%% / -30%%)\n",
              (1.0 - b42.gops / oltron.gops) * 100.0,
              (1.0 - b42.llama_ppl / oltron.llama_ppl) * 100.0);
  return 0;
}
