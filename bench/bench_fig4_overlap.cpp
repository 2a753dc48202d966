// Regenerates Fig. 4: perplexity and hardware overhead for BBFP(6,o),
// o = 0..5, plus Algorithm 1's overlap selection at several overhead
// weights. Expected shape: PPL high at o=0 (mid-size values crushed),
// best around o=3..4; overhead decreases with o (narrower carry chain).
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bbal/session.hpp"
#include "common/table.hpp"
#include "hw/datapath_designs.hpp"
#include "quant/overlap_search.hpp"

int main() {
  using namespace bbal;
  using namespace bbal::llm;

  print_banner("Fig. 4 / Algorithm 1: overlap width selection for BBFP(6,o)");
  const char* tok_env = std::getenv("BBAL_EVAL_TOKENS");
  const int eval_tokens = tok_env != nullptr ? std::atoi(tok_env) : 256;

  // Average PPL over one Llama-like and one OPT-like model (the paper's
  // "Avg PPL" axis averages its model suite).
  std::vector<std::shared_ptr<const PreparedModel>> prepared;
  for (const char* name : {"Llama-7B", "OPT-6.7B"}) {
    std::fprintf(stderr, "preparing %s...\n", name);
    prepared.push_back(prepare_shared(name, eval_tokens));
  }

  const int m = 6;
  std::vector<double> ppl_cache(static_cast<std::size_t>(m), -1.0);
  auto ppl_of = [&](int o) {
    auto& cached = ppl_cache[static_cast<std::size_t>(o)];
    if (cached >= 0.0) return cached;
    double acc = 0.0;
    const std::string matmul = quant::StrategySpec::bbfp(m, o).to_string();
    for (const auto& p : prepared) {
      auto session = Session::create({.prepared = p, .matmul = matmul})
                         .expect("fig4 session");
      acc += session.evaluate().expect("fig4 evaluate").perplexity;
    }
    cached = acc / static_cast<double>(prepared.size());
    return cached;
  };
  auto overhead_of = [&](int o) {
    return hw::bbfp_pe(quant::BlockFormat::bbfp(m, o))
        .area_um2(hw::CellLibrary::tsmc28());
  };

  TextTable table({"Overlap o", "Avg PPL", "PE area um2 (overhead)"});
  for (int o = 0; o < m; ++o) {
    table.add_row({std::to_string(o), TextTable::num(ppl_of(o), 2),
                   TextTable::num(overhead_of(o), 1)});
  }
  table.print();

  std::printf("\nAlgorithm 1 selection at different overhead weights w:\n");
  TextTable algo({"w", "best o", "scores o=0..5"});
  for (const double w : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const quant::OverlapSearchResult r =
        quant::select_overlap_width(m, w, ppl_of, overhead_of);
    std::string scores;
    for (std::size_t i = 0; i < r.score.size(); ++i)
      scores += (i != 0 ? " " : "") + TextTable::num(r.score[i], 3);
    algo.add_row({TextTable::num(w, 2), std::to_string(r.best_overlap),
                  scores});
  }
  algo.print();
  std::printf(
      "\nShape: accuracy-best sits at mid/high o ('Best accuracy' marker in\n"
      "Fig. 4); overhead strictly decreases with o ('Best efficiency' at\n"
      "o=5); Algorithm 1 interpolates between them as w grows.\n");
  return 0;
}
