// Run the synthetic Llama-7B-class model under several quantisation
// backends and compare perplexity — a single-model slice of Table II,
// each cell one bbal::Session.
//
// Usage: ./build/examples/llm_inference [model-name]
//        (model-name from the Table II zoo, default "Llama-7B")
#include <cstdio>
#include <string>

#include "bbal/registry.hpp"
#include "bbal/session.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace bbal;

  const std::string model_name = argc > 1 ? argv[1] : "Llama-7B";
  const auto config = llm::find_config(model_name);
  if (!config.is_ok()) {
    std::fprintf(stderr, "%s\n", config.message().c_str());
    return 1;
  }
  std::printf("Preparing synthetic %s (calibrating FP32 baseline)...\n",
              model_name.c_str());
  const auto prepared = prepare_shared(config.value(), /*eval_tokens=*/384);
  std::printf("FP32 baseline perplexity: %.2f (paper FP16 row: %.2f)\n\n",
              prepared->fp32_ppl, prepared->config.fp_baseline_ppl);

  TextTable table({"Backend", "Perplexity", "vs FP32"});
  auto report = [&](const std::string& name, double ppl) {
    table.add_row({name, TextTable::num(ppl, 2),
                   TextTable::num(ppl / prepared->fp32_ppl, 2) + "x"});
  };

  report("FP32", prepared->fp32_ppl);
  for (const std::string& strategy :
       {std::string("BFP6"), std::string("BFP4"), std::string("BBFP(3,1)"),
        std::string("BBFP(4,2)"), std::string("BBFP(6,3)"),
        std::string("Oltron"), std::string("Olive"),
        std::string("OmniQuant")}) {
    auto session = Session::create({.prepared = prepared, .matmul = strategy});
    if (!session.is_ok()) {
      std::fprintf(stderr, "%s: %s\n", strategy.c_str(),
                   session.message().c_str());
      return 1;
    }
    report(strategy,
           session.value().evaluate().expect("evaluate").perplexity);
  }
  table.print();
  std::printf(
      "\nExpected shape (Table II): BBFP(6,3) ~ FP32; BBFP(4,2) mild;\n"
      "BFP4 worse than BBFP at equal width; Olive far worse.\n");
  return 0;
}
