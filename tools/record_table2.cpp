// Record a Table II baseline through the SweepRunner: perplexity +
// simulated throughput/energy per strategy, as one JSON file. CI diffs a
// fresh run against the committed BENCH_table2.json with tools/
// bench_compare — perplexity/energy/memory must stay bit-identical at any
// thread count; only wall-clock metadata may drift.
//
// Output shape: {"meta": {...sweep stats...}, "rows": [...one object per
// strategy...]}, the shape bench_compare reads.
//
// Usage: ./build/tools/record_table2 [out.json] [--threads N]
// Env:   BBAL_MODEL (default Llama-7B), BBAL_EVAL_TOKENS (default 256),
//        BBAL_THREADS (default hardware_concurrency; --threads wins). An
//        unknown model, a BBAL_EVAL_TOKENS that is not one whole number
//        >= 2 or a BBAL_THREADS that is not one >= 1 exits 2.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bbal/registry.hpp"
#include "bbal/sweep.hpp"
#include "common/threadpool.hpp"
#include "llm/model.hpp"
#include "parse_number.hpp"

int main(int argc, char** argv) {
  using namespace bbal;

  std::string out_path = "BENCH_table2.json";
  bool have_out_path = false;
  int threads_flag = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "record_table2: --threads needs a value\n");
        return 2;
      }
      if (!tools::parse_number(argv[++i], 1, threads_flag)) {
        std::fprintf(stderr, "record_table2: bad --threads value \"%s\"\n",
                     argv[i]);
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr, "usage: record_table2 [out.json] [--threads N]\n");
      return 0;
    } else if (arg.rfind("-", 0) == 0) {
      // An unknown flag must not silently become the output path (the CI
      // gate would then sweep with default threads and write nowhere).
      std::fprintf(stderr, "record_table2: unknown option \"%s\"\n",
                   arg.c_str());
      return 2;
    } else if (have_out_path) {
      std::fprintf(stderr, "record_table2: unexpected argument \"%s\"\n",
                   arg.c_str());
      return 2;
    } else {
      out_path = arg;
      have_out_path = true;
    }
  }
  // sample_stream draws at least two eval tokens.
  int eval_tokens = 256;
  int env_threads = 0;  ///< unset: the pool's default width
  if (!tools::env_number("record_table2", "BBAL_EVAL_TOKENS", 2,
                         eval_tokens) ||
      !tools::env_number("record_table2", "BBAL_THREADS", 1, env_threads))
    return 2;
  // --threads wins; the knob must land before the first
  // ThreadPool::global() use.
  const int threads = threads_flag > 0 ? threads_flag : env_threads;
  if (threads > 0) common::ThreadPool::set_global_threads(threads);

  const char* model_env = std::getenv("BBAL_MODEL");
  const std::string model_name = model_env != nullptr ? model_env : "Llama-7B";
  if (const auto model = llm::find_config(model_name); !model.is_ok()) {
    std::fprintf(stderr, "record_table2: %s\n", model.message().c_str());
    return 2;
  }

  SweepRunner sweep;
  sweep.eval_tokens(eval_tokens);
  const std::vector<std::string> strategies = table2_strategies();
  for (const std::string& strategy : strategies) {
    SweepRunner::Item item{.model = model_name, .matmul = strategy};
    // Attach the paper's 16x16 array when the strategy prices a PE design.
    const auto spec = quant::StrategySpec::parse(strategy);
    if (spec.is_ok() &&
        BackendRegistry::instance().has_cost_model(spec.value())) {
      accel::AcceleratorConfig cfg;
      cfg.array_rows = cfg.array_cols = 16;
      item.accelerator = cfg;
    }
    sweep.add(std::move(item));
  }

  std::fprintf(stderr, "sweeping %zu strategies on %s (%d eval tokens)...\n",
               strategies.size(), model_name.c_str(), eval_tokens);
  const SweepRunner::SweepResult result = sweep.run();

  for (std::size_t i = 0; i < result.reports.size(); ++i) {
    if (!result.reports[i].is_ok()) {
      std::fprintf(stderr, "  %s: %s\n", strategies[i].c_str(),
                   result.reports[i].message().c_str());
      return 1;
    }
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n\"meta\": {\"model\": \"%s\", \"eval_tokens\": %d, "
               "\"threads\": %d, \"hardware_concurrency\": %u, "
               "\"sweep_wall_seconds\": %.6g, \"models_prepared\": %d},\n"
               "\"rows\": [\n",
               model_name.c_str(), eval_tokens, result.threads,
               std::thread::hardware_concurrency(), result.wall_seconds,
               result.models_prepared);
  for (std::size_t i = 0; i < result.reports.size(); ++i)
    std::fprintf(out, "%s  %s", i == 0 ? "" : ",\n",
                 result.reports[i].value().to_json().c_str());
  std::fprintf(out, "\n]\n}\n");
  std::fclose(out);
  std::fprintf(stderr, "wrote %s (%d threads, %.2fs sweep wall-clock)\n",
               out_path.c_str(), result.threads, result.wall_seconds);
  return 0;
}
