// Drive the BBAL accelerator model end to end: run a decoder workload on
// the cycle-level simulator through a cost-only bbal::Session, print
// cycles / utilisation / energy, and show the bit-exact GEMM path agreeing
// with the functional quantiser.
//
// Usage: ./build/examples/accelerator_sim [strategy] [seq]
//        strategy in {BBFP(4,2), BFP4, BFP6, Oltron, ...}, default BBFP(4,2)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "accel/encoders.hpp"
#include "accel/gemm_executor.hpp"
#include "bbal/session.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace bbal;
  using namespace bbal::accel;

  const std::string strategy = argc > 1 ? argv[1] : "BBFP(4,2)";
  const int seq = argc > 2 ? std::atoi(argv[2]) : 512;

  // Parse the strategy once; every downstream consumer (PE design,
  // encoder sizing, bit-exact GEMM) keys off the same spec.
  const auto spec = quant::StrategySpec::parse(strategy);
  if (!spec.is_ok()) {
    std::fprintf(stderr, "bad strategy: %s\n", spec.message().c_str());
    return 1;
  }
  const auto bound = with_strategy(AcceleratorConfig{}, spec.value());
  if (!bound.is_ok()) {
    std::fprintf(stderr, "accelerator: %s\n", bound.message().c_str());
    return 1;
  }
  const AcceleratorConfig& cfg = bound.value();

  std::printf("BBAL accelerator simulation — strategy %s, %dx%d PEs\n",
              cfg.pe.name.c_str(), cfg.array_rows, cfg.array_cols);
  const auto fmt = spec.value().block_format();
  std::printf("PE area: %.1f um2 each, array %.0f um2, encoders %.0f um2\n\n",
              cfg.pe.area_um2(hw::CellLibrary::tsmc28()),
              cfg.pe_array_area_um2(),
              fmt.is_ok() ? encoder_area_um2(fmt.value(), cfg.array_cols)
                          : 0.0);

  const llm::ModelConfig model = llm::config_by_name("Llama-7B");
  const auto workload = prefill_gemms(model, seq);

  TextTable table({"GEMM", "M", "K", "N", "Cycles", "Util", "DRAM KB"});
  GemmStats total;
  for (const GemmShape& g : workload) {
    const GemmStats s = simulate_gemm(cfg, g);
    total += s;
    table.add_row({g.tag, std::to_string(g.m), std::to_string(g.k),
                   std::to_string(g.n), TextTable::num(s.cycles, 0),
                   TextTable::num(s.utilization(cfg) * 100.0, 1) + "%",
                   TextTable::num(s.dram_bytes / 1024.0, 1)});
    if (table.render().size() > 4000) break;  // keep the demo short
  }
  table.print();

  // The whole prefill as one cost-only Session.
  auto session = Session::create({.config = model,
                                  .matmul = strategy,
                                  .accelerator = cfg,
                                  .prefill_seq = seq,
                                  .skip_accuracy = true});
  if (!session.is_ok()) {
    std::fprintf(stderr, "session: %s\n", session.message().c_str());
    return 1;
  }
  const auto report = session.value().evaluate().expect("evaluate");
  const RunStats& run = report.run;
  std::printf("\nWhole prefill (seq %d): %.2f Mcycles, %.2f ms @ %.1f GHz, "
              "%.1f GOPS, util %.1f%%\n",
              seq, run.gemm.cycles / 1e6, run.seconds * 1e3, cfg.freq_ghz,
              run.throughput_gops, run.gemm.utilization(cfg) * 100.0);
  std::printf("Energy: core %.1f uJ | buffer %.1f uJ | DRAM %.1f uJ | "
              "static %.1f uJ | total %.1f uJ\n",
              run.energy.core_j * 1e6, run.energy.buffer_j * 1e6,
              run.energy.dram_j * 1e6, run.energy.static_j * 1e6,
              run.energy.total_j() * 1e6);
  std::printf("Weight footprint under %s: %.2f MB\n", cfg.pe.name.c_str(),
              report.memory_footprint_bytes / (1024.0 * 1024.0));

  // Functional check: the integer-datapath GEMM against FP32.
  if (fmt.is_ok()) {
    Rng rng(1);
    llm::Matrix a(4, 64), w(64, 4);
    for (float& v : a.flat()) v = static_cast<float>(rng.gaussian());
    for (float& v : w.flat()) v = static_cast<float>(rng.gaussian());
    const llm::Matrix q = execute_gemm_bit_exact(a, w, fmt.value(),
                                                 fmt.value());
    const llm::Matrix exact = llm::matmul(a, w);
    double max_err = 0.0;
    for (int i = 0; i < q.rows(); ++i)
      for (int j = 0; j < q.cols(); ++j)
        max_err = std::max(max_err, static_cast<double>(std::fabs(
                                        q.at(i, j) - exact.at(i, j))));
    std::printf("\nBit-exact %s GEMM vs FP32 reference: max |error| = %.4f "
                "(quantisation error, not a bug)\n",
                fmt.value().name().c_str(), max_err);
  }
  return 0;
}
