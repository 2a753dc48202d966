// Cycle-level performance/energy model of the BBAL accelerator
// (DnnWeaver-style, DESIGN.md substitution #5).
//
// Weight-stationary dataflow: weights tile into RxC blocks held in the PE
// array; activations stream row-wise; partial sums leave through the FP
// encoder/adder. Compute and DRAM transfers overlap via double buffering,
// so each tile pass costs max(compute, memory) cycles.
#pragma once

#include <cstdint>
#include <span>

#include "accel/config.hpp"
#include "accel/workload.hpp"

namespace bbal::accel {

struct GemmStats {
  std::int64_t macs = 0;
  double cycles = 0.0;
  double compute_cycles = 0.0;
  double memory_cycles = 0.0;
  double dram_bytes = 0.0;
  double weight_buffer_accesses = 0.0;  // element reads
  double act_buffer_accesses = 0.0;
  double out_buffer_accesses = 0.0;

  [[nodiscard]] double utilization(const AcceleratorConfig& cfg) const {
    return cycles > 0.0
               ? static_cast<double>(macs) / (cycles * cfg.pe_count())
               : 0.0;
  }

  GemmStats& operator+=(const GemmStats& other);
};

/// Simulate one GEMM on the PE array.
[[nodiscard]] GemmStats simulate_gemm(const AcceleratorConfig& cfg,
                                      const GemmShape& shape);

struct EnergyBreakdown {
  double core_j = 0.0;
  double buffer_j = 0.0;
  double dram_j = 0.0;
  double static_j = 0.0;
  [[nodiscard]] double total_j() const {
    return core_j + buffer_j + dram_j + static_j;
  }
  EnergyBreakdown& operator+=(const EnergyBreakdown& other) {
    core_j += other.core_j;
    buffer_j += other.buffer_j;
    dram_j += other.dram_j;
    static_j += other.static_j;
    return *this;
  }
};

struct RunStats {
  GemmStats gemm;
  double seconds = 0.0;
  double throughput_gops = 0.0;  // 2 * MACs / time
  EnergyBreakdown energy;
};

/// Simulate a GEMM workload end to end (cycles -> time -> energy; the
/// energy uses the config's PE design and buffers).
[[nodiscard]] RunStats simulate_workload(const AcceleratorConfig& cfg,
                                         std::span<const GemmShape> gemms);

}  // namespace bbal::accel
