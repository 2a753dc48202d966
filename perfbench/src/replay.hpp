// Replayed per-layer metrics and the simulated-clock attribution. Some
// library work cannot be split from outside — activation quantisation runs
// inside MatmulBackend::matmul, KV encode/decode inside the paged pool,
// tick pricing inside Engine::run — so the benchmark times the layer's
// public function on the shapes the traced run observed instead.
#pragma once

#include <cstdint>
#include <string>

#include "accel/config.hpp"
#include "llm/model.hpp"
#include "serve/request.hpp"
#include "trace.hpp"

namespace perfbench {

/// Host ns per element of BlockQuantMatmulBackend::quantise_activations_into
/// over the block-format GEMM shapes in `record`, weighted by their call
/// counts (0 when no block-format GEMM ran).
[[nodiscard]] double replay_act_quantise_ns_per_elem(const TraceRecord& record,
                                                     std::uint64_t seed);

struct KvCodecCost {
  double encode_ns_per_row = 0.0;
  double decode_ns_per_row = 0.0;
};

/// Host ns per d_model-float row through quant::KvPageCodec in `format`.
[[nodiscard]] KvCodecCost replay_kv_codec(const std::string& format,
                                          int d_model, std::uint64_t seed);

/// Host microseconds per accel::simulate_workload call on the tick
/// workloads rebuilt from the observed ticks, the way serve::Engine builds
/// them: one decode_step_gemms list per one-row flight, one
/// prefill_chunk_gemms list per chunk.
[[nodiscard]] double replay_price_us_per_tick(
    const TraceRecord& record, const bbal::llm::ModelConfig& cfg,
    const bbal::accel::AcceleratorConfig& accel);

/// Host microseconds per accel::simulate_workload call on one sweep item's
/// workload (a teacher-forced pass over `seq` tokens).
[[nodiscard]] double replay_price_us_per_item(
    const bbal::llm::ModelConfig& cfg,
    const bbal::accel::AcceleratorConfig& accel, int seq);

/// Simulated cycles of one serving run, split the way the host profile is.
struct SimCycles {
  /// Projection GEMMs: the report's total minus attention.
  double proj = 0.0;
  /// Attention score + context GEMMs, priced with accel::simulate_gemm on
  /// the observed softmax widths (one row's attention per n_heads calls).
  double attn = 0.0;
  /// Softmax and SiLU on the BBAL nonlinear unit (nl::bbal_nl_unit_cost),
  /// which serve::Engine does not price.
  double nl_unpriced = 0.0;
};

/// `reps` is how many traced repetitions `record` accumulated.
[[nodiscard]] SimCycles simulated_cycles(
    const TraceRecord& record, int reps, const bbal::serve::Report& report,
    const bbal::llm::ModelConfig& cfg,
    const bbal::accel::AcceleratorConfig& accel);

}  // namespace perfbench
