// Outside-in tracing for the benchmark's traced runs. The library has no
// timers of its own, so the benchmark registers decorated backend factories
// through the public BackendRegistry::register_family: a decorated
// MatmulBackend times prepare_weights / matmul / matmul_dynamic and a
// decorated NonlinearBackend times softmax / silu, each writing into one
// process-wide TraceRecord. Decoration never changes arithmetic — every
// call forwards to a backend built exactly like the built-in one — so a
// traced run must reproduce the untraced outputs bit for bit (the benchmark
// checks it).
//
// Threading: the record is written without locks. Traced runs execute with
// a one-executor global thread pool, where every parallel_for runs inline
// on the calling thread, so exactly one thread ever touches the record.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

namespace perfbench {

/// Projection classes of the transformer's prepared weights, keyed by the
/// tag Transformer passes to prepare_weights.
enum class GemmKind { kQkv = 0, kWo, kFfn, kLmHead };
inline constexpr int kGemmKinds = 4;

/// Weight GEMMs with M at or below this count as small-M: the serve
/// workloads' max_batch, so every decode-only tick is small-M.
inline constexpr int kSmallM = 4;

struct GemmBucket {
  double seconds = 0.0;
  std::int64_t calls = 0;
  std::int64_t rows = 0;  ///< sum of M over the calls
  std::int64_t macs = 0;
};

/// One Decoder::step_groups forward as the decorators saw it: the context
/// each stacked row attended over (layer-0 softmax widths, one per row) and
/// how many rows reached the LM head (one per group).
struct ObservedTick {
  std::vector<int> row_contexts;
  int groups = 0;
};

struct TraceRecord {
  double prepare_weights_s = 0.0;
  GemmBucket gemm[kGemmKinds];
  GemmBucket small_m;  ///< weight GEMMs with M <= kSmallM
  GemmBucket large_m;  ///< weight GEMMs with M > kSmallM
  GemmBucket dynamic;  ///< matmul_dynamic (activation x activation)
  double softmax_s = 0.0;
  double silu_s = 0.0;
  std::int64_t nl_elements = 0;
  /// (block format name, M, K) -> weight-GEMM calls on a block-format
  /// backend: the activation-quantise shapes the replay times.
  std::map<std::tuple<std::string, int, int>, std::int64_t> act_shapes;
  std::map<int, std::int64_t> softmax_widths;  ///< width -> calls
  std::map<int, std::int64_t> silu_widths;     ///< width -> calls
  /// K and V rows appended to the KV cache: 2 x rows of every wk GEMM.
  std::int64_t kv_rows = 0;
  std::vector<ObservedTick> ticks;  ///< only while record_ticks is set

  /// Host seconds spent inside decorated run-time calls (GEMMs and the
  /// nonlinear unit; prepare_weights excluded).
  [[nodiscard]] double decorated_seconds() const;
};

/// Register decorated factories for the strategy families the workloads
/// use (FP32, FP16, BFP, BBFP, Oltron, Olive, OmniQuant, BBFP-LUT). Call
/// once, before any backend is built.
void install_tracing_factories();

/// Backends built while decorating is on come out decorated; otherwise the
/// factories return the plain backend, identical to the built-in one.
void set_decorating(bool on);

/// Record each step_groups forward as an ObservedTick (serve workloads).
void set_record_ticks(bool on);

/// The record every decorated backend writes to.
[[nodiscard]] TraceRecord& trace_record();

}  // namespace perfbench
