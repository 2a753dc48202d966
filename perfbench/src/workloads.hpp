// The benchmark's three workloads. Each builds its inputs from the seed,
// runs one repetition of its work per run() call, and checks its outputs:
//
//   decode_long     closed-loop synthetic mix, short prompts and long
//                   generations, the paper's full stack (BBFP(4,2) matmul,
//                   BBFP-LUT(10,5) nonlinear unit), FP32 KV, lockstep.
//   prefill_shared  open-loop Poisson mix sharing a 96-token system prompt,
//                   prefix-aware policy, chunked prefill, BBFP(4,2) KV pages.
//   table2_sweep    the 11 Table II strategies through SweepRunner on one
//                   prepared Llama-7B, checked against BENCH_table2.json.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accel/config.hpp"
#include "llm/model.hpp"
#include "serve/request.hpp"

namespace perfbench {

/// What one repetition produced.
struct RepOutcome {
  std::int64_t tokens = 0;     ///< token positions forwarded
  std::int64_t attempted = 0;  ///< requests served or sweep items run
  std::int64_t failed = 0;     ///< of those, not ok or not as pinned
  /// Exact digest of every output (stream hash, or every sweep row). Each
  /// repetition of one run must produce the same fingerprint.
  std::string fingerprint;
};

/// Result of a workload's independent output check.
struct Verdict {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;  ///< one line per failure
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const bbal::llm::ModelConfig& config() const = 0;
  /// Model preparation plus engine construction, weight quantisation
  /// included: one call is one setup_s sample. Replaces the last setup.
  virtual void setup() = 0;
  /// Host seconds the last setup() spent in bbal::prepare_shared.
  [[nodiscard]] virtual double last_prepare_seconds() const = 0;
  /// Build the decorated copy the traced repetitions run on (called with
  /// decorating on). A no-op where backends are built per repetition.
  virtual void setup_traced() = 0;
  /// One repetition of the workload's work.
  virtual RepOutcome run(bool traced) = 0;
  /// Check the last repetition's outputs against an independent reference.
  [[nodiscard]] virtual Verdict verify() = 0;
  /// KV-cache storage format of the serve engine ("" when there is none).
  [[nodiscard]] virtual std::string kv_format() const = 0;
  /// Accelerator the workload prices on.
  [[nodiscard]] virtual const bbal::accel::AcceleratorConfig& accelerator()
      const = 0;
  /// The last repetition's serving report (nullptr for the sweep).
  [[nodiscard]] virtual const bbal::serve::Report* last_report() const = 0;
};

/// Build a workload by name; nullptr for an unknown name. `tiny` selects
/// the self-test's size. `baseline_path` is the committed BENCH_table2.json
/// the sweep's rows are diffed against.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, std::uint64_t seed, bool tiny,
    const std::string& baseline_path);

}  // namespace perfbench
