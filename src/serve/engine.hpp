// bbal::serve::Engine — continuous-batching request scheduler over the
// quantised backends: the repo's first *online* workload (ROADMAP: serve
// decode-phase traffic, the bottleneck BBAL's datapath targets in Fig. 1b).
//
// The engine owns ONE quantised pipeline — a MatmulBackend +
// NonlinearBackend pair resolved through the BackendRegistry with the
// weights prepared (quantised) exactly once at engine construction, plus
// a Transformer and a Decoder shared by every request (the quantised
// weight footprint is surfaced as Report::weights_bytes; it does not
// scale with max_batch). max_batch is purely an admission cap: how many
// requests may be in flight per tick. Requests queue in submit() order;
// run() drives one run-state object through the tick phases below, each
// one function in engine.cpp:
//
//   arrive   deliver due arrivals; retire cancelled and expired requests
//            (queued or active) through the one retirement path,
//   admit    admit queued requests into free batch slots in the order the
//            configured SchedulerPolicy picks (fifo / sjf / prefix-aware,
//            see serve/policy.hpp), gated on KV pages,
//   plan     every decoding flight steps one token (plus its draft window
//            when speculating); prefilling flights are granted up to
//            prefill_chunk prompt tokens each under the tick-wide
//            prefill_budget (serve::plan_prefill; docs/PREFILL.md),
//   reserve  reserve each flight's granted KV positions in the paged pool;
//            a failure suspends the flight or retires it with a typed
//            reason,
//   draft    the draft pipeline proposes tokens (speculative runs only),
//   price    replay the tick's combined GEMM workload on the accelerator
//            model plus its KV-cache traffic on an hw::sram macro (when an
//            accelerator is attached),
//   forward  advance the whole mix in ONE fused Decoder::step_groups
//            forward — decode rows and prefill-chunk rows stack into a
//            single (rows x d_model) matrix, so each projection is one
//            batched GEMM (activations quantised once, rows tiled over
//            common::ThreadPool::global()) while attention stays per
//            sequence and causal within a chunk,
//   emit     turn logits into tokens (greedy; a decode flight's verify
//            window accepts its longest matching draft prefix),
//   account  stamp per-request clocks as tokens land and retire the
//            flights that reached their budget.
//
// Time is the engine's own simulated tick (one fused decode step = one
// tick). A submitted request carrying an open-loop arrival_tick (see
// serve::load) is invisible to the scheduler before its arrival: run()
// delivers arrivals at the top of every tick, and an engine with nothing
// active jumps its clock straight to the next arrival (idle ticks execute
// no step and cost no simulated time). Closed-loop traffic is the
// arrival_tick == 0 special case and is byte-exact with the pre-open-loop
// engine. Per-request queueing delay (queue_ticks), inter-token gaps and
// goodput against an optional serve::Slo land in the report.
//
// A request's KV state lives in a run-scoped serve::PagedKVPool
// (fixed-size token pages, refcounted, copy-on-write) and travels with
// the request — a finished request frees its batch slot for the next
// queued one immediately, mid-run. Under the prefix-aware policy,
// requests with a common prompt prefix attach the same physical pages, so
// the prefix is stored (and prefilled) once instead of once per request;
// see docs/SERVING.md for the full design.
//
// Determinism: every llm::matmul output row is an independent serial
// double accumulation, so row r of the fused batched GEMM is bit-identical
// to the same sequence stepped alone — a K-request batched run produces
// bit-identical token streams to K serial single-request decodes at any
// BBAL_THREADS and under any policy (tested in test_serve; gated by
// BENCH_serve.json in CI).
//
//   auto session = bbal::Session::create({.prepared = model,
//                                         .matmul = "BBFP(4,2)",
//                                         .accelerator = accel_cfg})
//                      .expect("session");
//   auto engine = serve::Engine::from_session(session, /*max_batch=*/8)
//                     .expect("engine");
//   for (const auto& prompt : prompts)
//     engine.submit({prompt, /*max_new_tokens=*/32});
//   serve::Report report = engine.run();
//   // report.results[i].generated, .ttft_seconds, .tokens_per_second,
//   // report.p99_step_seconds, report.throughput_tokens_per_second
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "accel/config.hpp"
#include "bbal/session.hpp"
#include "llm/decoder.hpp"
#include "serve/faults.hpp"
#include "serve/load.hpp"
#include "serve/paged_kv.hpp"
#include "serve/policy.hpp"
#include "serve/request.hpp"

namespace bbal::serve {

class Engine {
 public:
  struct Options {
    /// Concurrent in-flight requests per tick (>= 1). Purely an
    /// admission cap: the engine holds one shared backend pair whose
    /// weights are quantised once at construction, so raising max_batch
    /// widens the fused per-tick GEMMs without adding weight copies.
    int max_batch = 4;
    /// Accelerator pricing each tick's workload; create() rebinds its PE
    /// design to the engine's matmul strategy through accel::with_strategy
    /// (Session's rule).
    /// Without it the report carries no simulated timing (has_cost false).
    std::optional<accel::AcceleratorConfig> accelerator;
    /// Admission/scheduling policy: "fifo" (default), "sjf" or
    /// "prefix-aware" (which also enables prompt-prefix page sharing).
    /// Unknown names are create() errors.
    std::string policy = "fifo";
    /// Positions per KV page (see PagedKVPool::Options::page_tokens).
    int kv_page_tokens = 16;
    /// Storage format of the paged KV cache: "FP32" (default), "INT8",
    /// "BFP<m>" or "BBFP(<m>,<o>)" — see quant::KvFormat and
    /// docs/KV_QUANT.md. Rows are quantised on append and dequantised on
    /// attention read, so the decode arithmetic is unchanged; kv_bytes_peak
    /// and kv_energy_j are priced on the packed pool. Unknown names are
    /// create() errors. FP32 keeps streams byte-exact with the
    /// pre-quantised-KV engine.
    std::string kv_format = "FP32";
    /// KV pool capacity in pages; 0 auto-sizes each run() so every valid
    /// request could be resident at once (admission then only ever defers
    /// on slots, and page exhaustion is impossible). An explicit cap can
    /// starve: a request that cannot fit even alone is reported as an
    /// error result, and tighter mixes admit more slowly.
    int kv_pool_pages = 0;
    /// Service-level objective evaluated per completed request (TTFT and
    /// max inter-token gap on the simulated clock; see serve::Slo).
    /// Requires an accelerator — without priced time there is nothing to
    /// hold the SLO against, so create() rejects the combination. The
    /// report then carries goodput_under_slo and per-request slo_ok.
    std::optional<Slo> slo;
    /// Prompt tokens a prefilling request may consume per tick, fed
    /// through Decoder::step_groups as one chunk — one (chunk x d_model)
    /// GEMM per projection instead of chunk single-token ticks (see
    /// docs/PREFILL.md). 1 (the default) is the legacy one-token-per-tick
    /// lockstep, byte-exact with the pre-chunking engine; streams are
    /// bit-identical at any chunk size by construction.
    int prefill_chunk = 1;
    /// Cap on prefill tokens granted per tick across all flights
    /// (serve::plan_prefill), bounding how much a tick of prompt
    /// streaming can stretch the decode batch's inter-token gap. 0 (the
    /// default) is uncapped: every prefilling flight takes a full chunk
    /// every tick. The earliest prefilling flight always advances by at
    /// least one token, so prefill can never starve.
    int prefill_budget = 0;
    /// Speculative decoding: matmul strategy of the cheap draft backend
    /// ("" = off). Per cycle the draft proposes up to draft_k tokens for
    /// every decoding flight and the target backend verifies them all —
    /// plus the bonus token — in ONE batched forward through the
    /// step_groups M-axis, accepting the longest matching prefix under
    /// greedy argmax and rolling the target's KV pages back past the
    /// first rejection (PagedKVPool::truncate). Output streams are
    /// bit-identical to the target backend alone by construction; only
    /// the simulated cost changes (docs/SPECULATIVE.md). The draft must
    /// be a registered matmul strategy and — when an accelerator is
    /// attached — carry a hardware cost model: draft forwards are priced
    /// on an iso-area re-provisioning of the target's PE budget. Both
    /// knobs must be set together; the draft_k = 0 default reproduces
    /// the non-speculative engine byte-exactly.
    std::string draft;
    /// Tokens drafted per speculation cycle (>= 1 when draft is set; 0 =
    /// off). Capped per flight so a cycle never emits past
    /// max_new_tokens.
    int draft_k = 0;
    /// Deterministic fault-injection plan replayed against this engine's
    /// simulated clock (see serve/faults.hpp and docs/ROBUSTNESS.md):
    /// pool-exhaustion windows, transient reserve failures, client
    /// cancellations and arrival spikes, all keyed by tick. The empty
    /// default injects nothing and keeps every committed BENCH row
    /// byte-exact.
    FaultPlan faults;
    /// Decode preemption: under KV-pool pressure (admission or a reserve
    /// blocked on pages) or deadline risk, the SchedulerPolicy's
    /// pick_preempt hook suspends a decoding flight — its private pages
    /// are released (shared pages survive via refcounts) and the flight
    /// requeues; on re-admission its prompt + generated-so-far tokens
    /// re-prefill through the chunked-prefill path, continuing the stream
    /// bit-identically. Also switches admission to an optimistic page
    /// gate (prompt + 1 positions instead of the full completion budget),
    /// so an explicitly undersized pool overcommits and recovers instead
    /// of refusing admission. Off by default: the pre-preemption engine,
    /// byte-exact.
    bool preempt = false;
    /// Per-request bound on suspensions (>= 0). A flight that would be
    /// preempted past the bound retires with the typed reason
    /// `preempted_unrecoverable` instead of thrashing forever.
    int max_preemptions = 8;
  };

  /// Build an engine over a prepared model and a strategy pair. All
  /// errors (unknown strategy, wrong capability, no cost model for the
  /// accelerator, bad max_batch) surface here, not in run().
  [[nodiscard]] static Result<Engine> create(
      std::shared_ptr<const llm::PreparedModel> model,
      const quant::StrategySpec& matmul, const quant::StrategySpec& nonlinear,
      Options options);
  /// Name-based convenience ("BBFP(4,2)", "INT8", ...).
  [[nodiscard]] static Result<Engine> create(
      std::shared_ptr<const llm::PreparedModel> model,
      std::string_view matmul, std::string_view nonlinear, Options options);
  [[nodiscard]] static Result<Engine> create(
      std::shared_ptr<const llm::PreparedModel> model,
      std::string_view matmul, std::string_view nonlinear = "FP32") {
    return create(std::move(model), matmul, nonlinear, Options{});
  }

  /// Serve a Session's configuration: same prepared model (prepared now if
  /// the session was lazy), same strategy pair, same accelerator.
  [[nodiscard]] static Result<Engine> from_session(Session& session,
                                                   int max_batch = 4);

  Engine(Engine&&) noexcept = default;
  Engine& operator=(Engine&&) noexcept = default;

  /// Queue a request; returns its id — its position in the next run()'s
  /// Report::results (ids restart at 0 after each run). A malformed
  /// request (empty prompt, non-positive budget, token out of vocabulary)
  /// is accepted here and reported as an error result by run() —
  /// submission never aborts the batch.
  std::uint64_t submit(Request request);

  /// Requests queued and not yet consumed by a run().
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// Run the continuous-batching loop until every queued request is
  /// complete. Blocking; repeatable (a later submit() + run() starts a
  /// fresh report with fresh ids).
  [[nodiscard]] Report run();

  [[nodiscard]] const llm::ModelConfig& model_config() const {
    return prepared_->config;
  }
  [[nodiscard]] const quant::StrategySpec& matmul_strategy() const {
    return matmul_;
  }
  /// Speculative decoding configured (a draft backend is attached)?
  [[nodiscard]] bool speculative() const { return options_.draft_k > 0; }
  /// Bytes of quantised weight storage held by the shared backend —
  /// independent of max_batch (weights are prepared exactly once).
  [[nodiscard]] std::int64_t weights_bytes() const {
    return target_.model->weights_bytes();
  }
  [[nodiscard]] bool has_accelerator() const {
    return options_.accelerator.has_value();
  }

 private:
  /// One run()'s state and its tick phases (engine.cpp).
  struct Run;
  /// A backend pair with the model and batch-stepping decoder wired over
  /// it. The engine holds the target pipeline (weights quantised once)
  /// and, when speculative(), a draft pipeline: the same prepared weights
  /// quantised a second time under the draft strategy, never counted in
  /// weights_bytes().
  struct Pipeline {
    std::unique_ptr<llm::MatmulBackend> matmul;
    std::unique_ptr<llm::NonlinearBackend> nonlinear;
    std::unique_ptr<llm::Transformer> model;
    std::unique_ptr<llm::Decoder> decoder;
    [[nodiscard]] static Result<Pipeline> build(
        const llm::PreparedModel& prepared, const quant::StrategySpec& matmul,
        const quant::StrategySpec& nonlinear);
  };

  Engine() = default;

  /// The validated options; the accelerator's PE design is bound to the
  /// engine's matmul strategy (Session's rule).
  Options options_;
  std::shared_ptr<const llm::PreparedModel> prepared_;
  quant::StrategySpec matmul_;
  quant::StrategySpec nonlinear_;
  quant::StrategySpec draft_;  ///< valid when speculative()
  std::unique_ptr<SchedulerPolicy> policy_;
  quant::KvFormat kv_format_{};
  /// Iso-area re-provisioning of the target accelerator's PE budget for
  /// the draft strategy: what draft forwards are priced on.
  std::optional<accel::AcceleratorConfig> draft_accel_;
  Pipeline target_;
  Pipeline drafter_;  ///< empty unless speculative()
  std::deque<Request> queue_;
};

}  // namespace bbal::serve
