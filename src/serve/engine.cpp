#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "accel/simulator.hpp"
#include "accel/workload.hpp"
#include "bbal/registry.hpp"
#include "common/stats.hpp"
#include "hw/sram.hpp"
#include "serve/workload.hpp"

namespace bbal::serve {
namespace {

/// FNV-1a over the 4 little-endian bytes of `value`.
void fnv32_mix(std::uint32_t& hash, std::uint32_t value) {
  for (int byte = 0; byte < 4; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= 16777619u;
  }
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// What outlives an admission, per request. The RequestResult records
/// TTFT, the largest inter-token gap and the step count as they happen;
/// this holds the rest of what a suspension must carry across the gap.
struct RequestState {
  /// A suspended request's continuation prompt: the original prompt plus
  /// every token generated so far. Re-admitting it re-prefills exactly the
  /// token prefix its KV held, so the resumed stream is bit-identical (KV
  /// rows are pure functions of the token prefix; see docs/ROBUSTNESS.md).
  /// Empty until the first suspension.
  std::vector<int> continuation;
  std::int64_t suspended_at = -1;  ///< suspension clock; -1 = not suspended
  std::int64_t cancel_at = -1;     ///< earliest planned cancellation tick
  /// Both clocks at the arrival instant, so TTFT and total latency stay
  /// arrival-relative — the client-visible metrics.
  double arrival_seconds = 0.0;
  double arrival_wall = 0.0;
  /// Simulated clock at the previous token emission (inter-token gaps).
  double last_emit_seconds = 0.0;
  bool registered = false;  ///< prompt prefix registered in the pool
};

/// An admitted request mid-flight: its pool sequence and this tick's plan.
/// prompt_pos starts at the sequence's shared prefix length, so a
/// prefix-hit request prefills only the unshared prompt tail.
struct InFlight {
  std::size_t request_index = 0;  ///< into the run's requests/results
  PagedKVPool::SeqId seq = -1;
  PagedKVView view;
  int prompt_pos = 0;
  int last_token = -1;  ///< most recent generated token (decode input)
  /// Rows this flight contributes to the current tick's fused step:
  /// 1 + spec_k for a decode step, the granted chunk size while
  /// prefilling, 0 when the tick's prefill budget passed it over.
  int tick_rows = 0;
  /// This tick's reserve failed transiently (injected fault, frozen
  /// window, or pool pressure with preemption on): suspend and requeue
  /// instead of retiring — the flight resumes bit-identically later.
  bool requeue = false;
  /// Re-prefilling after a suspension: the flight's prefill rows are
  /// recompute work, attributed to Report::preempt_recompute_seconds.
  bool resuming = false;
  /// Speculative per-cycle state (docs/SPECULATIVE.md). The draft
  /// sequence is an ephemeral fork of `seq` — it shares every verified
  /// page (copy-on-write isolates the draft's own appends) and is
  /// released at the end of the cycle. spec_k is 0 without speculation.
  int spec_k = 0;  ///< tokens drafted this cycle (budget-capped)
  PagedKVPool::SeqId draft_seq = -1;
  PagedKVView draft_view;
  std::vector<int> proposals;  ///< this cycle's drafted tokens
  int tick_base = 0;           ///< target KV length at tick start
  int tick_emitted = 0;        ///< tokens emitted by this tick (0..spec_k+1)
};

}  // namespace

// --- Construction ------------------------------------------------------------

Result<Engine::Pipeline> Engine::Pipeline::build(
    const llm::PreparedModel& prepared, const quant::StrategySpec& matmul,
    const quant::StrategySpec& nonlinear) {
  using R = Result<Pipeline>;
  const BackendRegistry& registry = BackendRegistry::instance();
  auto mm = registry.make_matmul(matmul);
  if (!mm.is_ok()) return R::error(mm.message());
  auto nl = registry.make_nonlinear(nonlinear);
  if (!nl.is_ok()) return R::error(nl.message());
  Pipeline pipeline;
  pipeline.matmul = std::move(mm).value();
  pipeline.nonlinear = std::move(nl).value();
  pipeline.model = std::make_unique<llm::Transformer>(
      prepared.config, prepared.weights, *pipeline.matmul,
      *pipeline.nonlinear);
  pipeline.model->set_logit_scale(prepared.logit_scale);
  pipeline.decoder = std::make_unique<llm::Decoder>(*pipeline.model);
  return pipeline;
}

Result<Engine> Engine::create(
    std::shared_ptr<const llm::PreparedModel> model,
    const quant::StrategySpec& matmul, const quant::StrategySpec& nonlinear,
    Options options) {
  using R = Result<Engine>;
  if (!model) return R::error("no model: pass a prepared model");

  // --- Validation: collect every problem, report them all at once ---
  // One table-driven pass instead of first-failure-only piecemeal checks:
  // a caller who got three knobs wrong fixes all three from one Status
  // message ("; "-joined, each clause unchanged from the old errors).
  std::vector<std::string> problems;
  const auto flag = [&problems](bool bad, std::string message) {
    if (bad) problems.push_back(std::move(message));
  };
  const struct {
    const char* label;
    int value;
    int min;
    const char* note;  ///< appended to the bound (e.g. " (0 = auto)")
  } int_rules[] = {
      {"max_batch", options.max_batch, 1, ""},
      {"kv_page_tokens", options.kv_page_tokens, 1, ""},
      {"kv_pool_pages", options.kv_pool_pages, 0, " (0 = auto)"},
      {"prefill_chunk", options.prefill_chunk, 1, ""},
      {"prefill_budget", options.prefill_budget, 0, " (0 = uncapped)"},
      {"draft_k", options.draft_k, 0, " (0 = no speculation)"},
      {"max_preemptions", options.max_preemptions, 0, ""},
  };
  for (const auto& rule : int_rules)
    flag(rule.value < rule.min,
         std::string(rule.label) + " must be >= " + std::to_string(rule.min) +
             rule.note + ", got " + std::to_string(rule.value));
  flag(options.draft_k > 0 && options.draft.empty(),
       "draft_k > 0 needs a draft strategy (Options::draft)");
  flag(options.draft_k == 0 && !options.draft.empty(),
       "draft: set draft_k >= 1 to enable speculation with " + options.draft);

  auto policy = make_policy(options.policy);
  if (!policy.is_ok()) problems.push_back(policy.message());
  auto kv_format = quant::KvFormat::parse(options.kv_format);
  if (!kv_format.is_ok())
    problems.push_back("kv_format: " + kv_format.message());

  const BackendRegistry& registry = BackendRegistry::instance();
  {
    const auto caps = registry.capabilities(matmul);
    if (!caps.is_ok()) {
      problems.push_back("matmul: " + caps.message());
    } else {
      flag(!caps.value().matmul, "matmul: " + matmul.to_string() +
                                     " is not a linear-layer strategy");
    }
    const auto nl_caps = registry.capabilities(nonlinear);
    if (!nl_caps.is_ok()) {
      problems.push_back("nonlinear: " + nl_caps.message());
    } else {
      flag(!nl_caps.value().nonlinear, "nonlinear: " + nonlinear.to_string() +
                                           " is not a nonlinear strategy");
    }
  }

  // Speculation's second backend resolves through the same registry and
  // capability gate as the target — the draft is a full matmul pipeline
  // over the same prepared weights.
  std::optional<quant::StrategySpec> draft_spec;
  if (options.draft_k > 0 && !options.draft.empty()) {
    auto parsed = quant::StrategySpec::parse(options.draft);
    if (!parsed.is_ok()) {
      problems.push_back("draft: " + parsed.message());
    } else {
      const auto caps = registry.capabilities(parsed.value());
      if (!caps.is_ok()) {
        problems.push_back("draft: " + caps.message());
      } else if (!caps.value().matmul) {
        problems.push_back("draft: " + parsed.value().to_string() +
                           " is not a linear-layer strategy");
      } else {
        draft_spec = parsed.value();
      }
    }
  }

  // Accelerator: same binding rule as Session — the engine's matmul
  // strategy drives the cost model (accel::with_strategy). Speculation on a
  // priced engine also prices the draft forwards, on an iso-area
  // re-provisioning of the bound target's PE budget (Fig. 8's comparison
  // rule), so the reported speedup is what swapping drafting work onto
  // cheaper PEs of the same silicon actually buys. An SLO is judged on
  // simulated time, so it additionally needs that accelerator.
  std::optional<accel::AcceleratorConfig> draft_accel;
  if (options.accelerator) {
    auto bound = accel::with_strategy(std::move(*options.accelerator), matmul);
    if (!bound.is_ok()) {
      problems.push_back("accelerator: " + bound.message());
    } else {
      options.accelerator = std::move(bound).value();
      if (draft_spec) {
        auto priced = accel::make_iso_area_config(
            *draft_spec, options.accelerator->pe_array_area_um2(),
            options.accelerator->dram_gbps);
        if (!priced.is_ok())
          problems.push_back("draft: " + priced.message());
        else
          draft_accel = std::move(priced).value();
      }
    }
  }
  if (options.slo) {
    flag(!options.accelerator.has_value(),
         "slo: goodput needs priced time; attach an accelerator or drop "
         "the SLO");
    flag(options.slo->ttft_seconds <= 0.0 ||
             options.slo->inter_token_seconds <= 0.0,
         "slo: thresholds must be > 0");
  }

  if (!problems.empty()) {
    std::string joined = problems.front();
    for (std::size_t i = 1; i < problems.size(); ++i)
      joined += "; " + problems[i];
    return R::error(std::move(joined));
  }

  Engine engine;
  engine.prepared_ = std::move(model);
  engine.matmul_ = matmul;
  engine.nonlinear_ = nonlinear;
  if (draft_spec) engine.draft_ = *draft_spec;
  engine.policy_ = std::move(policy).value();
  engine.kv_format_ = kv_format.value();
  engine.draft_accel_ = std::move(draft_accel);
  engine.options_ = std::move(options);

  // The weights are prepared (quantised) exactly once here, regardless of
  // max_batch — every request's row runs through the target pipeline via
  // the fused Decoder::step_groups. The draft pipeline quantises the SAME
  // prepared weights under the draft strategy, so a draft == target pair
  // runs identical arithmetic on both sides — which is what makes its
  // acceptance rate exactly 1.0.
  auto target = Pipeline::build(*engine.prepared_, matmul, nonlinear);
  if (!target.is_ok()) return R::error(target.message());
  engine.target_ = std::move(target).value();
  if (engine.speculative()) {
    auto drafter = Pipeline::build(*engine.prepared_, *draft_spec, nonlinear);
    if (!drafter.is_ok()) return R::error("draft: " + drafter.message());
    engine.drafter_ = std::move(drafter).value();
  }
  return engine;
}

Result<Engine> Engine::create(std::shared_ptr<const llm::PreparedModel> model,
                              std::string_view matmul,
                              std::string_view nonlinear, Options options) {
  using R = Result<Engine>;
  auto matmul_spec = quant::StrategySpec::parse(matmul);
  if (!matmul_spec.is_ok()) return R::error("matmul: " + matmul_spec.message());
  auto nonlinear_spec = quant::StrategySpec::parse(nonlinear);
  if (!nonlinear_spec.is_ok())
    return R::error("nonlinear: " + nonlinear_spec.message());
  return create(std::move(model), matmul_spec.value(), nonlinear_spec.value(),
                std::move(options));
}

Result<Engine> Engine::from_session(Session& session, int max_batch) {
  Options options;
  options.max_batch = max_batch;
  if (session.has_accelerator()) options.accelerator = session.accelerator();
  return create(session.prepare(), session.matmul_strategy(),
                session.nonlinear_strategy(), std::move(options));
}

// --- Scheduling --------------------------------------------------------------

std::uint64_t Engine::submit(Request request) {
  queue_.push_back(std::move(request));
  return queue_.size() - 1;
}

/// One run(): the request set, the run-scoped KV pool, the open-loop clock
/// and the run's accumulators, with one member function per tick phase.
/// Members initialise in declaration order, so each initialiser may read
/// the ones above it.
struct Engine::Run {
  Engine& e;
  const Options& opt = e.options_;
  const llm::ModelConfig& cfg = e.prepared_->config;
  std::vector<Request> requests;
  Report report;
  std::vector<RequestState> state = std::vector<RequestState>(requests.size());
  /// Valid requests ordered by (arrival_tick, submit order), so closed-loop
  /// traffic (every arrival_tick 0) reaches `waiting` in submit order.
  std::vector<std::size_t> arrivals = validate();
  PagedKVPool kv{cfg, pool_options()};
  const bool sharing = e.policy_->wants_prefix_sharing();
  /// The KV buffer macro pricing each tick's cache traffic, sized to the
  /// *packed* pool: a quantised kv_format shrinks the macro and its
  /// per-access energy along with the resident bytes.
  const hw::SramMacro kv_sram = hw::make_sram(
      static_cast<std::size_t>(kv.max_pages()) *
      static_cast<std::size_t>(kv.page_bytes()));
  /// One position's packed K+V bytes across all layers: the unit of KV
  /// traffic pricing.
  const std::int64_t token_kv_bytes =
      static_cast<std::int64_t>(cfg.n_layers) * 2 * kv.encoded_row_bytes();
  const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();

  // --- Open-loop clock and scheduling state ---
  // One executed tick advances the clock by one; an engine with nothing
  // runnable jumps straight to the next arrival (idle ticks run no step
  // and cost no simulated time).
  std::int64_t clock = 0;
  std::size_t next_arrival = 0;
  std::deque<std::size_t> waiting;
  std::vector<InFlight> active;
  /// With one shared pipeline a "slot" is just admission headroom: how
  /// many more requests this tick's fused batch may carry.
  int free_slots = opt.max_batch;
  /// A fault-plan exhaustion window covers this tick.
  bool frozen = false;
  double tick_seconds = 0.0;  ///< this tick's simulated latency

  // --- Per-tick scratch, reused across ticks ---
  std::vector<int> prefill_remaining;  ///< prompt tokens left, per flight
  std::vector<int> prefill_grants;     ///< plan_prefill output, per flight
  std::vector<int> tick_tokens;
  std::vector<llm::KVCacheView*> tick_views;
  std::vector<int> tick_counts;  ///< rows per view (step_groups)
  llm::Matrix tick_logits;
  std::vector<int> draft_tokens;               ///< draft batch, per step
  std::vector<llm::KVCacheView*> draft_views;  ///< draft batch views
  llm::Matrix draft_logits;
  std::vector<accel::GemmShape> tick_workload;   ///< target accelerator
  std::vector<accel::GemmShape> draft_workload;  ///< draft accelerator
  std::vector<accel::GemmShape> equiv_workload;  ///< target-only pricing

  // --- Run accumulators ---
  /// Sum of per-tick simulated latencies: ticks run sequentially on the
  /// shared accelerator, so this is the run's simulated makespan.
  double sim_makespan = 0.0;
  /// What a target-only engine would have spent (speculative runs).
  double target_equiv_seconds = 0.0;
  std::vector<double> token_latencies;   ///< simulated, per emitted token
  std::vector<double> inter_token_gaps;  ///< gaps between a request's tokens
  accel::EnergyBreakdown energy;
  double kv_energy_j = 0.0;
  double requeue_delay_sum = 0.0;
  std::int64_t occupancy_sum = 0;
  std::int64_t kv_pages_sum = 0;            ///< pages in use, summed per tick
  std::int64_t contiguous_peak_tokens = 0;  ///< monolithic-cache comparison

  Run(Engine& engine, std::vector<Request> submitted)
      : e(engine), requests(std::move(submitted)) {
    active.reserve(static_cast<std::size_t>(opt.max_batch));
    for (const FaultPlan::Cancellation& c : opt.faults.cancellations) {
      if (c.request < 0 || c.request >= static_cast<int>(requests.size()))
        continue;
      auto& at = state[static_cast<std::size_t>(c.request)].cancel_at;
      at = at < 0 ? c.tick : std::min(at, c.tick);
    }
    report.model = cfg.name;
    report.matmul = e.matmul_.to_string();
    report.nonlinear = e.nonlinear_.to_string();
    report.policy = std::string(e.policy_->name());
    report.kv_format = e.kv_format_.name();
    report.max_batch = opt.max_batch;
    report.prefill_chunk = opt.prefill_chunk;
    report.prefill_budget = opt.prefill_budget;
    if (e.speculative()) {
      report.draft = e.draft_.to_string();
      report.draft_k = opt.draft_k;
    }
    report.has_cost = opt.accelerator.has_value();
    report.has_slo = opt.slo.has_value();
    if (opt.slo) {
      report.slo_ttft_seconds = opt.slo->ttft_seconds;
      report.slo_inter_token_seconds = opt.slo->inter_token_seconds;
    }
    report.weights_bytes = e.weights_bytes();
    report.fault_plan = opt.faults.describe();
    report.preempt = opt.preempt;
    report.requests = static_cast<std::int64_t>(requests.size());
  }

  // --- Setup ---

  /// Stamp every result and validate up front: malformed requests become
  /// error results and are never admitted (the batch must survive a bad
  /// client). Arrival spikes rewrite the stamped workload first — the
  /// request set is unchanged, a window of arrivals just lands at once.
  std::vector<std::size_t> validate() {
    for (const FaultPlan::ArrivalSpike& spike : opt.faults.spikes)
      inject_arrival_spike(requests, spike.tick, spike.window);
    report.results.resize(requests.size());
    std::vector<std::size_t> valid;
    bool any_deadline = false;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const Request& req = requests[i];
      RequestResult& out = report.results[i];
      out.id = i;
      out.prompt_tokens = static_cast<int>(req.prompt.size());
      out.arrival_tick = req.arrival_tick;
      out.reason = FinishReason::kInvalid;  // until the request validates
      const auto bad =
          std::find_if(req.prompt.begin(), req.prompt.end(),
                       [&](int t) { return t < 0 || t >= cfg.vocab; });
      if (req.prompt.empty()) {
        out.error = "empty prompt";
      } else if (req.max_new_tokens <= 0) {
        out.error = "max_new_tokens must be > 0, got " +
                    std::to_string(req.max_new_tokens);
      } else if (req.arrival_tick < 0) {
        out.error = "arrival_tick must be >= 0, got " +
                    std::to_string(req.arrival_tick);
      } else if (req.deadline_tick < 0) {
        out.error = "deadline_tick must be >= 0, got " +
                    std::to_string(req.deadline_tick);
      } else if (req.deadline_tick > 0 &&
                 req.deadline_tick <= req.arrival_tick) {
        out.error = "deadline_tick " + std::to_string(req.deadline_tick) +
                    " must be > arrival_tick " +
                    std::to_string(req.arrival_tick);
      } else if (bad != req.prompt.end()) {
        out.error = "prompt token " + std::to_string(*bad) +
                    " outside vocabulary [0, " + std::to_string(cfg.vocab) +
                    ")";
      } else {
        out.reason = FinishReason::kNone;
        any_deadline |= req.deadline_tick > 0;
        valid.push_back(i);
      }
    }
    report.has_faults = opt.preempt || !opt.faults.empty() || any_deadline;
    std::stable_sort(valid.begin(), valid.end(),
                     [&](std::size_t a, std::size_t b) {
                       return requests[a].arrival_tick <
                              requests[b].arrival_tick;
                     });
    return valid;
  }

  /// The run-scoped pool: fresh per run, so page ids are deterministic.
  PagedKVPool::Options pool_options() const {
    PagedKVPool::Options options;
    options.page_tokens = opt.kv_page_tokens;
    options.kv_format = e.kv_format_;
    if (opt.kv_pool_pages > 0) {
      options.max_pages = opt.kv_pool_pages;
      return options;
    }
    // Auto-size: every valid request resident at once (payloads allocate
    // lazily, so headroom costs page-table slots, not memory).
    const int page = opt.kv_page_tokens;
    std::int64_t pages = 0;
    for (const std::size_t i : arrivals)
      pages += (total_positions(i) + page - 1) / page;
    if (e.speculative() && !arrivals.empty()) {
      // Speculation headroom, per concurrently-decoding flight: the
      // verify window never reserves past total_positions, but each cycle
      // transiently holds a draft fork — up to one copy-on-write tail
      // copy plus the fork's own proposal pages.
      const std::int64_t per_flight = (opt.draft_k + page - 1) / page + 2;
      pages += per_flight * std::min<std::int64_t>(
                                opt.max_batch,
                                static_cast<std::int64_t>(arrivals.size()));
    }
    options.max_pages = static_cast<int>(std::max<std::int64_t>(pages, 1));
    return options;
  }

  // --- Per-request helpers ---

  /// KV positions a request appends when it runs to its budget: prompt +
  /// max_new - 1 (the final generated token is never fed back). A resumed
  /// request's continuation has P + j tokens but only max_new - j left, so
  /// the original request still bounds its pages.
  int total_positions(std::size_t index) const {
    const Request& req = requests[index];
    return static_cast<int>(req.prompt.size()) + req.max_new_tokens - 1;
  }
  const std::vector<int>& prompt_of(std::size_t index) const {
    const std::vector<int>& continuation = state[index].continuation;
    return continuation.empty() ? requests[index].prompt : continuation;
  }
  int prompt_left(const InFlight& flight) const {
    return static_cast<int>(prompt_of(flight.request_index).size()) -
           flight.prompt_pos;
  }

  /// Does `index` fit the pool's page budget right now?
  bool fits(std::size_t index) const {
    const std::vector<int>& prompt = prompt_of(index);
    const int shared = sharing ? kv.probe_prefix_tokens(prompt) : 0;
    if (opt.preempt) {
      // Optimistic gate: admit when the *prefill* fits (prompt + first
      // generated position). Decode growth past that may exhaust the
      // pool mid-run — exactly the pressure preemption absorbs by
      // suspending a flight instead of failing one.
      const std::int64_t needed =
          kv.pages_for(static_cast<int>(prompt.size()) + 1) -
          shared / kv.page_tokens();
      return kv.stats().pages_in_use + needed <= kv.max_pages();
    }
    // Pages the active set is still going to allocate: the budget that
    // keeps mid-run exhaustion impossible under an explicit pool cap.
    std::int64_t pending = 0;
    for (const InFlight& flight : active)
      pending += kv.pages_for(total_positions(flight.request_index)) -
                 kv.pages_for(kv.length(flight.seq));
    std::int64_t needed =
        kv.pages_for(total_positions(index)) - shared / kv.page_tokens();
    // Keep the transient speculative fork affordable for every flight
    // that could be mid-cycle at once (a failed draft reservation only
    // degrades a cycle to a plain step, but admission shouldn't plan on
    // degrading).
    if (e.speculative())
      needed += static_cast<std::int64_t>(kv.pages_for(opt.draft_k) + 2) *
                static_cast<std::int64_t>(active.size() + 1);
    return kv.stats().pages_in_use + pending + needed <= kv.max_pages();
  }

  /// A deadline the request cannot make even if it ran every remaining
  /// tick from now.
  bool at_risk(std::size_t index) const {
    const Request& req = requests[index];
    return req.deadline_tick > 0 &&
           req.deadline_tick - clock <=
               static_cast<std::int64_t>(prompt_of(index).size()) +
                   req.max_new_tokens;
  }

  /// Give a flight's pages back (shared pages survive via their
  /// refcounts) and free its batch slot.
  void release(InFlight& flight) {
    if (flight.draft_seq >= 0) kv.release(flight.draft_seq);
    kv.release(flight.seq);
    ++free_slots;
  }

  /// The one retirement path — completion (kNone), a typed failure, or an
  /// expiry, for a queued request (flight == nullptr) or an active one.
  /// Partial output stays in the result; the clocks say what the request
  /// did up to here. The caller removes the request from its queue.
  void retire(std::size_t index, InFlight* flight, FinishReason reason,
              std::string error) {
    RequestResult& out = report.results[index];
    out.ok = reason == FinishReason::kNone;
    out.reason = reason;
    out.error = std::move(error);
    out.total_seconds = sim_makespan - state[index].arrival_seconds;
    out.wall_seconds = seconds_since(start) - state[index].arrival_wall;
    if (reason == FinishReason::kCancelled) ++report.cancellations;
    if (reason == FinishReason::kTimeout) ++report.timeouts;
    if (reason == FinishReason::kOom ||
        reason == FinishReason::kPreemptedUnrecoverable)
      ++report.oom_failures;
    if (out.ok && opt.slo)
      out.slo_ok = out.ttft_seconds <= opt.slo->ttft_seconds &&
                   out.max_inter_token_seconds <= opt.slo->inter_token_seconds;
    if (out.ok && report.has_cost && out.total_seconds > 0.0)
      out.tokens_per_second =
          static_cast<double>(out.generated.size()) / out.total_seconds;
    if (flight != nullptr) release(*flight);
  }

  /// The one expiry check: a planned client cancellation or a reached
  /// deadline retires the request gracefully — partial output plus a
  /// typed reason — whether it is queued (flight == nullptr) or active.
  bool expire(std::size_t index, InFlight* flight) {
    const Request& req = requests[index];
    const std::int64_t cancel_at = state[index].cancel_at;
    const std::size_t emitted = report.results[index].generated.size();
    const std::string progress =
        flight == nullptr ? ""
                          : " with " + std::to_string(emitted) + " of " +
                                std::to_string(req.max_new_tokens) + " tokens";
    if (cancel_at >= 0 && clock >= cancel_at) {
      retire(index, flight, FinishReason::kCancelled,
             "cancelled: fault-plan cancellation at tick " +
                 std::to_string(cancel_at) + progress);
      return true;
    }
    if (req.deadline_tick > 0 && clock >= req.deadline_tick) {
      retire(index, flight, FinishReason::kTimeout,
             "timeout: deadline tick " + std::to_string(req.deadline_tick) +
                 " reached" + (flight == nullptr ? " while queued" : progress));
      return true;
    }
    return false;
  }

  /// Suspend a flight: release its pages and requeue it behind a
  /// continuation prompt of prompt + generated-so-far. The caller removes
  /// it from `active`.
  void suspend(InFlight& flight) {
    const std::size_t index = flight.request_index;
    RequestResult& out = report.results[index];
    release(flight);
    state[index].suspended_at = clock;
    state[index].continuation = requests[index].prompt;
    state[index].continuation.insert(state[index].continuation.end(),
                                     out.generated.begin(),
                                     out.generated.end());
    ++out.preemptions;
    ++report.preemptions;
    waiting.push_back(index);
  }

  /// Preemption under pool pressure: the policy picks a decoding victim
  /// (still-prefilling flights hold no decode progress worth trading;
  /// flights at their preemption bound are exempt). False when nothing is
  /// preemptible.
  bool try_preempt() {
    std::vector<std::size_t> decoding;
    for (const InFlight& flight : active)
      if (prompt_left(flight) <= 0 &&
          report.results[flight.request_index].preemptions <
              opt.max_preemptions)
        decoding.push_back(flight.request_index);
    const int victim = e.policy_->pick_preempt(requests, decoding);
    if (victim == SchedulerPolicy::kNone) return false;
    const std::size_t target = decoding[static_cast<std::size_t>(victim)];
    const auto it = std::find_if(
        active.begin(), active.end(),
        [&](const InFlight& flight) { return flight.request_index == target; });
    suspend(*it);
    active.erase(it);
    return true;
  }

  /// Prices `workload` on `accel`, charges its MACs and energy to the run,
  /// and returns its simulated seconds.
  double charge(const accel::AcceleratorConfig& accel,
                const std::vector<accel::GemmShape>& workload) {
    const accel::RunStats stats = accel::simulate_workload(accel, workload);
    report.simulated_macs += stats.gemm.macs;
    energy += stats.energy;
    return stats.seconds;
  }

  // --- Tick phases (Engine::run drives them in order) ---

  bool live() const {
    return next_arrival < arrivals.size() || !waiting.empty() ||
           !active.empty();
  }

  /// Deliver due arrivals (stamped on both clocks), then retire cancelled
  /// and expired requests from both queues. False when nothing is left to
  /// run: the clock jumps straight to the next arrival.
  bool arrive() {
    while (next_arrival < arrivals.size() &&
           requests[arrivals[next_arrival]].arrival_tick <= clock) {
      const std::size_t index = arrivals[next_arrival++];
      state[index].arrival_seconds = sim_makespan;
      state[index].arrival_wall = seconds_since(start);
      waiting.push_back(index);
    }
    if (report.has_faults) {
      std::erase_if(waiting,
                    [&](std::size_t index) { return expire(index, nullptr); });
      std::erase_if(active, [&](InFlight& flight) {
        return expire(flight.request_index, &flight);
      });
    }
    if (!waiting.empty() || !active.empty()) return true;
    if (next_arrival < arrivals.size())
      clock = requests[arrivals[next_arrival]].arrival_tick;
    return false;
  }

  /// Admission: the policy picks, the page budget gates. A frozen pool
  /// (fault-plan exhaustion window) admits nothing — every admission
  /// allocates pages. False when no flight is active to step this tick.
  bool admit() {
    frozen = report.has_faults && opt.faults.exhausted_at(clock);
    // Deadline-risk preemption: a queued request whose slack cannot cover
    // even its remaining token count claims a slot from a decoding flight
    // rather than waiting out a completion.
    if (opt.preempt && !frozen && free_slots == 0 &&
        std::any_of(waiting.begin(), waiting.end(),
                    [&](std::size_t index) { return at_risk(index); }))
      (void)try_preempt();
    while (!frozen && !waiting.empty() && free_slots > 0) {
      std::vector<std::size_t> prefilling;
      for (const InFlight& flight : active)
        if (prompt_left(flight) > 0) prefilling.push_back(flight.request_index);
      int pick = e.policy_->pick(requests, waiting, prefilling, kv);
      if (pick == SchedulerPolicy::kNone) {
        // Deferral needs someone to wait for; an idle engine admits FIFO.
        if (!active.empty()) break;
        pick = 0;
      }
      // Erased by position below: try_preempt() appends to `waiting`,
      // which invalidates every deque iterator.
      const std::size_t index = waiting[static_cast<std::size_t>(pick)];
      // Under preemption, pool pressure is absorbed by suspending decoding
      // flights instead of waiting for retirements.
      bool progress = opt.preempt;
      while (progress && !fits(index)) progress = try_preempt();
      if (!fits(index)) {
        if (!active.empty()) break;  // retirements will free pages
        // Nothing running: reclaim shareable pages, then either the
        // request fits or it never will.
        kv.drop_registered_prefixes();
        if (!fits(index)) {
          waiting.erase(waiting.begin() + pick);
          retire(index, nullptr, FinishReason::kOom,
                 "request needs " +
                     std::to_string(kv.pages_for(total_positions(index))) +
                     " KV pages, pool capacity is " +
                     std::to_string(kv.max_pages()));
          continue;
        }
      }
      waiting.erase(waiting.begin() + pick);
      start_flight(index);
    }
    if (!active.empty()) return true;
    // Every admission failed (undersized pool) or the pool is frozen: no
    // phantom empty tick — but when a frozen window is the only thing in
    // the way, the clock must advance to eventually exit it.
    if (frozen && !waiting.empty()) ++clock;
    return false;
  }

  /// Admit `index` into a free slot: a fresh pool sequence (attached to a
  /// registered prompt prefix under a sharing policy), resuming the
  /// request's clocks when it was suspended.
  void start_flight(std::size_t index) {
    --free_slots;
    const std::vector<int>& prompt = prompt_of(index);
    InFlight& flight = active.emplace_back();
    flight.request_index = index;
    flight.seq = sharing ? kv.create(prompt) : kv.create();
    flight.view = PagedKVView(kv, flight.seq);
    flight.prompt_pos = kv.shared_length(flight.seq);
    RequestState& s = state[index];
    RequestResult& out = report.results[index];
    if (s.suspended_at >= 0) {
      // Resume. The re-prefill ahead (continuation prompt minus any shared
      // prefix) is the recompute bill preemption pays for its freed pages;
      // admit_tick/queue_ticks/shared_prompt_tokens keep their original
      // admission's values.
      flight.resuming = true;
      requeue_delay_sum += static_cast<double>(clock - s.suspended_at);
      s.suspended_at = -1;
      ++report.resumes;
      report.preempt_recompute_tokens +=
          static_cast<int>(prompt.size()) - flight.prompt_pos;
    } else {
      out.shared_prompt_tokens = flight.prompt_pos;
      out.admit_tick = clock;
      out.queue_ticks = clock - requests[index].arrival_tick;
    }
  }

  /// Plan the tick's rows: every decoding flight steps one token plus its
  /// draft window; prefilling flights are granted up to prefill_chunk
  /// prompt tokens each under the tick-wide prefill_budget
  /// (serve::plan_prefill, FCFS in admission order — the SchedulerPolicy
  /// layer's pacing rule; see docs/PREFILL.md). A flight granted 0 sits
  /// the tick out. With the default chunk 1 / budget 0 and no speculation
  /// every flight gets exactly one row — the legacy lockstep.
  void plan() {
    ++report.engine_steps;
    occupancy_sum += static_cast<std::int64_t>(active.size());
    prefill_remaining.clear();
    for (const InFlight& flight : active)
      prefill_remaining.push_back(prompt_left(flight));
    plan_prefill(prefill_remaining, opt.prefill_chunk, opt.prefill_budget,
                 prefill_grants);
    bool tick_has_prefill = false;
    bool tick_has_decode = false;
    for (std::size_t i = 0; i < active.size(); ++i) {
      InFlight& flight = active[i];
      if (prefill_remaining[i] > 0) {
        flight.tick_rows = prefill_grants[i];
        tick_has_prefill |= prefill_grants[i] > 0;
        continue;
      }
      tick_has_decode = true;
      // The draft window is capped so the cycle never emits past the
      // request's budget (accepted drafts plus the correction/bonus token
      // is at most spec_k + 1); with one token left — or no speculation —
      // the cycle is a plain verified step. The draft sequence forks the
      // target BEFORE the target's own reserve: the fork pins the shared
      // tail, so the target's verify appends copy-on-write it instead of
      // two sequences writing one page. A draft that cannot reserve
      // (explicit undersized pool) degrades to spec_k = 0 — speculation
      // never fails a request.
      const int remaining =
          requests[flight.request_index].max_new_tokens -
          static_cast<int>(
              report.results[flight.request_index].generated.size());
      int k = std::min(opt.draft_k, remaining - 1);
      if (k > 0) {
        flight.draft_seq = kv.fork(flight.seq);
        if (kv.reserve(flight.draft_seq, k).is_ok()) {
          flight.draft_view = PagedKVView(kv, flight.draft_seq);
        } else {
          kv.release(flight.draft_seq);
          flight.draft_seq = -1;
          k = 0;
        }
      }
      flight.spec_k = k;
      flight.tick_rows = 1 + k;
    }
    if (tick_has_prefill && tick_has_decode) ++report.mixed_ticks;
  }

  /// Reserve this tick's KV positions (serial; allocation and
  /// copy-on-write happen here, so the fused step only appends into
  /// pre-reserved, per-sequence slots). A reservation failure — real pool
  /// pressure (explicit undersized kv_pool_pages), an injected transient
  /// fault, or a frozen exhaustion window — either suspends the flight for
  /// a bit-identical resume (transient faults always; pool pressure when
  /// preemption is on) or retires it with a typed reason. Suspensions and
  /// retirements release pages only after every flight has reserved.
  /// False when no flight is left to step this tick.
  bool reserve() {
    for (InFlight& flight : active) {
      flight.tick_base = kv.length(flight.seq);
      const bool injected =
          report.has_faults &&
          opt.faults.reserve_fails(clock,
                                   static_cast<int>(flight.request_index));
      // A frozen window refuses fresh pages; within-page appends proceed
      // (that memory already exists).
      const bool frozen_block =
          frozen && kv.pages_for(flight.tick_base + flight.tick_rows) >
                        kv.pages_for(flight.tick_base);
      Status reserved =
          injected ? Status::error("injected transient reserve failure")
          : frozen_block
              ? Status::error("KV pool frozen by fault-plan window")
              : kv.reserve(flight.seq, flight.tick_rows);
      if (!reserved.is_ok() && flight.spec_k > 0) {
        // The verify window did not fit: give the draft fork back and
        // retry as a plain step — speculation must never retire a
        // request the target-only engine would have completed.
        kv.release(flight.draft_seq);
        flight.draft_seq = -1;
        flight.spec_k = 0;
        flight.tick_rows = 1;
        if (!injected && !frozen_block) reserved = kv.reserve(flight.seq, 1);
      }
      if (reserved.is_ok()) continue;
      RequestResult& out = report.results[flight.request_index];
      if ((injected || opt.preempt) && out.preemptions < opt.max_preemptions) {
        flight.requeue = true;
      } else {
        out.reason = out.preemptions > 0
                         ? FinishReason::kPreemptedUnrecoverable
                         : FinishReason::kOom;
        out.error = std::string(finish_reason_name(out.reason)) + ": " +
                    reserved.message() + " at tick " + std::to_string(clock);
      }
    }
    std::erase_if(active, [&](InFlight& flight) {
      const RequestResult& out = report.results[flight.request_index];
      if (flight.requeue)
        suspend(flight);
      else if (out.reason != FinishReason::kNone)
        retire(flight.request_index, &flight, out.reason, out.error);
      else
        return false;
      return true;
    });
    // Requeues can empty the tick (e.g. every flight hit the frozen
    // window): advance the clock so the window eventually passes.
    if (active.empty()) {
      ++clock;
      return false;
    }
    kv_pages_sum += kv.stats().pages_in_use;
    return true;
  }

  /// Speculative cycles only: the draft pipeline proposes spec_k tokens
  /// per decoding flight, one fused draft step_batch per proposal depth
  /// across every still-drafting flight. Drafts attend over the verified
  /// prefix through the fork's shared pages and over their own proposals
  /// through the fork's private (copy-on-write) tail — the target's pages
  /// are never written. Each logits row is an independent serial
  /// accumulation, so proposals are deterministic at any BBAL_THREADS and
  /// any batch composition.
  void draft() {
    if (!e.speculative()) return;
    for (InFlight& flight : active) flight.proposals.clear();
    for (int s = 0;; ++s) {
      draft_tokens.clear();
      draft_views.clear();
      for (InFlight& flight : active) {
        if (flight.spec_k <= s) continue;
        draft_tokens.push_back(s == 0 ? flight.last_token
                                      : flight.proposals.back());
        draft_views.push_back(&flight.draft_view);
      }
      if (draft_tokens.empty()) break;
      e.drafter_.decoder->step_batch(draft_tokens, draft_views, draft_logits);
      int row = 0;
      for (InFlight& flight : active) {
        if (flight.spec_k <= s) continue;
        flight.proposals.push_back(greedy_argmax(draft_logits.row(row)));
        ++row;
      }
    }
  }

  /// Price the tick before stepping it: each flight's rows are a chunk
  /// from its cached context (accel::prefill_chunk_gemms — fused M=rows
  /// projections plus per-row causal attention; this is where chunking's
  /// simulated speedup physically comes from: weight streaming, the
  /// dominant memory-cycle term, is paid once per chunk). The batch shares
  /// the accelerator, so the tick costs their combined workload; draft
  /// forwards are spec_k sequential M=1 steps on the draft accelerator.
  /// KV-cache traffic (ctx reads + 1 write of K and V rows per layer, per
  /// row, in packed bytes) is priced on the pool's SRAM macro.
  void price() {
    if (!opt.accelerator) return;
    tick_workload.clear();
    draft_workload.clear();
    std::int64_t kv_bytes = 0;
    for (const InFlight& flight : active) {
      if (flight.tick_rows == 0) continue;
      const int base = kv.length(flight.seq);
      const std::size_t first = tick_workload.size();
      accel::prefill_chunk_gemms(cfg, base, flight.tick_rows, tick_workload);
      // A resumed flight's re-prefill is recompute work: attribute its
      // price (as if run alone on the same accelerator; simulated cost is
      // additive over GEMMs) before the rows join the fused tick.
      if (flight.resuming)
        report.preempt_recompute_seconds +=
            accel::simulate_workload(*opt.accelerator,
                                     std::span(tick_workload).subspan(first))
                .seconds;
      for (int i = 0; i < flight.tick_rows; ++i)
        kv_bytes += token_kv_bytes * (base + i + 2);
      for (int s = 0; s < flight.spec_k; ++s) {
        accel::prefill_chunk_gemms(cfg, base + s, 1, draft_workload);
        kv_bytes += token_kv_bytes * (base + s + 2);
      }
    }
    tick_seconds = charge(*opt.accelerator, tick_workload);
    if (!draft_workload.empty())
      tick_seconds += charge(*e.draft_accel_, draft_workload);
    sim_makespan += tick_seconds;
    // 64-bit words on the KV macro port: 8 packed bytes per access.
    kv_energy_j += static_cast<double>(kv_bytes) / 8.0 *
                   kv_sram.access_pj() * 1e-12;
  }

  /// Advance the tick's whole row mix in ONE fused forward
  /// (Decoder::step_groups): a prefilling flight contributes its granted
  /// chunk of consecutive prompt tokens, a decoding flight its verify
  /// window [x0, d1..d_spec_k] — the single-row group without
  /// speculation. Each row's arithmetic is bit-identical to an isolated
  /// M=1 step (independent per-row accumulators), so streams match the
  /// serial unchunked reference at any BBAL_THREADS and any chunk size.
  void forward() {
    tick_tokens.clear();
    tick_views.clear();
    tick_counts.clear();
    for (InFlight& flight : active) {
      if (flight.tick_rows == 0) continue;  // budget passed it over
      if (prompt_left(flight) > 0) {
        const std::vector<int>& prompt = prompt_of(flight.request_index);
        const auto pos = prompt.begin() + flight.prompt_pos;
        tick_tokens.insert(tick_tokens.end(), pos, pos + flight.tick_rows);
      } else {
        tick_tokens.push_back(flight.last_token);
        tick_tokens.insert(tick_tokens.end(), flight.proposals.begin(),
                           flight.proposals.end());
      }
      tick_views.push_back(&flight.view);
      tick_counts.push_back(flight.tick_rows);
    }
    e.target_.decoder->step_groups(
        tick_tokens, tick_views, tick_counts, tick_logits,
        e.speculative() ? llm::Decoder::LogitsMode::kAllRows
                        : llm::Decoder::LogitsMode::kLastPerGroup);
  }

  /// Emission. Without speculation there is one logits row per stepped
  /// flight (its group's last row); speculating, the row cursor walks
  /// every window position. A decode flight accepts the longest drafted
  /// prefix matching the target's greedy argmax, then emits the
  /// correction (first mismatching row's argmax) or — all drafts accepted
  /// — the bonus token; with spec_k == 0 that is the plain greedy step.
  /// Rejected window rows are rolled back with PagedKVPool::truncate, so
  /// the surviving KV state is exactly what a target-only engine would
  /// hold after the same emissions.
  void emit() {
    const bool all_rows = e.speculative();
    int row = 0;
    for (InFlight& flight : active) {
      flight.tick_emitted = 0;
      if (flight.tick_rows == 0) continue;
      RequestResult& out = report.results[flight.request_index];
      if (prompt_left(flight) > 0) {
        flight.prompt_pos += flight.tick_rows;
        // The tick that consumes the final prompt token emits the first
        // generated token — for a resumed flight that is the first *new*
        // token after the re-prefilled continuation, so the stream
        // continues exactly where the suspension cut it.
        if (prompt_left(flight) == 0) {
          const int last = all_rows ? row + flight.tick_rows - 1 : row;
          flight.last_token = greedy_argmax(tick_logits.row(last));
          out.generated.push_back(flight.last_token);
          flight.tick_emitted = 1;
          flight.resuming = false;
          if (out.generated.size() == 1) out.first_token_tick = clock;
        }
      } else {
        int accepted = 0;
        int next = -1;
        for (;;) {
          // Row (row + accepted) holds the target's next-token logits
          // after x0, d1..d_accepted — what a target-only step at this
          // point would have produced, bit for bit.
          next = greedy_argmax(tick_logits.row(row + accepted));
          if (accepted == flight.spec_k ||
              next != flight.proposals[static_cast<std::size_t>(accepted)])
            break;
          out.generated.push_back(next);
          ++accepted;
        }
        out.generated.push_back(next);  // correction or bonus token
        flight.last_token = next;
        flight.tick_emitted = accepted + 1;
        if (flight.spec_k > 0) {
          ++report.draft_cycles;
          report.drafted_tokens += flight.spec_k;
          report.accepted_tokens += accepted;
        }
        if (accepted < flight.spec_k)
          kv.truncate(flight.seq, flight.tick_base + accepted + 1);
        if (flight.draft_seq >= 0) {
          kv.release(flight.draft_seq);
          flight.draft_seq = -1;
        }
        if (out.generated.size() ==
            static_cast<std::size_t>(flight.tick_emitted))
          out.first_token_tick = clock;
      }
      row += all_rows ? flight.tick_rows : 1;
    }
  }

  /// Serial bookkeeping, in slot-admission order, then retirement of the
  /// flights that reached their budget. Latencies are read off the global
  /// run clocks (sim_makespan already includes this tick), so queueing
  /// delay counts toward TTFT and total latency.
  void account() {
    // Counterfactual pricing (speculative runs): what the same emissions
    // would have cost target-only — identical prefill work plus one M=1
    // decode step per emitted token at its context, on the target
    // accelerator. Simulated cost is additive over GEMMs, so per-tick
    // summation is exact.
    if (opt.accelerator && e.speculative()) {
      equiv_workload.clear();
      for (const InFlight& flight : active) {
        if (flight.tick_rows == 0) continue;
        if (flight.tick_base <
            static_cast<int>(requests[flight.request_index].prompt.size())) {
          accel::prefill_chunk_gemms(cfg, flight.tick_base, flight.tick_rows,
                                     equiv_workload);
        } else {
          for (int i = 0; i < flight.tick_emitted; ++i)
            accel::prefill_chunk_gemms(cfg, flight.tick_base + i, 1,
                                       equiv_workload);
        }
      }
      target_equiv_seconds +=
          accel::simulate_workload(*opt.accelerator, equiv_workload).seconds;
    }
    const double wall_now = seconds_since(start);
    // What per-request contiguous caches would hold right now.
    std::int64_t contiguous_tokens = 0;
    for (const InFlight& flight : active)
      contiguous_tokens += kv.length(flight.seq);
    contiguous_peak_tokens =
        std::max(contiguous_peak_tokens, contiguous_tokens);

    for (InFlight& flight : active) {
      const std::size_t index = flight.request_index;
      RequestResult& out = report.results[index];
      RequestState& s = state[index];
      ++out.steps;
      // Per emitted token (a speculative cycle can emit several): the
      // first-ever token stamps TTFT, every later one an inter-token gap.
      // Tokens of one tick all land at the same simulated instant, so the
      // second and later of a cycle record a zero gap — the latency a
      // streaming client actually observes.
      const std::size_t emitted_before =
          out.generated.size() - static_cast<std::size_t>(flight.tick_emitted);
      for (int t = 0; t < flight.tick_emitted; ++t) {
        token_latencies.push_back(tick_seconds);
        if (emitted_before + static_cast<std::size_t>(t) == 0) {
          out.ttft_seconds = sim_makespan - s.arrival_seconds;
          out.ttft_wall_seconds = wall_now - s.arrival_wall;
        } else {
          const double gap = sim_makespan - s.last_emit_seconds;
          inter_token_gaps.push_back(gap);
          out.max_inter_token_seconds =
              std::max(out.max_inter_token_seconds, gap);
        }
        s.last_emit_seconds = sim_makespan;
      }
      // The prefill just completed: its full prompt pages become
      // shareable for every follower with the same prefix. Registration
      // is always over the *original* prompt (a resumed flight's pages
      // cover it as a prefix of the continuation) and happens once per
      // request across suspensions.
      if (flight.tick_emitted > 0 && sharing && !s.registered) {
        kv.register_prefix(flight.seq, requests[index].prompt);
        s.registered = true;
      }
    }
    std::erase_if(active, [&](InFlight& flight) {
      const std::size_t index = flight.request_index;
      if (static_cast<int>(report.results[index].generated.size()) <
          requests[index].max_new_tokens)
        return false;
      retire(index, &flight, FinishReason::kNone, "");
      return true;
    });
    ++clock;
  }

  /// The run's aggregates, once the loop has drained.
  Report finish() {
    report.wall_seconds = seconds_since(start);
    report.clock_ticks = clock;

    // --- Paged-KV aggregates ---
    report.kv_pages_allocated = kv.stats().pages_allocated;
    report.kv_bytes_peak = kv.bytes_peak();
    // What per-request monolithic caches stored per position — always FP32
    // floats, so kv_bytes_peak_contiguous stays the format-independent
    // yardstick the packed pool is compared against.
    report.kv_bytes_peak_contiguous =
        contiguous_peak_tokens * static_cast<std::int64_t>(cfg.n_layers) * 2 *
        cfg.d_model * static_cast<std::int64_t>(sizeof(float));
    report.prefix_hit_rate = kv.stats().prefix_hit_rate();
    if (report.engine_steps > 0)
      report.kv_pool_occupancy =
          static_cast<double>(kv_pages_sum) /
          (static_cast<double>(report.engine_steps) *
           static_cast<double>(kv.max_pages()));
    report.kv_energy_j = kv_energy_j;

    // --- Aggregates (completed requests only) ---
    double ttft_sum = 0.0;
    double queue_sum = 0.0;
    std::vector<double> queue_delays;
    std::vector<double> ttfts;
    std::uint32_t hash = 2166136261u;
    for (const RequestResult& out : report.results) {
      if (!out.ok) continue;
      ++report.completed;
      report.prompt_tokens += out.prompt_tokens;
      report.generated_tokens +=
          static_cast<std::int64_t>(out.generated.size());
      ttft_sum += out.ttft_seconds;
      ttfts.push_back(out.ttft_seconds);
      queue_sum += static_cast<double>(out.queue_ticks);
      queue_delays.push_back(static_cast<double>(out.queue_ticks));
      if (out.slo_ok) ++report.slo_met;
      fnv32_mix(hash, static_cast<std::uint32_t>(out.id));
      for (const int token : out.generated)
        fnv32_mix(hash, static_cast<std::uint32_t>(token));
    }
    report.stream_hash = hash;

    // --- Open-loop load metrics ---
    if (report.completed > 0)
      report.queue_delay_mean_ticks =
          queue_sum / static_cast<double>(report.completed);
    report.queue_delay_p99_ticks = percentile(queue_delays, 99.0);
    if (!arrivals.empty()) {
      std::int64_t demanded_tokens = 0;
      std::int64_t last_arrival = 0;
      for (const std::size_t i : arrivals) {
        demanded_tokens += requests[i].max_new_tokens;
        last_arrival = std::max(last_arrival, requests[i].arrival_tick);
      }
      report.offered_tokens_per_tick =
          static_cast<double>(demanded_tokens) /
          static_cast<double>(last_arrival + 1);
    }
    if (report.clock_ticks > 0)
      report.throughput_tokens_per_tick =
          static_cast<double>(report.generated_tokens) /
          static_cast<double>(report.clock_ticks);
    if (report.has_slo && report.requests > 0)
      report.goodput_under_slo = static_cast<double>(report.slo_met) /
                                 static_cast<double>(report.requests);
    if (report.engine_steps > 0)
      report.mean_batch_occupancy = static_cast<double>(occupancy_sum) /
                                    static_cast<double>(report.engine_steps);
    // --- Robustness and speculative aggregates ---
    if (report.resumes > 0)
      report.requeue_delay_mean_ticks =
          requeue_delay_sum / static_cast<double>(report.resumes);
    if (report.drafted_tokens > 0)
      report.acceptance_rate = static_cast<double>(report.accepted_tokens) /
                               static_cast<double>(report.drafted_tokens);
    if (report.has_cost && e.speculative() && sim_makespan > 0.0)
      report.speedup_vs_target = target_equiv_seconds / sim_makespan;
    report.total_seconds = sim_makespan;
    if (report.has_cost && sim_makespan > 0.0)
      report.throughput_tokens_per_second =
          static_cast<double>(report.generated_tokens) / sim_makespan;
    report.energy_j = energy.total_j() + report.kv_energy_j;
    if (report.completed > 0)
      report.ttft_mean_seconds =
          ttft_sum / static_cast<double>(report.completed);
    report.p50_step_seconds = percentile(token_latencies, 50.0);
    report.p95_step_seconds = percentile(token_latencies, 95.0);
    report.p99_step_seconds = percentile(token_latencies, 99.0);
    report.p99_ttft_seconds = percentile(ttfts, 99.0);
    report.p50_inter_token_seconds = percentile(inter_token_gaps, 50.0);
    report.p95_inter_token_seconds = percentile(inter_token_gaps, 95.0);
    report.p99_inter_token_seconds = percentile(inter_token_gaps, 99.0);
    return std::move(report);
  }
};

Report Engine::run() {
  Run run(*this, {std::make_move_iterator(queue_.begin()),
                  std::make_move_iterator(queue_.end())});
  queue_.clear();
  while (run.live()) {
    if (!run.arrive() || !run.admit()) continue;
    run.plan();
    if (!run.reserve()) continue;
    run.draft();
    run.price();
    run.forward();
    run.emit();
    run.account();
  }
  return run.finish();
}

// --- Report ------------------------------------------------------------------

const char* finish_reason_name(FinishReason reason) {
  switch (reason) {
    case FinishReason::kNone:
      return "none";
    case FinishReason::kInvalid:
      return "invalid";
    case FinishReason::kTimeout:
      return "timeout";
    case FinishReason::kCancelled:
      return "cancelled";
    case FinishReason::kPreemptedUnrecoverable:
      return "preempted_unrecoverable";
    case FinishReason::kOom:
      return "oom";
  }
  return "unknown";
}

namespace {

void append_json(std::ostringstream& os, const char* key, double v) {
  os << ", \"" << key << "\": " << v;
}

/// Count fields (token totals, hashes) are exact-match in the CI gate, so
/// they must serialise at full precision, not the double default.
void append_json_int(std::ostringstream& os, const char* key,
                     std::int64_t v) {
  os << ", \"" << key << "\": " << v;
}

}  // namespace

std::string Report::to_json() const {
  std::ostringstream os;
  os.precision(6);
  os << "{\"model\": \"" << model << "\", \"matmul\": \"" << matmul
     << "\", \"nonlinear\": \"" << nonlinear << "\", \"policy\": \""
     << policy << "\"";
  if (!kv_format.empty()) os << ", \"kv_format\": \"" << kv_format << "\"";
  if (!workload.empty()) os << ", \"workload\": \"" << workload << "\"";
  append_json_int(os, "requests", requests);
  append_json_int(os, "completed", completed);
  append_json_int(os, "max_batch", max_batch);
  // Prefill block only when chunking is on: default-configured rows stay
  // byte-exact with the pre-chunking engine (the correctness bar every
  // committed BENCH_serve.json row is held to).
  if (prefill_chunk != 1 || prefill_budget != 0) {
    append_json_int(os, "prefill_chunk", prefill_chunk);
    append_json_int(os, "prefill_budget", prefill_budget);
    append_json_int(os, "mixed_ticks", mixed_ticks);
  }
  // Speculative block only when a draft backend ran: default rows stay
  // byte-exact with the pre-speculative engine.
  if (draft_k > 0) {
    os << ", \"draft\": \"" << draft << "\"";
    append_json_int(os, "draft_k", draft_k);
    append_json_int(os, "draft_cycles", draft_cycles);
    append_json_int(os, "drafted_tokens", drafted_tokens);
    append_json_int(os, "accepted_tokens", accepted_tokens);
    append_json(os, "acceptance_rate", acceptance_rate);
    if (has_cost) append_json(os, "speedup_vs_target", speedup_vs_target);
  }
  // Fault/preemption block only when faults, deadlines or preemption were
  // configured: default rows stay byte-exact with the pre-faults engine.
  if (has_faults) {
    if (!fault_plan.empty())
      os << ", \"fault_plan\": \"" << fault_plan << "\"";
    append_json_int(os, "preempt", preempt ? 1 : 0);
    append_json_int(os, "preemptions", preemptions);
    append_json_int(os, "resumes", resumes);
    append_json(os, "requeue_delay_mean_ticks", requeue_delay_mean_ticks);
    append_json_int(os, "preempt_recompute_tokens", preempt_recompute_tokens);
    if (has_cost)
      append_json(os, "preempt_recompute_seconds", preempt_recompute_seconds);
    append_json_int(os, "timeouts", timeouts);
    append_json_int(os, "cancellations", cancellations);
    append_json_int(os, "oom_failures", oom_failures);
  }
  append_json_int(os, "prompt_tokens", prompt_tokens);
  append_json_int(os, "generated_tokens", generated_tokens);
  append_json_int(os, "engine_steps", engine_steps);
  append_json_int(os, "clock_ticks", clock_ticks);
  append_json(os, "mean_batch_occupancy", mean_batch_occupancy);
  append_json(os, "queue_delay_mean_ticks", queue_delay_mean_ticks);
  append_json(os, "queue_delay_p99_ticks", queue_delay_p99_ticks);
  append_json(os, "offered_tokens_per_tick", offered_tokens_per_tick);
  append_json(os, "throughput_tokens_per_tick", throughput_tokens_per_tick);
  append_json_int(os, "stream_hash", static_cast<std::int64_t>(stream_hash));
  append_json_int(os, "weights_bytes", weights_bytes);
  append_json_int(os, "kv_pages_allocated", kv_pages_allocated);
  append_json_int(os, "kv_bytes_peak", kv_bytes_peak);
  append_json_int(os, "kv_bytes_peak_contiguous", kv_bytes_peak_contiguous);
  append_json(os, "prefix_hit_rate", prefix_hit_rate);
  append_json(os, "kv_pool_occupancy", kv_pool_occupancy);
  if (has_cost) {
    append_json_int(os, "simulated_macs", simulated_macs);
    append_json(os, "total_seconds", total_seconds);
    append_json(os, "throughput_tokens_per_second",
                throughput_tokens_per_second);
    append_json(os, "ttft_mean_seconds", ttft_mean_seconds);
    append_json(os, "p50_step_seconds", p50_step_seconds);
    append_json(os, "p95_step_seconds", p95_step_seconds);
    append_json(os, "p99_step_seconds", p99_step_seconds);
    append_json(os, "p99_ttft_seconds", p99_ttft_seconds);
    append_json(os, "p50_inter_token_seconds", p50_inter_token_seconds);
    append_json(os, "p95_inter_token_seconds", p95_inter_token_seconds);
    append_json(os, "p99_inter_token_seconds", p99_inter_token_seconds);
    append_json(os, "energy_j", energy_j);
    append_json(os, "kv_energy_j", kv_energy_j);
  }
  if (has_slo) {
    append_json(os, "slo_ttft_seconds", slo_ttft_seconds);
    append_json(os, "slo_inter_token_seconds", slo_inter_token_seconds);
    append_json_int(os, "slo_met", slo_met);
    append_json(os, "goodput_under_slo", goodput_under_slo);
  }
  os << "}";
  return os.str();
}

}  // namespace bbal::serve
