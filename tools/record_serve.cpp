// Record a serving baseline: the continuous-batching engine serves one
// deterministic request mix under each strategy, and every row's metrics
// land in one JSON file. CI diffs a fresh run against the committed
// BENCH_serve.json with tools/bench_compare — every row field, token
// counts, stream hash and simulated seconds alike, must stay bit-identical
// at any thread count (the engine's determinism contract). Host wall-clock
// stays in "meta" (informational, never gated).
// Each row also records weights_bytes — the quantised weight footprint of
// the engine's one shared backend, exact-gated and independent of
// max_batch (the fused datapath prepares weights once per engine).
//
// Output shape: {"meta": {...}, "rows": [...one object per strategy...]},
// the same contract as tools/record_table2.
//
// Usage: ./build/tools/record_serve [out.json] [--threads N]
//            [--policy fifo|sjf|prefix-aware]
//            [--workload synthetic|shared-prefix|poisson|bursty|
//             long-prompt|trace=PATH]
//            [--seed N] [--rate REQS_PER_TICK] [--prefill-chunk N]
//            [--kv-format FP32|INT8|BFP<m>|BBFP(<m>,<o>)]
//            [--draft STRATEGY --draft-k N]
//            [--fault-plan SPEC] [--preempt] [--deadline TICKS]
// Env:   BBAL_MODEL (default Llama-7B), BBAL_EVAL_TOKENS (default 128),
//        BBAL_SERVE_REQUESTS (default 8), BBAL_SERVE_NEW_TOKENS (default
//        16), BBAL_SERVE_BATCH (default 4), BBAL_SERVE_PREFIX (default 8,
//        shared-prefix only), BBAL_SERVE_FRONTIER_PREFIX (default 24,
//        frontier sweep only), BBAL_SERVE_LONG_PROMPT (default 96) and
//        BBAL_SERVE_LONG_EVERY (default 4) for the long-prompt mix,
//        BBAL_THREADS (--threads wins). The integer variables take one
//        whole number (eval tokens >= 2, prefixes >= 0, the rest >= 1);
//        any other value exits 2, naming the variable, and so does an
//        unknown BBAL_MODEL, listing the known models.
//
// KV formats: --kv-format stores every engine's paged KV cache in the
// named quant::KvFormat (see docs/KV_QUANT.md) — the ad-hoc/smoke path.
// WITHOUT the flag, the strategy rows run the FP32 default and the tool
// appends the committed accuracy/memory frontier: shared-prefix traffic
// under the prefix-aware policy on the BBFP(4,2) matmul, one row per
// storable KV format, so the default invocation reproduces every row of
// BENCH_serve.json (the CI quick gate diffs the whole file).
//
// Workloads: "synthetic" (default) is the closed-loop PR-5 mix —
// byte-exact with the pre-open-loop recorder; "shared-prefix" is the
// closed-loop common-system-prompt mix; "poisson"/"bursty" stamp the
// synthetic mix with seeded open-loop arrivals at --rate requests per
// tick; "long-prompt" is the prompt-heavy chunked-prefill mix (every
// BBAL_SERVE_LONG_EVERY-th prompt BBAL_SERVE_LONG_PROMPT tokens long,
// Poisson arrivals at --rate); "trace=PATH" replays a serve::trace JSONL
// file. The descriptor for whichever was picked is recorded in meta and
// in every row (the "workload" field, part of the bench_compare row key).
//
// --prefill-chunk N turns on chunked prefill (docs/PREFILL.md): it sets
// Engine::Options::prefill_chunk = N and prefill_budget = N, so each
// prefilling request consumes up to N prompt tokens per tick and a tick
// grants at most N prefill tokens across the batch. N = 1 restores the
// legacy one-token-per-tick lockstep (budget 0) — byte-exact streams.
//
// The committed baseline records the fifo policy and synthetic workload
// (the bit-identity reference); the flags exist for ad-hoc studies.
// WITHOUT --prefill-chunk (and without --kv-format) the tool also appends
// the committed chunked-prefill comparison: the long-prompt mix on the
// BBFP(4,2) engine at chunk 1 / 8 / 32, one row each, with the chunk size
// named in the row's workload descriptor so the rows key separately.
//
// --draft S --draft-k N turns on speculative decoding for every strategy
// row (docs/SPECULATIVE.md): a second engine backend on strategy S drafts
// N tokens per cycle and the row's own strategy verifies them. Greedy
// verification makes this a scheduling change only, and the tool holds
// it to that: each row is re-served on a no-draft sibling engine and
// every stream must match it exactly. Ad-hoc like the other pinning
// flags: the committed sections are skipped. WITHOUT the flags the tool
// appends the committed speculative comparison instead: the synthetic mix
// on cross-tier (draft -> target) pairs, each row named by its draft spec
// in the bench_compare row key.
//
// --fault-plan SPEC / --preempt / --deadline N turn on the robustness
// harness (docs/ROBUSTNESS.md): SPEC is the serve::parse_fault_plan
// grammar (exhaust@B..E, flaky@T#R, cancel@T#R, spike@T+W, seed@S+H,
// ';'-separated), --preempt enables decode preemption, and --deadline N
// stamps every request with deadline_tick = arrival_tick + N. Chaos mode
// skips the committed sections and self-gates every strategy row against
// a fault-free sibling run: completed streams must be bit-identical,
// partial output must be a prefix of the sibling's stream, and every
// failure must carry a typed reason — the CI chaos smoke's hash gate.
//
// The default invocation ends with the committed SLO capacity sweep
// (docs/LOADGEN.md): offered load x scheduler policy over a 24-request,
// 4-group shared-prefix trace with Poisson arrivals on the BBFP(4,2)
// engine, scored against a fixed SLO, then the preemption pair — the
// overload cell re-served under the exhaust@40..70 fault plan with
// preemption off and on. BBAL_SERVE_BATCH and BBAL_SERVE_NEW_TOKENS
// apply to it; the loads, trace shape and SLO are the constants below.
// It gates itself: every sweep cell completes, both pair rows agree with
// the overload cell under the sibling rule, and goodput with preemption
// strictly exceeds goodput without.
//
// This is the one serving harness: the study tables in docs/ are these
// flags' rows — the policy table is --workload shared-prefix --policy P
// (BBAL_SERVE_PREFIX=64), the chunk sweep --workload long-prompt
// --prefill-chunk C and the speculative frontier --draft D --draft-k K.
// Every numeric flag must be one whole number in range, else exit 2.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "bbal/registry.hpp"
#include "common/threadpool.hpp"
#include "llm/model.hpp"
#include "parse_number.hpp"
#include "quant/kv_codec.hpp"
#include "serve/engine.hpp"
#include "serve/faults.hpp"
#include "serve/load.hpp"
#include "serve/policy.hpp"
#include "serve/trace.hpp"
#include "serve/workload.hpp"

namespace {

// The SLO capacity sweep's fixed shape (docs/LOADGEN.md). The offered
// loads, in requests per tick, sit well under, near and well over the
// knee of this mix (at batch 4 the engine serves roughly 0.1 req/tick);
// a 16-token prefix fills one KV page, so prefix-aware can share it.
constexpr double kSloLoads[] = {0.02, 0.08, 0.32};
constexpr int kSloRequests = 24;
constexpr int kSloGroups = 4;
constexpr int kSloPrefix = 16;
// The SLO the sweep is scored against, in simulated seconds: every
// sub-knee point passes with >= 60% headroom while fifo and sjf fail at
// the overload point (p99 TTFT 0.022 s). Re-derive after a model or
// accelerator change: ~1.6x the mid-load p99 TTFT and ~25x the per-tick
// step latency.
constexpr bbal::serve::Slo kSlo{0.010, 0.005};

/// True when `partial` is a (possibly complete) prefix of `full`.
bool is_prefix(const std::vector<int>& partial, const std::vector<int>& full) {
  if (partial.size() > full.size()) return false;
  return std::equal(partial.begin(), partial.end(), full.begin());
}

/// The sibling gate's check (main's sibling_agrees): every result must agree
/// with the run of a sibling engine that has the same configuration minus
/// the features under test — completed streams bit-identical, partial output
/// a strict prefix of the sibling's stream, and every failure typed
/// (reason != none). Greedy decoding makes this exact: a request's
/// continuation is a pure function of its prompt, so neither a fault nor
/// a draft may change a token it does not remove. Returns false (and
/// prints why) on any violation.
bool chaos_rows_agree(const char* label, const bbal::serve::Report& run,
                      const bbal::serve::Report& sibling) {
  using bbal::serve::FinishReason;
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    const auto& f = run.results[i];
    const auto& c = sibling.results[i];
    if (f.ok && f.generated != c.generated) {
      std::fprintf(stderr,
                   "  %s: request %zu completed but diverged from the "
                   "sibling's stream\n",
                   label, i);
      return false;
    }
    if (!f.ok && f.reason == FinishReason::kNone) {
      std::fprintf(stderr, "  %s: request %zu failed UNTYPED: %s\n", label, i,
                   f.error.c_str());
      return false;
    }
    if (!f.ok && !is_prefix(f.generated, c.generated)) {
      std::fprintf(stderr,
                   "  %s: request %zu partial output is not a prefix of the "
                   "sibling's stream\n",
                   label, i);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bbal;

  std::string out_path = "BENCH_serve.json";
  bool have_out_path = false;
  int threads_flag = 0;
  std::string policy = "fifo";
  std::string workload = "synthetic";
  std::string kv_format;  ///< empty: FP32 rows + the committed frontier
  int prefill_chunk = 0;  ///< 0: default engine + the committed comparison
  std::string draft;      ///< empty: no speculation + the committed sweep
  int draft_k = 0;
  serve::FaultPlan fault_plan;  ///< empty: no chaos + the committed sections
  bool preempt = false;
  std::int64_t deadline_ticks = 0;  ///< 0: no deadlines
  std::uint64_t seed = 2024;
  double rate = 0.05;

  // Each valued flag's parser: it stores the value and returns the error
  // to report ("" when the value is good).
  using Parser = std::function<std::string(const std::string&)>;
  const auto bad = [](const std::string& flag, const std::string& value) {
    return "bad " + flag + " value \"" + value + "\"";
  };
  // A numeric flag's parser: the whole value must be one number >= lo.
  const auto number = [&bad](const char* flag, auto& out, auto lo) -> Parser {
    using T = std::remove_reference_t<decltype(out)>;
    return [&bad, flag, out = &out, lo](const std::string& v) {
      const bool ok = tools::parse_number<T>(v, static_cast<T>(lo), *out);
      return ok ? std::string() : bad(flag, v);
    };
  };
  const std::vector<std::pair<std::string, Parser>> value_flags = {
      {"--workload",
       [&](const std::string& v) {
         workload = v;
         const bool known = v == "synthetic" || v == "shared-prefix" ||
                            v == "poisson" || v == "bursty" ||
                            v == "long-prompt" || v.rfind("trace=", 0) == 0;
         return known ? "" : bad("--workload", v);
       }},
      {"--seed", number("--seed", seed, 0)},
      {"--rate", number("--rate", rate, std::numeric_limits<double>::min())},
      {"--threads", number("--threads", threads_flag, 1)},
      {"--policy",
       [&](const std::string& v) {
         policy = v;
         return serve::make_policy(v).is_ok() ? "" : bad("--policy", v);
       }},
      {"--prefill-chunk", number("--prefill-chunk", prefill_chunk, 1)},
      {"--kv-format",
       [&](const std::string& v) {
         const auto parsed = quant::KvFormat::parse(v);
         if (!parsed.is_ok()) return parsed.message();
         kv_format = parsed.value().name();
         return std::string();
       }},
      {"--draft",
       [&](const std::string& v) {
         draft = v;
         const auto parsed = quant::StrategySpec::parse(v);
         return parsed.is_ok() ? "" : "--draft: " + parsed.message();
       }},
      {"--draft-k", number("--draft-k", draft_k, 1)},
      {"--fault-plan",
       [&](const std::string& v) {
         const auto parsed = serve::parse_fault_plan(v);
         if (!parsed.is_ok()) return parsed.message();
         fault_plan = parsed.value();
         return std::string();
       }},
      {"--deadline", number("--deadline", deadline_ticks, 1)},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto flag =
        std::find_if(value_flags.begin(), value_flags.end(),
                     [&](const auto& entry) { return entry.first == arg; });
    if (flag != value_flags.end()) {
      const std::string error = i + 1 >= argc ? arg + " needs a value"
                                              : flag->second(argv[++i]);
      if (!error.empty()) {
        std::fprintf(stderr, "record_serve: %s\n", error.c_str());
        return 2;
      }
    } else if (arg == "--preempt") {
      preempt = true;
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: record_serve [out.json] [--threads N] "
                   "[--policy fifo|sjf|prefix-aware] "
                   "[--workload synthetic|shared-prefix|poisson|bursty|"
                   "long-prompt|trace=PATH] [--seed N] [--rate R] "
                   "[--prefill-chunk N] "
                   "[--kv-format FP32|INT8|BFP<m>|BBFP(<m>,<o>)] "
                   "[--draft STRATEGY --draft-k N] "
                   "[--fault-plan SPEC] [--preempt] [--deadline TICKS]\n"
                   "Without --kv-format, --prefill-chunk, --draft or the "
                   "fault flags it also records the committed KV-frontier, "
                   "chunked-prefill, speculative and SLO sections.\n");
      return 0;
    } else if (arg.rfind("-", 0) == 0) {
      std::fprintf(stderr, "record_serve: unknown option \"%s\"\n",
                   arg.c_str());
      return 2;
    } else if (have_out_path) {
      std::fprintf(stderr, "record_serve: unexpected argument \"%s\"\n",
                   arg.c_str());
      return 2;
    } else {
      out_path = arg;
      have_out_path = true;
    }
  }
  if ((draft.empty() && draft_k > 0) || (!draft.empty() && draft_k == 0)) {
    std::fprintf(stderr,
                 "record_serve: --draft and --draft-k go together\n");
    return 2;
  }
  // Each count's floor is what its use needs: sample_stream draws at least
  // two eval tokens, a shared prefix may be empty.
  int eval_tokens = 128;
  int num_requests = 8;
  int new_tokens = 16;
  int max_batch = 4;
  int prefix_len = 8;
  int frontier_prefix = 24;
  int long_prompt = 96;
  int long_every = 4;
  int env_threads = 0;  ///< unset: the pool's default width
  const auto env = [](const char* name, int lo, int& out) {
    return tools::env_number("record_serve", name, lo, out);
  };
  if (!env("BBAL_EVAL_TOKENS", 2, eval_tokens) ||
      !env("BBAL_SERVE_REQUESTS", 1, num_requests) ||
      !env("BBAL_SERVE_NEW_TOKENS", 1, new_tokens) ||
      !env("BBAL_SERVE_BATCH", 1, max_batch) ||
      !env("BBAL_SERVE_PREFIX", 0, prefix_len) ||
      !env("BBAL_SERVE_FRONTIER_PREFIX", 0, frontier_prefix) ||
      !env("BBAL_SERVE_LONG_PROMPT", 1, long_prompt) ||
      !env("BBAL_SERVE_LONG_EVERY", 1, long_every) ||
      !env("BBAL_THREADS", 1, env_threads))
    return 2;
  // --threads wins; the knob must land before the first
  // ThreadPool::global() use.
  const int threads = threads_flag > 0 ? threads_flag : env_threads;
  if (threads > 0) common::ThreadPool::set_global_threads(threads);

  const char* model_env = std::getenv("BBAL_MODEL");
  const auto model =
      llm::find_config(model_env != nullptr ? model_env : "Llama-7B");
  if (!model.is_ok()) {
    std::fprintf(stderr, "record_serve: %s\n", model.message().c_str());
    return 2;
  }
  const std::string& model_name = model.value().name;

  // The serving rows of the paper's strategy space: the FP32 reference, the
  // INT8 ASIC baseline, classic BFP and the BBAL formats.
  const std::vector<std::string> strategies = {"FP32", "INT8", "BFP4",
                                               "BBFP(4,2)", "BBFP(6,3)"};

  const auto wall_start = std::chrono::steady_clock::now();
  const auto prepared = prepare_shared(model.value(), eval_tokens);

  // One row: serve `requests` on a fresh engine over `spec`, priced on an
  // iso-area accelerator (Fig. 8's comparison rule) when the strategy has
  // a PE design. Prints why and returns nothing when the engine cannot be
  // built or — with `require_complete` — a request did not complete.
  const auto serve_row =
      [&](const std::string& label, const quant::StrategySpec& spec,
          serve::Engine::Options options,
          const std::vector<serve::Request>& mix,
          bool require_complete) -> std::optional<serve::Report> {
    if (BackendRegistry::instance().has_cost_model(spec)) {
      auto cfg = accel::make_iso_area_config(spec,
                                             /*pe_area_budget_um2=*/150000.0);
      if (!cfg.is_ok()) {
        std::fprintf(stderr, "  %s: %s\n", label.c_str(),
                     cfg.message().c_str());
        return std::nullopt;
      }
      options.accelerator = std::move(cfg).value();
    }
    auto engine = serve::Engine::create(
        prepared, spec, quant::StrategySpec::fp32(), std::move(options));
    if (!engine.is_ok()) {
      std::fprintf(stderr, "  %s: %s\n", label.c_str(),
                   engine.message().c_str());
      return std::nullopt;
    }
    for (const serve::Request& req : mix) engine.value().submit(req);
    serve::Report report = engine.value().run();
    if (require_complete && report.completed != report.requests) {
      std::fprintf(stderr, "  %s: only %lld of %lld requests completed\n",
                   label.c_str(), static_cast<long long>(report.completed),
                   static_cast<long long>(report.requests));
      return std::nullopt;
    }
    return report;
  };

  // The sibling gate of chaos and speculative rows: re-serve `mix` on an
  // engine with `options` minus the draft (callers leave out the fault
  // harness) and require `report` to agree with it stream for stream.
  const auto sibling_agrees =
      [&](const std::string& label, const quant::StrategySpec& spec,
          serve::Engine::Options options,
          const std::vector<serve::Request>& mix, const serve::Report& report) {
    options.draft.clear();
    options.draft_k = 0;
    const auto sibling =
        serve_row(label + " (sibling)", spec, std::move(options), mix,
                  /*require_complete=*/false);
    return sibling && chaos_rows_agree(label.c_str(), report, *sibling);
  };

  // A generated request mix and its self-describing provenance string, by
  // workload name. The descriptor lands in meta and in every row
  // ("workload", part of the bench_compare row key), so a baseline names
  // the traffic that made it. The committed sections build their mixes
  // here too; only shared-prefix reads `prefix_len`.
  struct Mix {
    std::vector<serve::Request> requests;
    std::string descriptor;
  };
  const auto build_mix = [&](const std::string& name, int prefix_len = 0) {
    const std::string count = "(n=" + std::to_string(num_requests);
    const std::string seeded = ",seed=" + std::to_string(seed) + ")";
    Mix mix;
    if (name == "shared-prefix") {
      mix.requests = serve::shared_prefix_requests(
          prepared->config, num_requests, prefix_len, /*suffix_len=*/4,
          new_tokens, seed);
      mix.descriptor = "shared-prefix" + count +
                       ",prefix=" + std::to_string(prefix_len) + seeded;
      return mix;
    }
    if (name == "long-prompt") {
      mix.requests = serve::long_prompt_requests(
          prepared->config, num_requests, /*base_prompt_len=*/12, long_prompt,
          long_every, new_tokens, seed);
      mix.descriptor = "long-prompt" + count +
                       ",long=" + std::to_string(long_prompt) +
                       ",every=" + std::to_string(long_every) + seeded + "+";
    } else {
      mix.requests = serve::synthetic_requests(
          prepared->config, num_requests, /*base_prompt_len=*/12, new_tokens,
          seed);
      if (name == "synthetic") {
        mix.descriptor = "synthetic" + count + seeded;
        return mix;
      }
    }
    // long-prompt, poisson and bursty: seeded open-loop arrivals at --rate.
    serve::ArrivalSpec arrival;
    arrival.kind = name == "bursty" ? serve::ArrivalSpec::Kind::kBursty
                                    : serve::ArrivalSpec::Kind::kPoisson;
    arrival.rate = rate;
    arrival.seed = seed;
    serve::stamp_arrivals(mix.requests,
                          serve::generate_arrivals(arrival, num_requests));
    mix.descriptor += serve::describe_arrivals(arrival);
    return mix;
  };

  Mix mix;
  if (workload.rfind("trace=", 0) == 0) {
    const std::string path = workload.substr(6);
    auto entries = serve::read_trace(path);
    if (!entries.is_ok()) {
      std::fprintf(stderr, "record_serve: %s\n", entries.message().c_str());
      return 1;
    }
    mix.requests = serve::materialize_trace(prepared->config, entries.value(),
                                            seed);
    mix.descriptor = "trace(" + path + ",seed=" + std::to_string(seed) + ")";
  } else {
    mix = build_mix(workload, prefix_len);
  }
  std::vector<serve::Request> requests = std::move(mix.requests);
  std::string descriptor = std::move(mix.descriptor);

  // Chaos mode (--fault-plan / --preempt / --deadline): deadline-stamp the
  // mix and suffix the descriptor so chaos rows never collide with default
  // rows under bench_compare. The fault-free request copy keeps the
  // original stamps — it feeds the sibling runs the sibling gate diffs
  // against.
  const bool chaos = !fault_plan.empty() || preempt || deadline_ticks > 0;
  const std::vector<serve::Request> clean_requests = requests;
  if (deadline_ticks > 0)
    for (serve::Request& req : requests)
      req.deadline_tick = req.arrival_tick + deadline_ticks;
  if (chaos) {
    if (!fault_plan.empty())
      descriptor += "+faults(" + fault_plan.describe() + ")";
    if (preempt) descriptor += "+preempt=on";
    if (deadline_ticks > 0)
      descriptor += "+deadline=" + std::to_string(deadline_ticks);
  }

  std::fprintf(stderr,
               "serving %zu requests [%s] (x%d tokens, batch %d) on %s "
               "under %zu strategies...\n",
               requests.size(), descriptor.c_str(), new_tokens, max_batch,
               model_name.c_str(), strategies.size());

  // The strategy rows' engine configuration, minus the fault harness.
  // The sibling runs use it minus the draft as well.
  serve::Engine::Options row_options;
  row_options.max_batch = max_batch;
  row_options.policy = policy;
  if (!kv_format.empty()) row_options.kv_format = kv_format;
  if (draft_k > 0) {
    row_options.draft = draft;
    row_options.draft_k = draft_k;
  }
  if (prefill_chunk > 0) {
    row_options.prefill_chunk = prefill_chunk;
    // Budget = chunk: a tick grants at most one chunk's worth of prefill
    // tokens across the batch, the decode-protecting pairing the docs
    // study uses. Chunk 1 is the legacy lockstep, left unbudgeted.
    row_options.prefill_budget = prefill_chunk > 1 ? prefill_chunk : 0;
  }

  std::vector<std::string> rows;
  for (const std::string& strategy : strategies) {
    const auto spec = quant::StrategySpec::parse(strategy);
    if (!spec.is_ok()) {
      std::fprintf(stderr, "  %s: %s\n", strategy.c_str(),
                   spec.message().c_str());
      return 1;
    }
    serve::Engine::Options options = row_options;
    if (chaos) {
      options.faults = fault_plan;
      options.preempt = preempt;
    }
    auto report = serve_row(strategy, spec.value(), std::move(options),
                            requests, /*require_complete=*/!chaos);
    if (!report) return 1;
    report->workload = descriptor;
    if ((chaos || draft_k > 0) &&
        !sibling_agrees(strategy, spec.value(), row_options, clean_requests,
                        *report))
      return 1;
    if (chaos) {
      std::fprintf(stderr,
                   "  %s: %lld/%lld completed, hash %u, %lld preempted "
                   "%lld resumed, %lld timeout %lld cancelled %lld oom\n",
                   strategy.c_str(),
                   static_cast<long long>(report->completed),
                   static_cast<long long>(report->requests),
                   report->stream_hash,
                   static_cast<long long>(report->preemptions),
                   static_cast<long long>(report->resumes),
                   static_cast<long long>(report->timeouts),
                   static_cast<long long>(report->cancellations),
                   static_cast<long long>(report->oom_failures));
    } else if (draft_k > 0) {
      std::fprintf(stderr,
                   "  %s: %lld tokens, hash %u, acceptance %.3f, "
                   "speedup %.3f\n",
                   strategy.c_str(),
                   static_cast<long long>(report->generated_tokens),
                   report->stream_hash, report->acceptance_rate,
                   report->speedup_vs_target);
    } else {
      std::fprintf(stderr, "  %s: %lld tokens, hash %u, weights %lld B\n",
                   strategy.c_str(),
                   static_cast<long long>(report->generated_tokens),
                   report->stream_hash,
                   static_cast<long long>(report->weights_bytes));
    }
    rows.push_back(report->to_json());
  }

  // The committed sections below run only on the default invocation:
  // --kv-format, --prefill-chunk, --draft and chaos mode pin ad-hoc
  // configurations and record strategy rows only.
  const bool committed =
      kv_format.empty() && prefill_chunk == 0 && draft_k == 0 && !chaos;
  const auto bbfp42 =
      quant::StrategySpec::parse("BBFP(4,2)").expect("BBFP(4,2)");

  // The committed accuracy/memory frontier: one shared-prefix run per
  // storable KV format, all on the BBFP(4,2) matmul under the prefix-aware
  // policy. Every engine serves the same traffic, so the rows differ only
  // in how the pool stores K/V — kv_bytes_peak falls with the format while
  // the stream hash records any token divergence.
  if (committed) {
    const Mix frontier = build_mix("shared-prefix", frontier_prefix);
    std::fprintf(stderr, "frontier: %zu requests [%s] under %zu KV formats\n",
                 frontier.requests.size(), frontier.descriptor.c_str(),
                 strategies.size());
    for (const std::string& format : strategies) {
      serve::Engine::Options options;
      options.max_batch = max_batch;
      options.policy = "prefix-aware";
      options.kv_format = format;
      auto report = serve_row("kv=" + format, bbfp42, std::move(options),
                              frontier.requests, /*require_complete=*/true);
      if (!report) return 1;
      report->workload = frontier.descriptor;
      std::fprintf(stderr, "  kv=%s: %lld tokens, hash %u, kv peak %lld B\n",
                   format.c_str(),
                   static_cast<long long>(report->generated_tokens),
                   report->stream_hash,
                   static_cast<long long>(report->kv_bytes_peak));
      rows.push_back(report->to_json());
    }
  }

  // The committed chunked-prefill comparison: the long-prompt mix under
  // Poisson arrivals, served by the BBFP(4,2)/fifo engine at chunk 1
  // (the legacy lockstep), 8 and 32 — identical token streams (the
  // engine's bit-identity contract, stream_hash exact across the rows)
  // with TTFT falling as the chunk grows (docs/PREFILL.md quantifies).
  // The chunk size is named in the workload descriptor so the rows key
  // separately under bench_compare.
  if (committed) {
    const Mix prefill = build_mix("long-prompt");
    std::fprintf(stderr, "prefill comparison: %zu requests [%s]\n",
                 prefill.requests.size(), prefill.descriptor.c_str());
    for (const int chunk : {1, 8, 32}) {
      serve::Engine::Options options;
      options.max_batch = max_batch;
      options.policy = "fifo";
      options.prefill_chunk = chunk;
      options.prefill_budget = chunk > 1 ? chunk : 0;
      auto report =
          serve_row("chunk=" + std::to_string(chunk), bbfp42,
                    std::move(options), prefill.requests,
                    /*require_complete=*/true);
      if (!report) return 1;
      report->workload = prefill.descriptor + "+chunk=" + std::to_string(chunk);
      std::fprintf(stderr,
                   "  chunk=%2d: hash %u, mean ttft %.4gs, p99 itl %.4gs, "
                   "%lld mixed ticks\n",
                   chunk, report->stream_hash, report->ttft_mean_seconds,
                   report->p99_inter_token_seconds,
                   static_cast<long long>(report->mixed_ticks));
      rows.push_back(report->to_json());
    }
  }
  // The committed speculative comparison: cross-tier (draft -> target)
  // pairs over the default synthetic mix, each target priced on its
  // iso-area accelerator and each draft on an iso-area re-provisioning of
  // the SAME silicon budget. Greedy verification makes every row's
  // streams equal its target-only sibling's — the sibling gate enforces
  // that here, so a committed speculative row can never disagree with the
  // baseline it claims to accelerate. The pairs span
  // the interesting frontier: the INT8 self-draft (acceptance exactly
  // 1.0 on the target's own array, so it cannot clear parity), the best
  // cross-tier pair (a high-fidelity BBFP(6,3) draft under the INT8
  // target), and the self-draft reference on the paper's headline
  // BBFP(4,2) format.
  if (committed) {
    struct SpecPair {
      const char* target;
      const char* draft;
      int k;
    };
    const std::vector<SpecPair> pairs = {
        {"INT8", "INT8", 4},
        {"INT8", "BBFP(6,3)", 2},
        {"BBFP(4,2)", "BBFP(4,2)", 4},
    };
    const Mix synthetic = build_mix("synthetic");
    std::fprintf(stderr, "speculative: %zu requests [%s] under %zu pairs\n",
                 synthetic.requests.size(), synthetic.descriptor.c_str(),
                 pairs.size());
    for (const SpecPair& pair : pairs) {
      const auto spec = quant::StrategySpec::parse(pair.target)
                            .expect("speculative target");
      serve::Engine::Options options;
      options.max_batch = max_batch;
      options.policy = "fifo";
      options.draft = pair.draft;
      options.draft_k = pair.k;
      const std::string label = std::string(pair.target) + "<-" + pair.draft;
      auto report = serve_row(label, spec, options, synthetic.requests,
                              /*require_complete=*/true);
      if (!report ||
          !sibling_agrees(label, spec, options, synthetic.requests, *report))
        return 1;
      report->workload = synthetic.descriptor;
      std::fprintf(stderr,
                   "  %s<-%s k=%d: hash %u, acceptance %.3f, speedup %.3f\n",
                   pair.target, pair.draft, pair.k, report->stream_hash,
                   report->acceptance_rate, report->speedup_vs_target);
      rows.push_back(report->to_json());
    }
  }

  // The committed SLO capacity sweep: offered load x scheduler policy on
  // the BBFP(4,2) engine, each cell one shared-prefix trace stamped with
  // Poisson arrivals at its load (the request shapes are load-invariant;
  // only the arrival stamps move) and scored against kSlo. The rows
  // carry the queueing metrics, latency tails and goodput, so the sweep
  // records the saturation knee (docs/LOADGEN.md).
  if (committed) {
    const auto slo_mix = [&](double load) {
      serve::ArrivalSpec arrival;
      arrival.kind = serve::ArrivalSpec::Kind::kPoisson;
      arrival.rate = load;
      arrival.seed = seed;
      const auto entries = serve::shared_prefix_trace(
          kSloRequests, serve::generate_arrivals(arrival, kSloRequests),
          kSloGroups, kSloPrefix, /*suffix_len=*/4, new_tokens);
      Mix mix;
      mix.requests = serve::materialize_trace(prepared->config, entries, seed);
      mix.descriptor = serve::describe_arrivals(arrival) +
                       "+shared-prefix(n=" + std::to_string(kSloRequests) +
                       ",groups=" + std::to_string(kSloGroups) +
                       ",prefix=" + std::to_string(kSloPrefix) + ")";
      return mix;
    };
    std::fprintf(stderr,
                 "SLO sweep: %zu loads x %zu policies, %d requests, SLO "
                 "ttft<=%.3gs itl<=%.3gs\n",
                 std::size(kSloLoads), serve::policy_names().size(),
                 kSloRequests, kSlo.ttft_seconds, kSlo.inter_token_seconds);
    // The last load's prefix-aware cell: the overload cell the pair
    // below re-serves.
    std::optional<serve::Report> overload;
    for (const double load : kSloLoads) {
      const Mix mix = slo_mix(load);
      for (const std::string& policy : serve::policy_names()) {
        serve::Engine::Options options;
        options.max_batch = max_batch;
        options.policy = policy;
        options.slo = kSlo;
        char label[64];
        std::snprintf(label, sizeof(label), "%s @ %.3g", policy.c_str(), load);
        auto report = serve_row(label, bbfp42, std::move(options),
                                mix.requests, /*require_complete=*/true);
        if (!report) return 1;
        report->workload = mix.descriptor;
        std::fprintf(stderr,
                     "  load %.3g %-12s p99 ttft %.4gs, queue p99 %.4g "
                     "ticks, goodput %.3f, hash %u\n",
                     load, policy.c_str(), report->p99_ttft_seconds,
                     report->queue_delay_p99_ticks, report->goodput_under_slo,
                     report->stream_hash);
        rows.push_back(report->to_json());
        if (policy == "prefix-aware") overload = std::move(report);
      }
    }

    // The committed preemption pair: the overload cell (top load,
    // prefix-aware) re-served under a mid-run pool-exhaustion window
    // [40, 70) — past the first admissions, and wide enough that whole
    // batches cross a page boundary inside it — once with preemption off
    // and once with it on. Off, every decode flight that crosses a page
    // boundary inside the window retires with a typed `oom`; on, the
    // scheduler suspends the crossers, waits out the window and resumes
    // them. The pair is scored against a degraded-mode SLO, 10x kSlo: a
    // resumed request's inter-token gap includes its suspension, so the
    // steady-state SLO would score a rescued request and a dead one alike
    // ("late beats never" is what preemption is for). Both rows must
    // agree with the fault-free overload cell under the sibling rule, and
    // goodput with preemption must STRICTLY exceed goodput without.
    const Mix top = slo_mix(kSloLoads[std::size(kSloLoads) - 1]);
    const auto plan =
        serve::parse_fault_plan("exhaust@40..70").expect("fault plan");
    double goodput[2] = {0.0, 0.0};
    for (const bool preempt_on : {false, true}) {
      const std::string label = preempt_on ? "preempt=on" : "preempt=off";
      serve::Engine::Options options;
      options.max_batch = max_batch;
      options.policy = "prefix-aware";
      options.slo = serve::Slo{10.0 * kSlo.ttft_seconds,
                               10.0 * kSlo.inter_token_seconds};
      options.faults = plan;
      options.preempt = preempt_on;
      auto report = serve_row(label, bbfp42, std::move(options), top.requests,
                              /*require_complete=*/false);
      if (!report || !chaos_rows_agree(label.c_str(), *report, *overload))
        return 1;
      report->workload =
          top.descriptor + "+faults(" + plan.describe() + ")+" + label;
      goodput[preempt_on ? 1 : 0] = report->goodput_under_slo;
      std::fprintf(stderr,
                   "  %-11s %lld/%lld completed, %lld oom, %lld preempted "
                   "%lld resumed, goodput %.3f, hash %u\n",
                   label.c_str(), static_cast<long long>(report->completed),
                   static_cast<long long>(report->requests),
                   static_cast<long long>(report->oom_failures),
                   static_cast<long long>(report->preemptions),
                   static_cast<long long>(report->resumes),
                   report->goodput_under_slo, report->stream_hash);
      rows.push_back(report->to_json());
    }
    if (goodput[1] <= goodput[0]) {
      std::fprintf(stderr,
                   "preemption pair: goodput with preemption (%.3f) must "
                   "STRICTLY exceed goodput without (%.3f)\n",
                   goodput[1], goodput[0]);
      return 1;
    }
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n\"meta\": {\"model\": \"%s\", \"eval_tokens\": %d, "
               "\"requests\": %zu, \"new_tokens\": %d, \"max_batch\": %d, "
               "\"policy\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
               "\"threads\": %d, \"hardware_concurrency\": %u, "
               "\"wall_seconds\": %.6g},\n\"rows\": [\n",
               model_name.c_str(), eval_tokens, requests.size(), new_tokens,
               max_batch, policy.c_str(), descriptor.c_str(),
               static_cast<unsigned long long>(seed),
               common::ThreadPool::global().thread_count(),
               std::thread::hardware_concurrency(), wall_seconds);
  for (std::size_t i = 0; i < rows.size(); ++i)
    std::fprintf(out, "%s  %s", i == 0 ? "" : ",\n", rows[i].c_str());
  std::fprintf(out, "\n]\n}\n");
  std::fclose(out);
  std::fprintf(stderr, "wrote %s (%.2fs wall-clock)\n", out_path.c_str(),
               wall_seconds);
  return 0;
}
