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
//        BBAL_THREADS (--threads wins)
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
// verification makes this a scheduling change only — the stream hashes
// must equal the target-only rows' exactly. Ad-hoc like the other pinning
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
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bbal/registry.hpp"
#include "common/threadpool.hpp"
#include "quant/kv_codec.hpp"
#include "serve/engine.hpp"
#include "serve/faults.hpp"
#include "serve/load.hpp"
#include "serve/policy.hpp"
#include "serve/trace.hpp"
#include "serve/workload.hpp"

namespace {

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

/// True when `partial` is a (possibly complete) prefix of `full`.
bool is_prefix(const std::vector<int>& partial, const std::vector<int>& full) {
  if (partial.size() > full.size()) return false;
  return std::equal(partial.begin(), partial.end(), full.begin());
}

/// The chaos smoke's hash gate: every faulted result must agree with the
/// fault-free sibling run of the same engine configuration — completed
/// streams bit-identical, partial output a strict prefix of the sibling's
/// stream, and every failure typed (reason != none). Greedy decoding makes
/// this exact: a request's continuation is a pure function of its prompt,
/// so no fault may change a token it does not remove. Returns false (and
/// prints why) on any violation.
bool chaos_rows_agree(const char* label, const bbal::serve::Report& faulted,
                      const bbal::serve::Report& clean) {
  using bbal::serve::FinishReason;
  for (std::size_t i = 0; i < faulted.results.size(); ++i) {
    const auto& f = faulted.results[i];
    const auto& c = clean.results[i];
    if (f.ok && f.generated != c.generated) {
      std::fprintf(stderr,
                   "  %s: request %zu completed under faults but diverged "
                   "from the fault-free stream\n",
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
                   "fault-free stream\n",
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
  const std::vector<std::pair<std::string, Parser>> value_flags = {
      {"--workload",
       [&](const std::string& v) {
         workload = v;
         const bool known = v == "synthetic" || v == "shared-prefix" ||
                            v == "poisson" || v == "bursty" ||
                            v == "long-prompt" || v.rfind("trace=", 0) == 0;
         return known ? "" : bad("--workload", v);
       }},
      {"--seed",
       [&](const std::string& v) {
         seed = std::strtoull(v.c_str(), nullptr, 10);
         return std::string();
       }},
      {"--rate",
       [&](const std::string& v) {
         rate = std::strtod(v.c_str(), nullptr);
         return rate > 0.0 ? "" : bad("--rate", v);
       }},
      {"--threads",
       [&](const std::string& v) {
         threads_flag = std::atoi(v.c_str());
         return threads_flag > 0 ? "" : bad("--threads", v);
       }},
      {"--policy",
       [&](const std::string& v) {
         policy = v;
         return serve::make_policy(v).is_ok() ? "" : bad("--policy", v);
       }},
      {"--prefill-chunk",
       [&](const std::string& v) {
         prefill_chunk = std::atoi(v.c_str());
         return prefill_chunk >= 1 ? "" : bad("--prefill-chunk", v);
       }},
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
      {"--draft-k",
       [&](const std::string& v) {
         draft_k = std::atoi(v.c_str());
         return draft_k >= 1 ? "" : bad("--draft-k", v);
       }},
      {"--fault-plan",
       [&](const std::string& v) {
         const auto parsed = serve::parse_fault_plan(v);
         if (!parsed.is_ok()) return parsed.message();
         fault_plan = parsed.value();
         return std::string();
       }},
      {"--deadline",
       [&](const std::string& v) {
         deadline_ticks = std::atoll(v.c_str());
         return deadline_ticks >= 1 ? "" : bad("--deadline", v);
       }},
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
                   "[--fault-plan SPEC] [--preempt] [--deadline TICKS]\n");
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
  // The knob must land before the first ThreadPool::global() use.
  if (threads_flag > 0) common::ThreadPool::set_global_threads(threads_flag);

  const char* model_env = std::getenv("BBAL_MODEL");
  const std::string model_name = model_env != nullptr ? model_env : "Llama-7B";
  const int eval_tokens = env_int("BBAL_EVAL_TOKENS", 128);
  const int num_requests = env_int("BBAL_SERVE_REQUESTS", 8);
  const int new_tokens = env_int("BBAL_SERVE_NEW_TOKENS", 16);
  const int max_batch = env_int("BBAL_SERVE_BATCH", 4);

  // The serving rows of the paper's strategy space: the FP32 reference, the
  // INT8 ASIC baseline, classic BFP and the BBAL formats.
  const std::vector<std::string> strategies = {"FP32", "INT8", "BFP4",
                                               "BBFP(4,2)", "BBFP(6,3)"};

  const auto wall_start = std::chrono::steady_clock::now();
  const auto prepared = prepare_shared(model_name, eval_tokens);

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

  // Build the request mix and its self-describing provenance string. The
  // descriptor lands in meta and in every row ("workload", part of the
  // bench_compare row key), so a baseline names the traffic that made it.
  std::vector<serve::Request> requests;
  std::string descriptor;
  if (workload == "synthetic") {
    requests = serve::synthetic_requests(prepared->config, num_requests,
                                         /*base_prompt_len=*/12, new_tokens,
                                         seed);
    descriptor = "synthetic(n=" + std::to_string(num_requests) +
                 ",seed=" + std::to_string(seed) + ")";
  } else if (workload == "shared-prefix") {
    const int prefix_len = env_int("BBAL_SERVE_PREFIX", 8);
    requests = serve::shared_prefix_requests(prepared->config, num_requests,
                                             prefix_len, /*suffix_len=*/4,
                                             new_tokens, seed);
    descriptor = "shared-prefix(n=" + std::to_string(num_requests) +
                 ",prefix=" + std::to_string(prefix_len) +
                 ",seed=" + std::to_string(seed) + ")";
  } else if (workload == "long-prompt") {
    const int long_prompt = env_int("BBAL_SERVE_LONG_PROMPT", 96);
    const int long_every = env_int("BBAL_SERVE_LONG_EVERY", 4);
    requests = serve::long_prompt_requests(prepared->config, num_requests,
                                           /*base_prompt_len=*/12, long_prompt,
                                           long_every, new_tokens, seed);
    serve::ArrivalSpec spec;
    spec.kind = serve::ArrivalSpec::Kind::kPoisson;
    spec.rate = rate;
    spec.seed = seed;
    const auto ticks = serve::generate_arrivals(spec, num_requests);
    serve::stamp_arrivals(requests, ticks);
    descriptor = "long-prompt(n=" + std::to_string(num_requests) +
                 ",long=" + std::to_string(long_prompt) +
                 ",every=" + std::to_string(long_every) +
                 ",seed=" + std::to_string(seed) + ")+" +
                 serve::describe_arrivals(spec);
  } else if (workload == "poisson" || workload == "bursty") {
    requests = serve::synthetic_requests(prepared->config, num_requests,
                                         /*base_prompt_len=*/12, new_tokens,
                                         seed);
    serve::ArrivalSpec spec;
    spec.kind = workload == "poisson" ? serve::ArrivalSpec::Kind::kPoisson
                                      : serve::ArrivalSpec::Kind::kBursty;
    spec.rate = rate;
    spec.seed = seed;
    const auto ticks = serve::generate_arrivals(spec, num_requests);
    serve::stamp_arrivals(requests, ticks);
    descriptor = serve::describe_arrivals(spec);
  } else {  // trace=PATH, validated during flag parsing
    const std::string path = workload.substr(6);
    auto entries = serve::read_trace(path);
    if (!entries.is_ok()) {
      std::fprintf(stderr, "record_serve: %s\n", entries.message().c_str());
      return 1;
    }
    requests = serve::materialize_trace(prepared->config, entries.value(),
                                        seed);
    descriptor = "trace(" + path + ",seed=" + std::to_string(seed) + ")";
  }

  // Chaos mode (--fault-plan / --preempt / --deadline): deadline-stamp the
  // mix and suffix the descriptor so chaos rows never collide with default
  // rows under bench_compare. The fault-free request copy keeps the
  // original stamps — it feeds the sibling runs the chaos gate diffs
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
  // Strategy-row stream hashes, kept so the committed speculative rows can
  // be checked against their target-only siblings: greedy verification
  // means speculation must reproduce these streams bit for bit.
  std::vector<std::pair<std::string, std::uint32_t>> strategy_hashes;
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
    if (chaos) {
      // The hash gate: a fault-free sibling engine (same strategy, same
      // configuration, no faults/preempt/deadlines) serves the unstamped
      // mix; the faulted run must agree stream for stream.
      const auto clean =
          serve_row(strategy + " (sibling)", spec.value(), row_options,
                    clean_requests, /*require_complete=*/false);
      if (!clean || !chaos_rows_agree(strategy.c_str(), *report, *clean))
        return 1;
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
    strategy_hashes.emplace_back(strategy, report->stream_hash);
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
    const int frontier_prefix = env_int("BBAL_SERVE_FRONTIER_PREFIX", 24);
    const auto frontier_requests = serve::shared_prefix_requests(
        prepared->config, num_requests, frontier_prefix, /*suffix_len=*/4,
        new_tokens, seed);
    const std::string frontier_descriptor =
        "shared-prefix(n=" + std::to_string(num_requests) +
        ",prefix=" + std::to_string(frontier_prefix) +
        ",seed=" + std::to_string(seed) + ")";
    std::fprintf(stderr, "frontier: %zu requests [%s] under %zu KV formats\n",
                 frontier_requests.size(), frontier_descriptor.c_str(),
                 strategies.size());
    for (const std::string& format : strategies) {
      serve::Engine::Options options;
      options.max_batch = max_batch;
      options.policy = "prefix-aware";
      options.kv_format = format;
      auto report = serve_row("kv=" + format, bbfp42, std::move(options),
                              frontier_requests, /*require_complete=*/true);
      if (!report) return 1;
      report->workload = frontier_descriptor;
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
    const int long_prompt = env_int("BBAL_SERVE_LONG_PROMPT", 96);
    const int long_every = env_int("BBAL_SERVE_LONG_EVERY", 4);
    auto prefill_requests = serve::long_prompt_requests(
        prepared->config, num_requests, /*base_prompt_len=*/12, long_prompt,
        long_every, new_tokens, seed);
    serve::ArrivalSpec arrival;
    arrival.kind = serve::ArrivalSpec::Kind::kPoisson;
    arrival.rate = rate;
    arrival.seed = seed;
    const auto ticks = serve::generate_arrivals(arrival, num_requests);
    serve::stamp_arrivals(prefill_requests, ticks);
    const std::string base_descriptor =
        "long-prompt(n=" + std::to_string(num_requests) +
        ",long=" + std::to_string(long_prompt) +
        ",every=" + std::to_string(long_every) +
        ",seed=" + std::to_string(seed) + ")+" +
        serve::describe_arrivals(arrival);
    std::fprintf(stderr, "prefill comparison: %zu requests [%s]\n",
                 prefill_requests.size(), base_descriptor.c_str());
    for (const int chunk : {1, 8, 32}) {
      serve::Engine::Options options;
      options.max_batch = max_batch;
      options.policy = "fifo";
      options.prefill_chunk = chunk;
      options.prefill_budget = chunk > 1 ? chunk : 0;
      auto report =
          serve_row("chunk=" + std::to_string(chunk), bbfp42,
                    std::move(options), prefill_requests,
                    /*require_complete=*/true);
      if (!report) return 1;
      report->workload = base_descriptor + "+chunk=" + std::to_string(chunk);
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
  // pairs over the same synthetic mix as the strategy rows, each target
  // priced on its iso-area accelerator and each draft on an iso-area
  // re-provisioning of the SAME silicon budget. Greedy verification makes
  // every row's stream hash equal its target-only sibling's above — the
  // tool enforces that here, so a committed speculative row can never
  // disagree with the baseline it claims to accelerate. The pairs span
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
    const auto spec_requests = serve::synthetic_requests(
        prepared->config, num_requests, /*base_prompt_len=*/12, new_tokens,
        seed);
    const std::string spec_descriptor =
        "synthetic(n=" + std::to_string(num_requests) +
        ",seed=" + std::to_string(seed) + ")";
    std::fprintf(stderr, "speculative: %zu requests [%s] under %zu pairs\n",
                 spec_requests.size(), spec_descriptor.c_str(), pairs.size());
    for (const SpecPair& pair : pairs) {
      const auto spec = quant::StrategySpec::parse(pair.target)
                            .expect("speculative target");
      serve::Engine::Options options;
      options.max_batch = max_batch;
      options.policy = "fifo";
      options.draft = pair.draft;
      options.draft_k = pair.k;
      auto report = serve_row(std::string(pair.target) + "<-" + pair.draft,
                              spec, std::move(options), spec_requests,
                              /*require_complete=*/true);
      if (!report) return 1;
      report->workload = spec_descriptor;
      // The strategy rows above served this exact mix when the run used
      // the default workload — cross-check the identity there.
      if (workload == "synthetic" && policy == "fifo") {
        for (const auto& [strategy, hash] : strategy_hashes) {
          if (strategy == pair.target && report->stream_hash != hash) {
            std::fprintf(stderr,
                         "  %s<-%s: stream hash %u diverged from the "
                         "target-only row's %u — speculation changed "
                         "tokens\n",
                         pair.target, pair.draft, report->stream_hash, hash);
            return 1;
          }
        }
      }
      std::fprintf(stderr,
                   "  %s<-%s k=%d: hash %u, acceptance %.3f, speedup %.3f\n",
                   pair.target, pair.draft, pair.k, report->stream_hash,
                   report->acceptance_rate, report->speedup_vs_target);
      rows.push_back(report->to_json());
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
