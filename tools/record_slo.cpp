// record_slo — capacity-planning baseline: sweep offered load x scheduler
// policy at ONE fixed model/strategy pair and record goodput under an SLO.
//
// Every (load, policy) cell serves the same shared-prefix trace
// (serve::shared_prefix_trace -> materialize_trace, the recorded-workload
// path) stamped with Poisson arrivals at that load, on a BBFP(4,2) engine
// priced by the iso-area accelerator. The row carries the open-loop
// queueing metrics (queue delay, offered vs achieved tokens/tick), the
// latency tails (p99 TTFT, inter-token percentiles) and goodput_under_slo
// against the configured SLO. Everything is on the simulated clock, so
// rows are bit-identical across hosts and thread counts; CI diffs a fresh
// run against the committed BENCH_slo.json with tools/bench_compare,
// which gates every row field exactly.
//
// The committed sweep shows the saturation knee the study is about: at
// the low load the engine keeps up (goodput 1.0, queues empty), at the
// top load arrivals outrun capacity (p99 TTFT >= 2x the low-load point,
// goodput < 1.0); tests/test_load.cpp's overload test holds the same
// shape on a small model.
//
// Output shape: {"meta": {...}, "rows": [...]}, one row per
// (load, policy), the same contract as record_serve/record_table2.
//
// Usage: record_slo [out.json] [--threads N] [--quick]
//                   [--slo-ttft SECONDS] [--slo-itl SECONDS]
//                   [--prefill-chunk N]
//        --quick records only the top (overload) load point — the CI
//        quick tier gates it against the full committed sweep with
//        bench_compare --rows-subset.
//        --prefill-chunk N serves every cell with chunked prefill
//        (prefill_chunk = N, prefill_budget = N; docs/PREFILL.md) — an
//        ad-hoc capacity study, not part of the committed baseline. N = 1
//        is the legacy lockstep (budget 0), byte-exact with the default.
// Env:   BBAL_MODEL (default Llama-7B), BBAL_EVAL_TOKENS (default 128),
//        BBAL_SLO_REQUESTS (default 24), BBAL_SLO_NEW_TOKENS (default 16),
//        BBAL_SLO_BATCH (default 4), BBAL_THREADS (--threads wins). The
//        integer variables take one whole number (eval tokens >= 2, the
//        rest >= 1); any other value exits 2, naming the variable.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bbal/registry.hpp"
#include "common/threadpool.hpp"
#include "parse_number.hpp"
#include "serve/engine.hpp"
#include "serve/faults.hpp"
#include "serve/load.hpp"
#include "serve/trace.hpp"

namespace {

// The swept offered loads (requests per engine tick). Capacity with the
// default mix (batch 4, ~20-token prompts + 16 completions) is roughly
// 0.1 req/tick, so the three points sit well under, near, and well over
// the knee.
constexpr double kLoads[] = {0.02, 0.08, 0.32};

}  // namespace

int main(int argc, char** argv) {
  using namespace bbal;

  std::string out_path = "BENCH_slo.json";
  bool have_out_path = false;
  bool quick = false;
  int threads_flag = 0;
  // Default SLO: chosen against the committed Llama-7B/BBFP(4,2) sweep so
  // every sub-knee point passes with >=60% headroom while the overload
  // point visibly fails under fifo/sjf (p99 TTFT 0.022s vs the 0.010s
  // bound). Re-derive after a model/accelerator change: ~1.6x the mid-load
  // p99 TTFT, ~25x the per-tick step latency (docs/LOADGEN.md).
  double slo_ttft = 0.010;
  double slo_itl = 0.005;
  int prefill_chunk = 0;  ///< 0: the engine default (no chunking)
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" || arg == "--prefill-chunk" ||
        arg == "--slo-ttft" || arg == "--slo-itl") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "record_slo: %s needs a value\n", arg.c_str());
        return 2;
      }
      // Every value is one whole number: a count >= 1 or seconds > 0.
      const std::string_view value = argv[++i];
      bool ok = false;
      if (arg == "--threads") {
        ok = tools::parse_number(value, 1, threads_flag);
      } else if (arg == "--prefill-chunk") {
        ok = tools::parse_number(value, 1, prefill_chunk);
      } else {
        ok = tools::parse_number(value, std::numeric_limits<double>::min(),
                                 arg == "--slo-ttft" ? slo_ttft : slo_itl);
      }
      if (!ok) {
        std::fprintf(stderr, "record_slo: bad %s value \"%s\"\n", arg.c_str(),
                     argv[i]);
        return 2;
      }
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: record_slo [out.json] [--threads N] [--quick] "
                   "[--slo-ttft SECONDS] [--slo-itl SECONDS] "
                   "[--prefill-chunk N]\n");
      return 0;
    } else if (arg.rfind("-", 0) == 0) {
      std::fprintf(stderr, "record_slo: unknown option \"%s\"\n", arg.c_str());
      return 2;
    } else if (have_out_path) {
      std::fprintf(stderr, "record_slo: unexpected argument \"%s\"\n",
                   arg.c_str());
      return 2;
    } else {
      out_path = arg;
      have_out_path = true;
    }
  }
  // sample_stream draws at least two eval tokens.
  int eval_tokens = 128;
  int num_requests = 24;
  int new_tokens = 16;
  int max_batch = 4;
  const auto env = [](const char* name, int lo, int& out) {
    return tools::env_number("record_slo", name, lo, out);
  };
  if (!env("BBAL_EVAL_TOKENS", 2, eval_tokens) ||
      !env("BBAL_SLO_REQUESTS", 1, num_requests) ||
      !env("BBAL_SLO_NEW_TOKENS", 1, new_tokens) ||
      !env("BBAL_SLO_BATCH", 1, max_batch))
    return 2;
  if (threads_flag > 0) common::ThreadPool::set_global_threads(threads_flag);

  const char* model_env = std::getenv("BBAL_MODEL");
  const std::string model_name = model_env != nullptr ? model_env : "Llama-7B";
  constexpr std::uint64_t kSeed = 2024;
  constexpr int kGroups = 4;
  constexpr int kPrefixLen = 16;  // one full KV page: prefix-aware can share

  // --quick keeps only the overload point — the one whose regression
  // (a capacity loss) the gate most needs to catch.
  std::vector<double> loads(std::begin(kLoads), std::end(kLoads));
  if (quick) loads.erase(loads.begin(), loads.end() - 1);

  const auto wall_start = std::chrono::steady_clock::now();
  const auto prepared = prepare_shared(model_name, eval_tokens);
  const auto spec = quant::StrategySpec::parse("BBFP(4,2)").expect("strategy");

  std::fprintf(stderr,
               "SLO sweep: %zu load(s) x %zu policies, %d requests "
               "(prefix %d, x%d tokens, batch %d) on %s, BBFP(4,2), "
               "SLO ttft<=%.3gs itl<=%.3gs...\n",
               loads.size(), serve::policy_names().size(), num_requests,
               kPrefixLen, new_tokens, max_batch, model_name.c_str(),
               slo_ttft, slo_itl);

  // One (load, policy) cell: the shared-prefix trace at `load`, served on
  // a BBFP(4,2) engine priced by the iso-area accelerator under `slo`.
  // Every request must finish with ok or a typed reason — never untyped.
  const auto serve_cell = [&](const std::string& label, double load,
                              serve::Engine::Options options, serve::Slo slo)
      -> std::optional<serve::Report> {
    // The request *shapes* are load-invariant (same prompts, same
    // budgets); only the arrival stamps move.
    serve::ArrivalSpec arrival;
    arrival.kind = serve::ArrivalSpec::Kind::kPoisson;
    arrival.rate = load;
    arrival.seed = kSeed;
    const auto ticks = serve::generate_arrivals(arrival, num_requests);
    const auto entries = serve::shared_prefix_trace(
        num_requests, ticks, kGroups, kPrefixLen, /*suffix_len=*/4,
        new_tokens);
    options.max_batch = max_batch;
    options.accelerator =
        accel::make_iso_area_config(spec, /*pe_area_budget_um2=*/150000.0)
            .expect("iso-area config");
    options.slo = slo;
    auto engine = serve::Engine::create(prepared, spec,
                                        quant::StrategySpec::fp32(),
                                        std::move(options));
    if (!engine.is_ok()) {
      std::fprintf(stderr, "  %s: %s\n", label.c_str(),
                   engine.message().c_str());
      return std::nullopt;
    }
    for (const serve::Request& req :
         serve::materialize_trace(prepared->config, entries, kSeed))
      engine.value().submit(req);
    serve::Report report = engine.value().run();
    for (const serve::RequestResult& r : report.results) {
      if (!r.ok && r.reason == serve::FinishReason::kNone) {
        std::fprintf(stderr,
                     "  %s: request %llu failed with an UNTYPED error: %s\n",
                     label.c_str(), static_cast<unsigned long long>(r.id),
                     r.error.c_str());
        return std::nullopt;
      }
    }
    report.workload = serve::describe_arrivals(arrival) +
                      "+shared-prefix(n=" + std::to_string(num_requests) +
                      ",groups=" + std::to_string(kGroups) +
                      ",prefix=" + std::to_string(kPrefixLen) + ")";
    return report;
  };

  std::vector<std::string> rows;
  for (const double load : loads) {
    for (const std::string& policy : serve::policy_names()) {
      serve::Engine::Options options;
      options.policy = policy;
      if (prefill_chunk > 0) {
        options.prefill_chunk = prefill_chunk;
        options.prefill_budget = prefill_chunk > 1 ? prefill_chunk : 0;
      }
      char label[64];
      std::snprintf(label, sizeof(label), "%s @ %.3g", policy.c_str(), load);
      auto report = serve_cell(label, load, std::move(options),
                               serve::Slo{slo_ttft, slo_itl});
      if (!report) return 1;
      if (report->completed != report->requests) {
        std::fprintf(stderr, "  %s: only %lld of %lld completed\n", label,
                     static_cast<long long>(report->completed),
                     static_cast<long long>(report->requests));
        return 1;
      }
      std::fprintf(stderr,
                   "  load %.3g %-12s p99 ttft %.4gs, queue p99 %.4g ticks, "
                   "goodput %.3f, hash %u\n",
                   load, policy.c_str(), report->p99_ttft_seconds,
                   report->queue_delay_p99_ticks, report->goodput_under_slo,
                   report->stream_hash);
      rows.push_back(report->to_json());
    }
  }

  // The committed preemption pair: the overload cell (load 0.32,
  // prefix-aware) re-served under a mid-run pool-exhaustion window
  // (serve::FaultPlan), once with preemption off and once with it on.
  // Off, every decode flight that crosses a page boundary inside the
  // window retires with a typed `oom`; on, the scheduler suspends the
  // crossers, waits out the window and resumes them bit-identically.
  // The pair is scored against a degraded-mode SLO (10x the baseline
  // bounds, recorded in the rows): a resumed request's inter-token gap
  // includes its suspension, so the tight steady-state SLO would score
  // a rescued request and a dead one identically — the degraded bound
  // is exactly the "late beats never" contract preemption exists to
  // honour. Record-time gates keep the pair honest: goodput with
  // preemption must STRICTLY exceed goodput without, and every failed
  // request must carry a typed finish reason.
  if (!quick && prefill_chunk == 0) {
    // Window [40, 70): past the first admissions (so the engine is mid
    // decode, not idle) and wide enough that the synchronized
    // page-boundary crossings of whole batches land inside it.
    const auto plan =
        serve::parse_fault_plan("exhaust@40..70").expect("fault plan");
    double goodput[2] = {0.0, 0.0};
    for (const bool preempt_on : {false, true}) {
      const std::string mode = preempt_on ? "on" : "off";
      serve::Engine::Options options;
      options.policy = "prefix-aware";
      options.faults = plan;
      options.preempt = preempt_on;
      auto report = serve_cell("preempt pair (" + mode + ")",
                               kLoads[std::size(kLoads) - 1],
                               std::move(options),
                               serve::Slo{10.0 * slo_ttft, 10.0 * slo_itl});
      if (!report) return 1;
      report->workload +=
          "+faults(" + plan.describe() + ")+preempt=" + mode;
      goodput[preempt_on ? 1 : 0] = report->goodput_under_slo;
      std::fprintf(stderr,
                   "  pair preempt=%-3s %lld/%lld completed, %lld oom, "
                   "%lld preempted %lld resumed, goodput %.3f, hash %u\n",
                   mode.c_str(), static_cast<long long>(report->completed),
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
               "\"requests\": %d, \"new_tokens\": %d, \"max_batch\": %d, "
               "\"prefix_len\": %d, \"groups\": %d, \"seed\": %llu, "
               "\"slo_ttft_seconds\": %.17g, "
               "\"slo_inter_token_seconds\": %.17g, \"quick\": %s, "
               "\"threads\": %d, \"hardware_concurrency\": %u, "
               "\"wall_seconds\": %.6g},\n\"rows\": [\n",
               model_name.c_str(), eval_tokens, num_requests, new_tokens,
               max_batch, kPrefixLen, kGroups,
               static_cast<unsigned long long>(kSeed), slo_ttft, slo_itl,
               quick ? "true" : "false",
               common::ThreadPool::global().thread_count(),
               std::thread::hardware_concurrency(), wall_seconds);
  for (std::size_t i = 0; i < rows.size(); ++i)
    std::fprintf(out, "%s  %s", i == 0 ? "" : ",\n", rows[i].c_str());
  std::fprintf(out, "\n]\n}\n");
  std::fclose(out);
  std::fprintf(stderr, "wrote %s (%zu rows, %.2fs wall-clock)\n",
               out_path.c_str(), rows.size(), wall_seconds);
  return 0;
}
