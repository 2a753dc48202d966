// perfbench — host-clock benchmark of the BBAL simulator.
//
// Usage: perfbench --workload decode_long|prefill_shared|table2_sweep
//                  [--seed N] [--seconds S] [--trace 0|1] [--tiny]
//
// Run it from the root of a checkout: table2_sweep diffs its rows against
// ./BENCH_table2.json.
//
// One run: set up the workload three times at one thread (setup_s is the
// median), then repeat the workload for --seconds, alternating one-thread
// and T-thread repetitions (T is min(2, hardware threads)), then
// check the outputs against an independent reference. --trace 1 adds
// decorated one-thread repetitions to the rotation and reports per-layer
// metrics instead of the end-to-end ones. A human-readable summary goes to
// stderr; the last line of stdout is the JSON result
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// perfbench/GLOSSARY.md defines every metric.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/threadpool.hpp"
#include "counting_new.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 2024;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// One timed repetition.
struct Rep {
  double seconds = 0.0;
  std::int64_t tokens = 0;
  std::uint64_t allocations = 0;
  [[nodiscard]] double tokens_per_s() const {
    return static_cast<double>(tokens) / seconds;
  }
};

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Throughput of the fastest repetition. The rest of a shared host only
/// ever slows a repetition down, and it does so for seconds to minutes at a
/// time, so the fastest repetition of a run is the steadiest estimate of
/// the program's own speed: between sets of runs of the same code it moved
/// by under 8% where the median moved by up to 16%.
double best_tokens_per_s(const std::vector<Rep>& reps) {
  double best = 0.0;
  for (const Rep& r : reps) best = std::max(best, r.tokens_per_s());
  return best;
}

/// One line on how steady a set of repetitions was.
void print_reps(const char* label, const std::vector<Rep>& reps) {
  std::vector<double> xs;
  for (const Rep& r : reps) xs.push_back(r.tokens_per_s());
  std::sort(xs.begin(), xs.end());
  std::fprintf(stderr,
               "  %-9s %3zu reps, tokens/s min %.1f median %.1f max %.1f\n",
               label, xs.size(), xs.front(), median(xs), xs.back());
}

double median_seconds(const std::vector<Rep>& reps) {
  std::vector<double> xs;
  for (const Rep& r : reps) xs.push_back(r.seconds);
  return median(xs);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int usage_error(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "decode_long|prefill_shared|table2_sweep [--seed N] "
               "[--seconds S] [--trace 0|1] [--tiny]\n",
               message);
  return 2;
}

/// Parse the whole of `text` as a number; false on junk or overflow.
template <typename T>
bool parse_number(const char* text, T& out) {
  char* end = nullptr;
  errno = 0;
  if constexpr (std::is_floating_point_v<T>)
    out = std::strtod(text, &end);
  else
    out = static_cast<T>(std::strtoull(text, &end, 10));
  return *text != '\0' && *end == '\0' && errno == 0;
}

bool parse_args(int argc, char** argv, Args& args, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      error = arg + " needs a value";
      return false;
    }
    const std::string value = argv[++i];
    bool ok = true;
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      ok = parse_number(value.c_str(), args.seed);
    } else if (arg == "--seconds") {
      ok = parse_number(value.c_str(), args.seconds) && args.seconds > 0.0;
    } else if (arg == "--trace") {
      ok = value == "0" || value == "1";
      args.trace = value == "1";
    } else {
      error = "unknown option " + arg;
      return false;
    }
    if (!ok) {
      error = "bad value \"" + value + "\" for " + arg;
      return false;
    }
  }
  if (args.workload.empty()) {
    error = "--workload is required";
    return false;
  }
  return true;
}

void print_json(bool correct, std::int64_t attempted, std::int64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

/// FNV-1a over a run's output fingerprint, for the self-test's
/// seed-sensitivity check.
std::uint64_t digest(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double per_mac_ns(const GemmBucket& b) {
  return b.macs > 0 ? b.seconds * 1e9 / static_cast<double>(b.macs) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parse_args(argc, argv, args, error)) return usage_error(error.c_str());
  std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed, args.tiny, "BENCH_table2.json");
  if (!workload) return usage_error("unknown workload");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  // Two threads, not every core: on a small shared host a pool as wide as
  // the machine stalls whenever any one of its cores is taken away, so its
  // throughput measures the host's scheduler more than the program.
  const int mt_threads = static_cast<int>(std::min(2u, hw));
  const int setups = args.tiny ? 1 : 3;
  const std::size_t min_reps = args.tiny ? 1 : 3;
  using bbal::common::ThreadPool;

  // Every backend the run builds goes through the decorated factories; they
  // hand out plain backends until decorating is switched on.
  if (args.trace) install_tracing_factories();

  // --- Set-up: the median of several, at one thread. ----------------------
  ThreadPool::set_global_threads(1);
  std::vector<double> setup_s, prepare_s;
  for (int i = 0; i < setups; ++i) {
    const auto start = Clock::now();
    workload->setup();
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    prepare_s.push_back(workload->last_prepare_seconds());
  }
  double prepare_weights_setup_s = 0.0;
  if (args.trace) {
    set_decorating(true);
    workload->setup_traced();
    set_decorating(false);
    prepare_weights_setup_s = trace_record().prepare_weights_s;
    trace_record() = TraceRecord{};
  }

  // --- Timed phase: rotate 1-thread, T-thread (and traced) repetitions. ---
  std::vector<Rep> single, multi, traced;
  std::int64_t attempted = 0, failed = 0;
  std::string fingerprint;
  bool fingerprints_agree = true;
  int pool_threads = 1;
  const auto rep = [&](int threads, bool decorated) {
    if (threads != pool_threads) ThreadPool::set_global_threads(threads);
    pool_threads = threads;
    set_decorating(decorated);
    set_record_ticks(decorated && traced.empty());
    const std::uint64_t allocs = heap_allocations();
    const auto start = Clock::now();
    RepOutcome out = workload->run(decorated);
    Rep r;
    r.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    r.allocations = heap_allocations() - allocs;
    r.tokens = out.tokens;
    set_decorating(false);
    attempted += out.attempted;
    failed += out.failed;
    if (fingerprint.empty()) fingerprint = out.fingerprint;
    if (out.fingerprint != fingerprint) {
      fingerprints_agree = false;
      failed += out.attempted - out.failed;
    }
    return r;
  };
  const auto phase_start = Clock::now();
  for (;;) {
    single.push_back(rep(1, false));
    multi.push_back(rep(mt_threads, false));
    if (args.trace) traced.push_back(rep(1, true));
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - phase_start).count();
    if (elapsed >= args.seconds && single.size() >= min_reps) break;
  }

  // --- Output check, outside the timed phase. -----------------------------
  ThreadPool::set_global_threads(mt_threads);
  const Verdict verdict = workload->verify();
  attempted += verdict.attempted;
  failed += verdict.failed;
  for (const std::string& problem : verdict.problems)
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                 problem.c_str());
  if (!fingerprints_agree)
    std::fprintf(stderr,
                 "perfbench: %s: repetitions (1-thread, %d-thread%s) "
                 "disagree on their outputs\n",
                 args.workload.c_str(), mt_threads,
                 args.trace ? ", traced" : "");
  const bool correct = failed == 0 && fingerprints_agree;
  std::fprintf(stderr, "perfbench: output digest %016llx\n",
               static_cast<unsigned long long>(digest(fingerprint)));

  const double tps = best_tokens_per_s(single);
  const double tps_mt = best_tokens_per_s(multi);
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu+%zu reps, %lld tokens/rep, "
               "setup %.3fs, %.1f tok/s at 1 thread, %.1f tok/s at %d, "
               "error_rate %.3g (%lld/%lld), peak rss %.1f MB\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               single.size(), multi.size(),
               static_cast<long long>(single.front().tokens), median(setup_s),
               tps, tps_mt, mt_threads,
               attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
               static_cast<long long>(failed), static_cast<long long>(attempted),
               peak_rss_mb());
  print_reps("1-thread", single);
  print_reps(args.trace ? "traced" : "T-thread", args.trace ? traced : multi);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", "s", median(setup_s)},
        {"tokens_per_s", "tokens/s", tps},
        {"tokens_per_s_mt", "tokens/s", tps_mt},
        {"peak_rss_mb", "MB", peak_rss_mb()},
    };
    print_json(correct, attempted, failed, metrics);
    return 0;
  }

  // --- Per-layer metrics from the traced repetitions. ---------------------
  const TraceRecord& rec = trace_record();
  const double n = static_cast<double>(traced.size());
  const bbal::llm::ModelConfig& cfg = workload->config();
  const bbal::serve::Report* report = workload->last_report();
  double traced_total_s = 0.0;
  for (const Rep& r : traced) traced_total_s += r.seconds;
  // Host time of one traced repetition outside every decorated call.
  const double run_s =
      std::max(0.0, (traced_total_s - rec.decorated_seconds()) / n);
  double weight_gemm_s = 0.0;
  std::int64_t gemm_calls = 0, gemm_rows = 0;
  for (const GemmBucket& b : rec.gemm) {
    weight_gemm_s += b.seconds;
    gemm_calls += b.calls;
    gemm_rows += b.rows;
  }
  const std::string kv = workload->kv_format();
  const KvCodecCost kv_cost =
      kv.empty() ? KvCodecCost{} : replay_kv_codec(kv, cfg.d_model, args.seed);
  const double price_us =
      report != nullptr
          ? replay_price_us_per_tick(rec, cfg, workload->accelerator())
          // The sweep prices one 256-token teacher-forced pass per item.
          : replay_price_us_per_item(cfg, workload->accelerator(), 256);
  const SimCycles sim =
      report != nullptr ? simulated_cycles(rec, static_cast<int>(traced.size()),
                                           *report, cfg,
                                           workload->accelerator())
                        : SimCycles{};
  const double ticks =
      report != nullptr ? static_cast<double>(report->engine_steps) : 0.0;
  // Rows forwarded per repetition: every row appends one K and one V row
  // per layer.
  const double rows =
      report != nullptr
          ? static_cast<double>(rec.kv_rows) / (2.0 * cfg.n_layers) / n
          : 0.0;
  const double nl_s = rec.softmax_s + rec.silu_s;
  metrics = {
      {"trace.overhead", "ratio",
       median_seconds(traced) / median_seconds(single)},
      {"bbal.prepare_s", "s", median(prepare_s)},
      {"llm.prepare_weights_s", "s",
       prepare_weights_setup_s + rec.prepare_weights_s / n},
      {"llm.gemm_s", "s", weight_gemm_s / n},
      {"llm.gemm.qkv_s", "s", rec.gemm[0].seconds / n},
      {"llm.gemm.wo_s", "s", rec.gemm[1].seconds / n},
      {"llm.gemm.ffn_s", "s", rec.gemm[2].seconds / n},
      {"llm.gemm.lm_head_s", "s", rec.gemm[3].seconds / n},
      {"llm.gemm_calls", "count", static_cast<double>(gemm_calls) / n},
      {"llm.gemm_rows_mean", "rows",
       gemm_calls > 0 ? static_cast<double>(gemm_rows) / gemm_calls : 0.0},
      {"llm.gemm_small_m_s", "s", rec.small_m.seconds / n},
      {"llm.gemm_small_m_ns_per_mac", "ns", per_mac_ns(rec.small_m)},
      {"llm.gemm_large_m_s", "s", rec.large_m.seconds / n},
      {"llm.gemm_large_m_ns_per_mac", "ns", per_mac_ns(rec.large_m)},
      {"llm.gemm_dynamic_s", "s", rec.dynamic.seconds / n},
      {"nl.softmax_s", "s", rec.softmax_s / n},
      {"nl.silu_s", "s", rec.silu_s / n},
      {"nl.ns_per_elem", "ns",
       rec.nl_elements > 0 ? nl_s * 1e9 / static_cast<double>(rec.nl_elements)
                           : 0.0},
      {"quant.act_quantise_ns_per_elem", "ns",
       replay_act_quantise_ns_per_elem(rec, args.seed)},
      {"quant.kv_encode_ns_per_row", "ns", kv_cost.encode_ns_per_row},
      {"quant.kv_decode_ns_per_row", "ns", kv_cost.decode_ns_per_row},
      {"quant.kv_rows_encoded", "count",
       report != nullptr ? static_cast<double>(rec.kv_rows) / n : 0.0},
      {"host.allocs_per_token", "count",
       static_cast<double>(single.back().allocations) /
           static_cast<double>(single.back().tokens)},
      {"accel.price_us_per_tick", "us", price_us},
      {"serve.residual_s", "s", run_s},
      {"serve.residual_us_per_tick", "us",
       ticks > 0.0 ? run_s * 1e6 / ticks : 0.0},
      {"serve.ticks", "count", ticks},
      {"serve.rows_per_tick", "rows", ticks > 0.0 ? rows / ticks : 0.0},
      {"serve.mixed_ticks", "count",
       report != nullptr ? static_cast<double>(report->mixed_ticks) : 0.0},
      {"serve.prefix_hit_rate", "ratio",
       report != nullptr ? report->prefix_hit_rate : 0.0},
      {"serve.kv_pages_allocated", "count",
       report != nullptr ? static_cast<double>(report->kv_pages_allocated)
                         : 0.0},
      {"serve.kv_bytes_peak", "bytes",
       report != nullptr ? static_cast<double>(report->kv_bytes_peak) : 0.0},
      {"serve.queue_delay_mean_ticks", "ticks",
       report != nullptr ? report->queue_delay_mean_ticks : 0.0},
      {"common.scaling_eff", "ratio", tps_mt / (mt_threads * tps)},
      {"sim.cycles_proj", "cycles", sim.proj},
      {"sim.cycles_attn", "cycles", sim.attn},
      {"sim.nl_cycles_unpriced", "cycles", sim.nl_unpriced},
  };

  // The both-clocks table: host time per op beside its simulated cycles.
  const auto share = [&](double s) { return 100.0 * s / traced_total_s; };
  std::fprintf(stderr,
               "\n  %-26s %12s %7s %16s\n", "op (one traced rep)", "host ms",
               "host %", "simulated cycles");
  const auto line = [&](const char* op, double host_s, double cycles,
                        const char* note) {
    std::fprintf(stderr, "  %-26s %12.3f %6.1f%% %16.0f %s\n", op,
                 host_s / n * 1e3, share(host_s), cycles, note);
  };
  line("projection GEMMs", weight_gemm_s, sim.proj, "");
  line("attention GEMMs (dynamic)", rec.dynamic.seconds, sim.attn,
       report != nullptr ? "(host: inside the residual)" : "");
  line("softmax + SiLU", nl_s, sim.nl_unpriced, "(unpriced by the engine)");
  line("residual", run_s * n, 0.0, "(attention, norms, KV, pool, pricing)");
  std::fprintf(stderr, "\n");

  print_json(correct, attempted, failed, metrics);
  return 0;
}
