// serve::load + serve::trace + the engine's open-loop clock: arrival
// generators must be pure seeded functions (bit-identical at any thread
// count), traces must round-trip byte-exactly and materialise the same
// request vectors as the in-memory workload generators, closed-loop runs
// must stay byte-exact with the pre-open-loop engine, and overload must
// degrade goodput monotonically instead of deadlocking.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "accel/config.hpp"
#include "bbal/session.hpp"
#include "common/threadpool.hpp"
#include "serve/engine.hpp"
#include "serve/load.hpp"
#include "serve/trace.hpp"
#include "serve/workload.hpp"

namespace bbal {
namespace {

/// Small, cheap model shared by the suite (same shape as test_serve's).
std::shared_ptr<const llm::PreparedModel> tiny_model() {
  static const std::shared_ptr<const llm::PreparedModel> prepared = [] {
    llm::ModelConfig cfg;
    cfg.name = "load-test";
    cfg.vocab = 96;
    cfg.d_model = 64;
    cfg.n_layers = 2;
    cfg.n_heads = 2;
    cfg.d_ff = 96;
    cfg.seed = 23;
    return prepare_shared(cfg, /*eval_tokens=*/96);
  }();
  return prepared;
}

serve::Engine make_engine(int max_batch, bool with_accelerator = false,
                          const std::string& policy = "fifo",
                          std::optional<serve::Slo> slo = std::nullopt) {
  serve::Engine::Options options;
  options.max_batch = max_batch;
  options.policy = policy;
  if (with_accelerator) {
    accel::AcceleratorConfig cfg;
    cfg.array_rows = cfg.array_cols = 8;
    options.accelerator = cfg;
  }
  options.slo = slo;
  return serve::Engine::create(tiny_model(), quant::spec_of("BBFP(4,2)"),
                               quant::StrategySpec::fp32(),
                               std::move(options))
      .expect("engine");
}

serve::Report run_all(serve::Engine& engine,
                      const std::vector<serve::Request>& requests) {
  for (const serve::Request& req : requests) engine.submit(req);
  return engine.run();
}

// --- Arrival generators -----------------------------------------------------

TEST(LoadGenerators, DeterministicAcrossSeedsAndThreadCounts) {
  for (const int threads : {1, 4}) {
    common::ThreadPool::set_global_threads(threads);
    const auto uniform = serve::uniform_arrivals(64, 0.25);
    const auto poisson = serve::poisson_arrivals(64, 0.25, /*seed=*/7);
    const auto bursty = serve::bursty_arrivals(64, 0.25, /*seed=*/7);
    // Pure functions of (count, rate, seed): identical on every call and
    // at every thread count.
    EXPECT_EQ(uniform, serve::uniform_arrivals(64, 0.25));
    EXPECT_EQ(poisson, serve::poisson_arrivals(64, 0.25, 7));
    EXPECT_EQ(bursty, serve::bursty_arrivals(64, 0.25, 7));
    // Seeds matter: a different seed moves at least one arrival.
    EXPECT_NE(poisson, serve::poisson_arrivals(64, 0.25, 8));
    EXPECT_NE(bursty, serve::bursty_arrivals(64, 0.25, 8));
  }
  common::ThreadPool::set_global_threads(1);
}

TEST(LoadGenerators, TicksAreNonNegativeAndNonDecreasing) {
  for (const auto& ticks :
       {serve::uniform_arrivals(50, 0.3, /*start_tick=*/5),
        serve::poisson_arrivals(50, 0.3, 11, /*start_tick=*/5),
        serve::bursty_arrivals(50, 0.3, 11)}) {
    ASSERT_EQ(ticks.size(), 50u);
    std::int64_t prev = 0;
    for (const std::int64_t tick : ticks) {
      EXPECT_GE(tick, prev);
      prev = tick;
    }
  }
  EXPECT_EQ(serve::uniform_arrivals(50, 0.3, 5).front(), 5);
  EXPECT_GE(serve::poisson_arrivals(50, 0.3, 11, 5).front(), 5);
}

TEST(LoadGenerators, UniformSpacingMatchesRate) {
  const auto ticks = serve::uniform_arrivals(10, 0.25);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(ticks[i], i * 4);
}

TEST(LoadGenerators, PoissonEmpiricalMeanNearOneOverRate) {
  constexpr double kRate = 0.1;
  constexpr int kCount = 4000;
  const auto ticks = serve::poisson_arrivals(kCount, kRate, /*seed=*/2024);
  // Mean inter-arrival gap over 4000 draws should sit near 1/rate = 10
  // ticks; +-15% leaves room for flooring and sampling noise while still
  // catching a wrong rate parameterisation (mean vs rate swap).
  const double mean_gap =
      static_cast<double>(ticks.back() - ticks.front()) / (kCount - 1);
  EXPECT_NEAR(mean_gap, 1.0 / kRate, 0.15 / kRate);
}

TEST(LoadGenerators, BurstyIsBurstier) {
  // Same nominal rate: the modulated process must show a larger maximum
  // gap (the OFF lulls) than the uniform reference's constant spacing.
  const auto uniform = serve::uniform_arrivals(200, 0.1);
  const auto bursty = serve::bursty_arrivals(200, 0.1, /*seed=*/3);
  std::int64_t max_uniform = 0, max_bursty = 0;
  for (std::size_t i = 1; i < uniform.size(); ++i) {
    max_uniform = std::max(max_uniform, uniform[i] - uniform[i - 1]);
    max_bursty = std::max(max_bursty, bursty[i] - bursty[i - 1]);
  }
  EXPECT_GT(max_bursty, max_uniform);
}

TEST(LoadGenerators, SpecDispatchAndDescription) {
  serve::ArrivalSpec spec;
  spec.kind = serve::ArrivalSpec::Kind::kPoisson;
  spec.rate = 0.1;
  spec.seed = 2024;
  EXPECT_EQ(serve::generate_arrivals(spec, 32),
            serve::poisson_arrivals(32, 0.1, 2024));
  EXPECT_EQ(serve::describe_arrivals(spec), "poisson(rate=0.1,seed=2024)");
  spec.kind = serve::ArrivalSpec::Kind::kUniform;
  EXPECT_EQ(serve::generate_arrivals(spec, 32),
            serve::uniform_arrivals(32, 0.1));
}

TEST(LoadGenerators, StampArrivals) {
  auto requests = serve::synthetic_requests(tiny_model()->config, 4,
                                            /*base_prompt_len=*/6,
                                            /*max_new_tokens=*/4);
  const std::vector<std::int64_t> ticks = {0, 3, 9};
  serve::stamp_arrivals(requests, ticks);
  EXPECT_EQ(requests[0].arrival_tick, 0);
  EXPECT_EQ(requests[1].arrival_tick, 3);
  EXPECT_EQ(requests[2].arrival_tick, 9);
  EXPECT_EQ(requests[3].arrival_tick, 0);  // beyond ticks: stamp unchanged
}

// --- Trace format -----------------------------------------------------------

TEST(Trace, RoundTripIsByteExact) {
  const auto ticks = serve::poisson_arrivals(12, 0.2, /*seed=*/5);
  auto entries = serve::shared_prefix_trace(12, ticks, /*groups=*/3,
                                            /*prefix_len=*/8);
  entries.push_back({/*arrival_tick=*/99, /*prompt_len=*/7,
                     /*max_new_tokens=*/5, /*prefix_group=*/-1,
                     /*prefix_len=*/0});
  const std::string path = testing::TempDir() + "bbal_trace_roundtrip.jsonl";
  ASSERT_TRUE(serve::write_trace(path, entries).is_ok());

  const auto read_back = serve::read_trace(path);
  ASSERT_TRUE(read_back.is_ok()) << read_back.message();
  EXPECT_EQ(read_back.value(), entries);

  // Re-writing what was read reproduces the file byte for byte — the
  // canonical-form half of the replay contract.
  const std::string copy = testing::TempDir() + "bbal_trace_rewrite.jsonl";
  ASSERT_TRUE(serve::write_trace(copy, read_back.value()).is_ok());
  const auto slurp = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  EXPECT_EQ(slurp(path), slurp(copy));
  EXPECT_FALSE(slurp(path).empty());
}

TEST(Trace, ParserAcceptsAnyKeyOrderAndRejectsMalformed) {
  const auto reordered = serve::parse_trace_line(
      R"({"prefix_len": 4, "max_new_tokens": 6, "arrival_tick": 2, )"
      R"("prompt_len": 9, "prefix_group": 1})");
  ASSERT_TRUE(reordered.is_ok()) << reordered.message();
  EXPECT_EQ(reordered.value(),
            (serve::TraceEntry{2, 9, 6, /*prefix_group=*/1,
                               /*prefix_len=*/4}));
  // Unknown integer keys are tolerated (forward compatibility).
  EXPECT_TRUE(serve::parse_trace_line(
                  R"({"arrival_tick": 0, "prompt_len": 3, )"
                  R"("max_new_tokens": 2, "future_field": 7})")
                  .is_ok());
  for (const char* bad : {
           "",                                         // no object
           R"({"arrival_tick": 0, "prompt_len": 3})",  // budget missing
           R"({"arrival_tick": -1, "prompt_len": 3, "max_new_tokens": 2})",
           R"({"arrival_tick": 0, "prompt_len": 0, "max_new_tokens": 2})",
           R"({"arrival_tick": 0, "prompt_len": 3, "max_new_tokens": 2)",
           // Out-of-range integers, which a narrowing cast would wrap.
           R"({"arrival_tick": 0, "prompt_len": 4294967301, )"
           R"("max_new_tokens": 2})",
           R"({"arrival_tick": 0, "prompt_len": 3, )"
           R"("max_new_tokens": 4294967297})",
           R"({"arrival_tick": 0, "prompt_len": 3, "max_new_tokens": 2, )"
           R"("prefix_group": 4294967296, "prefix_len": 1})",
           R"({"arrival_tick": 99999999999999999999, "prompt_len": 3, )"
           R"("max_new_tokens": 2})",
           // Values that are not whole numbers, on known and unknown keys.
           R"({"arrival_tick": 0, "prompt_len": 3.5, "max_new_tokens": 2})",
           R"({"arrival_tick": 0, "prompt_len": 1e3, "max_new_tokens": 2})",
           R"({"arrival_tick": 0, "prompt_len": "3", "max_new_tokens": 2})",
           R"({"arrival_tick": 0, "prompt_len": 3, "max_new_tokens": 2, )"
           R"("future_field": {"a": 1}})",
       })
    EXPECT_FALSE(serve::parse_trace_line(bad).is_ok()) << bad;
  const auto wrapped = serve::parse_trace_line(
      R"({"arrival_tick": 0, "prompt_len": 3, "max_new_tokens": 2, )"
      R"("prefix_group": 4294967296})");
  ASSERT_FALSE(wrapped.is_ok());
  EXPECT_NE(wrapped.message().find("prefix_group"), std::string::npos)
      << wrapped.message();
}

TEST(Trace, ReadErrorsNameTheLine) {
  const std::string path = testing::TempDir() + "bbal_trace_badline.jsonl";
  {
    std::ofstream out(path, std::ios::trunc);
    out << R"({"arrival_tick": 0, "prompt_len": 3, "max_new_tokens": 2})"
        << "\n\nnot json\n";
  }
  const auto result = serve::read_trace(path);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.message().find(":3:"), std::string::npos)
      << result.message();
}

TEST(Trace, MaterializeMatchesSyntheticRequests) {
  const auto& config = tiny_model()->config;
  const std::vector<std::int64_t> zeros(10, 0);
  const auto entries = serve::synthetic_trace(10, zeros,
                                              /*base_prompt_len=*/12,
                                              /*max_new_tokens=*/16);
  const auto from_trace = serve::materialize_trace(config, entries, 2024);
  const auto direct = serve::synthetic_requests(config, 10, 12, 16, 2024);
  ASSERT_EQ(from_trace.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(from_trace[i].prompt, direct[i].prompt) << "request " << i;
    EXPECT_EQ(from_trace[i].max_new_tokens, direct[i].max_new_tokens);
    EXPECT_EQ(from_trace[i].arrival_tick, 0);
  }
}

TEST(Trace, MaterializeMatchesSharedPrefixRequests) {
  const auto& config = tiny_model()->config;
  const std::vector<std::int64_t> zeros(9, 0);
  // One group reproduces shared_prefix_requests exactly: group stream 0
  // is Rng(seed), entry streams are shifted by one.
  const auto entries = serve::shared_prefix_trace(9, zeros, /*groups=*/1,
                                                  /*prefix_len=*/8,
                                                  /*suffix_len=*/4,
                                                  /*max_new_tokens=*/16);
  const auto from_trace = serve::materialize_trace(config, entries, 2024);
  const auto direct =
      serve::shared_prefix_requests(config, 9, 8, 4, 16, 2024);
  ASSERT_EQ(from_trace.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    EXPECT_EQ(from_trace[i].prompt, direct[i].prompt) << "request " << i;
}

TEST(Trace, MultiGroupEntriesSharePrefixWithinGroupOnly) {
  const auto& config = tiny_model()->config;
  const std::vector<std::int64_t> zeros(6, 0);
  const auto entries = serve::shared_prefix_trace(6, zeros, /*groups=*/2,
                                                  /*prefix_len=*/8);
  const auto requests = serve::materialize_trace(config, entries, 2024);
  const auto prefix_of = [&](std::size_t i) {
    return std::vector<int>(requests[i].prompt.begin(),
                            requests[i].prompt.begin() + 8);
  };
  EXPECT_EQ(prefix_of(0), prefix_of(2));  // group 0: entries 0, 2, 4
  EXPECT_EQ(prefix_of(1), prefix_of(3));  // group 1: entries 1, 3, 5
  EXPECT_NE(prefix_of(0), prefix_of(1));
}

// --- Engine open-loop clock -------------------------------------------------

TEST(OpenLoop, ClosedLoopRunsAreArrivalStampInvariant) {
  // The same mix, unstamped (closed loop) vs stamped with Poisson
  // arrivals: arrival times may only change *when* tokens are produced,
  // never *what* — streams and hashes must match, and the closed-loop
  // run must look exactly like the pre-open-loop engine (clock ==
  // steps, zero queueing before t=0).
  const auto requests = serve::shared_prefix_requests(
      tiny_model()->config, 6, /*prefix_len=*/16, /*suffix_len=*/4,
      /*max_new_tokens=*/8);
  for (const std::string& policy : {std::string("fifo"),
                                    std::string("prefix-aware")}) {
    for (const int threads : {1, 4}) {
      common::ThreadPool::set_global_threads(threads);
      auto closed_engine = make_engine(/*max_batch=*/2, false, policy);
      const serve::Report closed = run_all(closed_engine, requests);
      EXPECT_EQ(closed.clock_ticks, closed.engine_steps);

      auto stamped = requests;
      serve::stamp_arrivals(
          stamped, serve::poisson_arrivals(6, /*rate=*/0.05, /*seed=*/9));
      auto open_engine = make_engine(/*max_batch=*/2, false, policy);
      const serve::Report open = run_all(open_engine, stamped);

      EXPECT_EQ(open.stream_hash, closed.stream_hash)
          << policy << " threads=" << threads;
      ASSERT_EQ(open.results.size(), closed.results.size());
      for (std::size_t i = 0; i < closed.results.size(); ++i)
        EXPECT_EQ(open.results[i].generated, closed.results[i].generated);
      EXPECT_GE(open.clock_ticks, open.engine_steps);
    }
  }
  common::ThreadPool::set_global_threads(1);
}

TEST(OpenLoop, EngineWaitsForArrivals) {
  auto requests = serve::synthetic_requests(tiny_model()->config, 3,
                                            /*base_prompt_len=*/6,
                                            /*max_new_tokens=*/4);
  // Far-apart arrivals on an otherwise idle engine: each request is
  // admitted at exactly its arrival tick (the idle clock jumps, so no
  // simulated time is burned spinning), and queue_ticks stays 0.
  serve::stamp_arrivals(requests, std::vector<std::int64_t>{0, 100, 250});
  auto engine = make_engine(/*max_batch=*/2);
  const serve::Report report = run_all(engine, requests);
  ASSERT_EQ(report.completed, 3);
  EXPECT_EQ(report.results[1].admit_tick, 100);
  EXPECT_EQ(report.results[2].admit_tick, 250);
  EXPECT_EQ(report.results[1].queue_ticks, 0);
  EXPECT_GE(report.clock_ticks, 250);
  // Idle jumps cost no steps: the engine stepped far fewer times than
  // the clock advanced.
  EXPECT_LT(report.engine_steps, report.clock_ticks);
}

TEST(OpenLoop, ContentionShowsUpAsQueueTicks) {
  // Everyone arrives at once into one slot: request i waits for its
  // predecessors, so queue_ticks must grow strictly down the queue.
  const auto requests = serve::synthetic_requests(tiny_model()->config, 3,
                                                  /*base_prompt_len=*/6,
                                                  /*max_new_tokens=*/4);
  auto engine = make_engine(/*max_batch=*/1);
  const serve::Report report = run_all(engine, requests);
  ASSERT_EQ(report.completed, 3);
  EXPECT_EQ(report.results[0].queue_ticks, 0);
  EXPECT_GT(report.results[1].queue_ticks, 0);
  EXPECT_GT(report.results[2].queue_ticks, report.results[1].queue_ticks);
  EXPECT_GT(report.queue_delay_mean_ticks, 0.0);
}

TEST(OpenLoop, NegativeArrivalTickIsAnErrorResult) {
  auto requests = serve::synthetic_requests(tiny_model()->config, 2,
                                            /*base_prompt_len=*/6,
                                            /*max_new_tokens=*/4);
  requests[1].arrival_tick = -3;
  auto engine = make_engine(/*max_batch=*/2);
  const serve::Report report = run_all(engine, requests);
  EXPECT_TRUE(report.results[0].ok);
  EXPECT_FALSE(report.results[1].ok);
  EXPECT_NE(report.results[1].error.find("arrival_tick"), std::string::npos);
}

TEST(OpenLoop, SloRequiresAcceleratorAndPositiveThresholds) {
  serve::Engine::Options options;
  options.slo = serve::Slo{0.01, 0.001};
  // No accelerator: nothing prices time, so the SLO is rejected.
  EXPECT_FALSE(serve::Engine::create(tiny_model(), quant::spec_of("FP32"),
                                     quant::StrategySpec::fp32(),
                                     std::move(options))
                   .is_ok());
  serve::Engine::Options bad_threshold;
  accel::AcceleratorConfig cfg;
  cfg.array_rows = cfg.array_cols = 8;
  bad_threshold.accelerator = cfg;
  bad_threshold.slo = serve::Slo{0.0, 0.001};
  EXPECT_FALSE(serve::Engine::create(tiny_model(), quant::spec_of("BBFP(4,2)"),
                                     quant::StrategySpec::fp32(),
                                     std::move(bad_threshold))
                   .is_ok());
}

TEST(OpenLoop, OverloadDegradesGoodputMonotonicallyWithoutDeadlock) {
  const auto& config = tiny_model()->config;
  const auto base = serve::synthetic_requests(config, 12,
                                              /*base_prompt_len=*/6,
                                              /*max_new_tokens=*/6);

  // Calibrate the SLO from an SLO-less run of the *lowest sweep point
  // itself* so that point meets it with 50% headroom by construction:
  // the thresholds are simulated-clock quantities, deterministic per
  // model/accelerator pair.
  auto probe_engine = make_engine(/*max_batch=*/2, /*with_accelerator=*/true);
  auto probe_mix = base;
  serve::stamp_arrivals(probe_mix,
                        serve::poisson_arrivals(12, /*rate=*/0.01,
                                                /*seed=*/4));
  const serve::Report probe = run_all(probe_engine, probe_mix);
  ASSERT_EQ(probe.completed, 12);
  double worst_ttft = 0.0, worst_gap = 0.0;
  for (const serve::RequestResult& r : probe.results) {
    worst_ttft = std::max(worst_ttft, r.ttft_seconds);
    worst_gap = std::max(worst_gap, r.max_inter_token_seconds);
  }
  const serve::Slo slo{worst_ttft * 1.5, worst_gap * 1.5};

  double prev_goodput = 2.0;
  double prev_queue = -1.0;
  double prev_offered = 0.0;
  double low_p99_ttft = 0.0;
  for (const double rate : {0.01, 0.2, 2.0}) {
    auto mix = base;
    serve::stamp_arrivals(mix,
                          serve::poisson_arrivals(12, rate, /*seed=*/4));
    auto engine =
        make_engine(/*max_batch=*/2, /*with_accelerator=*/true, "fifo", slo);
    const serve::Report report = run_all(engine, mix);
    ASSERT_EQ(report.completed, 12) << "rate " << rate;  // no deadlock
    EXPECT_TRUE(report.has_slo);
    EXPECT_LE(report.goodput_under_slo, prev_goodput) << "rate " << rate;
    EXPECT_GE(report.queue_delay_mean_ticks, prev_queue) << "rate " << rate;
    EXPECT_GE(report.offered_tokens_per_tick, prev_offered) << "rate " << rate;
    // Idle ticks are skipped, never double-counted, and arrival times move
    // when tokens are produced, never what is produced.
    EXPECT_GE(report.clock_ticks, report.engine_steps) << "rate " << rate;
    EXPECT_EQ(report.stream_hash, probe.stream_hash) << "rate " << rate;
    prev_goodput = report.goodput_under_slo;
    prev_queue = report.queue_delay_mean_ticks;
    prev_offered = report.offered_tokens_per_tick;
    if (rate == 0.01) {
      EXPECT_EQ(report.goodput_under_slo, 1.0);
      low_p99_ttft = report.p99_ttft_seconds;
    }
    if (rate == 2.0) {
      EXPECT_LT(report.goodput_under_slo, 1.0);
      // The knee: queueing delay past capacity lands in TTFT.
      EXPECT_GE(report.p99_ttft_seconds, 2.0 * low_p99_ttft);
    }
  }
}

TEST(OpenLoop, ReportEmitsOpenLoopAndSloFields) {
  auto requests = serve::synthetic_requests(tiny_model()->config, 4,
                                            /*base_prompt_len=*/6,
                                            /*max_new_tokens=*/4);
  serve::stamp_arrivals(requests, serve::poisson_arrivals(4, 0.5, 2));
  auto engine = make_engine(/*max_batch=*/2, /*with_accelerator=*/true,
                            "fifo", serve::Slo{10.0, 10.0});
  serve::Report report = run_all(engine, requests);
  report.workload = "poisson(rate=0.5,seed=2)";
  const std::string json = report.to_json();
  for (const char* field :
       {"\"workload\"", "\"clock_ticks\"", "\"queue_delay_mean_ticks\"",
        "\"queue_delay_p99_ticks\"", "\"offered_tokens_per_tick\"",
        "\"throughput_tokens_per_tick\"", "\"p99_ttft_seconds\"",
        "\"p99_inter_token_seconds\"", "\"slo_ttft_seconds\"",
        "\"slo_met\"", "\"goodput_under_slo\""})
    EXPECT_NE(json.find(field), std::string::npos) << field;
  // A 10-second SLO on a microsecond-scale model: everyone meets it.
  EXPECT_EQ(report.goodput_under_slo, 1.0);
  EXPECT_EQ(report.slo_met, report.requests);
}

}  // namespace
}  // namespace bbal
