// serve::FaultPlan + engine robustness: the fault-plan grammar round-trips
// and seeded expansion is deterministic; a decode flight preempted and
// resumed mid-stream produces the identical FNV-1a stream hash as the same
// request run without preemption (across fifo/sjf/prefix-aware at 1 and 4
// threads — the PR's bit-identity acceptance criterion); deadlines,
// cancellations and exhaustion windows retire requests with typed reasons
// and partial output that is a prefix of the unfaulted stream; and the
// fault block stays out of Report JSON on default runs so committed BENCH
// rows remain byte-exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

// Same GCC-12 -O2 false positive as test_serve.cpp: moving Engine::Options
// with a disengaged accelerator optional trips -Wmaybe-uninitialized
// through the inlined test bodies.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include "common/threadpool.hpp"
#include "serve/engine.hpp"
#include "serve/faults.hpp"
#include "serve/load.hpp"
#include "serve/policy.hpp"
#include "serve/workload.hpp"

namespace bbal {
namespace {

std::shared_ptr<const llm::PreparedModel> tiny_model() {
  static const std::shared_ptr<const llm::PreparedModel> prepared = [] {
    llm::ModelConfig cfg;
    cfg.name = "faults-test";
    cfg.vocab = 96;
    cfg.d_model = 64;
    cfg.n_layers = 2;
    cfg.n_heads = 2;
    cfg.d_ff = 96;
    cfg.seed = 29;
    return prepare_shared(cfg, /*eval_tokens=*/96);
  }();
  return prepared;
}

serve::Engine make_engine(serve::Engine::Options options) {
  return serve::Engine::create(tiny_model(), quant::spec_of("BBFP(4,2)"),
                               quant::StrategySpec::fp32(),
                               std::move(options))
      .expect("engine");
}

serve::Report run_requests(const std::vector<serve::Request>& requests,
                           serve::Engine::Options options) {
  serve::Engine engine = make_engine(std::move(options));
  for (const serve::Request& req : requests) engine.submit(req);
  return engine.run();
}

/// True when `partial` is a (possibly complete) prefix of `full`.
bool is_prefix(const std::vector<int>& partial, const std::vector<int>& full) {
  if (partial.size() > full.size()) return false;
  return std::equal(partial.begin(), partial.end(), full.begin());
}

TEST(FaultPlan, ParseDescribeRoundTripsAndRejectsBadEvents) {
  const auto plan = serve::parse_fault_plan(
      " exhaust@8..16; flaky@4#1 ;cancel@12#3;spike@2+6 ");
  ASSERT_TRUE(plan.is_ok()) << plan.message();
  EXPECT_EQ(plan.value().describe(),
            "exhaust@8..16;flaky@4#1;cancel@12#3;spike@2+6");
  const auto again = serve::parse_fault_plan(plan.value().describe());
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value().describe(), plan.value().describe());

  EXPECT_TRUE(plan.value().exhausted_at(8));
  EXPECT_TRUE(plan.value().exhausted_at(15));
  EXPECT_FALSE(plan.value().exhausted_at(16));  // [begin, end)
  EXPECT_TRUE(plan.value().reserve_fails(4, 1));
  EXPECT_FALSE(plan.value().reserve_fails(4, 2));

  EXPECT_TRUE(serve::parse_fault_plan("").is_ok());
  EXPECT_TRUE(serve::parse_fault_plan("").value().empty());
  for (const char* bad :
       {"explode@3", "exhaust@9", "exhaust@9..x", "flaky@4", "cancel@#2",
        "spike@2", "exhaust@16..8", "flaky@-2#0"}) {
    EXPECT_FALSE(serve::parse_fault_plan(bad).is_ok()) << bad;
  }
}

TEST(FaultPlan, SeededExpansionIsAPureFunctionOfItsArguments) {
  const serve::FaultPlan a = serve::seeded_fault_plan(7, 64);
  const serve::FaultPlan b = serve::seeded_fault_plan(7, 64);
  EXPECT_EQ(a.describe(), b.describe());
  EXPECT_FALSE(a.empty());
  EXPECT_NE(a.describe(), serve::seeded_fault_plan(8, 64).describe());
  for (const auto& w : a.exhaustion) {
    EXPECT_GE(w.begin_tick, 0);
    EXPECT_LE(w.end_tick, 64);
    EXPECT_LT(w.begin_tick, w.end_tick);
  }
  // seed@S+H splices the same expansion through the grammar.
  const auto parsed = serve::parse_fault_plan("seed@7+64");
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  EXPECT_EQ(parsed.value().describe(), a.describe());
}

TEST(ServeFaults, PreemptedAndResumedStreamsHashIdentically) {
  // The acceptance criterion: transient reserve faults suspend decoding
  // flights (private KV pages released) which later resume by
  // re-prefilling prompt + generated — and every token stream, and the
  // FNV-1a hash over all of them, must equal the unfaulted sibling's,
  // under every scheduling policy at 1 and 4 threads. Faults are spread
  // over the early ticks and several submit indices so at least one lands
  // on an active flight regardless of admission order.
  const std::vector<serve::Request> requests = serve::synthetic_requests(
      tiny_model()->config, /*count=*/6, /*base_prompt_len=*/6,
      /*max_new_tokens=*/8);
  const auto plan = serve::parse_fault_plan(
                        "flaky@5#0;flaky@6#1;flaky@7#2;flaky@9#3;flaky@11#0")
                        .expect("plan");

  for (const std::string& policy : serve::policy_names()) {
    for (const int threads : {1, 4}) {
      common::ThreadPool::set_global_threads(threads);
      serve::Engine::Options clean_options;
      clean_options.max_batch = 3;
      clean_options.policy = policy;
      const serve::Report clean = run_requests(requests, clean_options);

      serve::Engine::Options faulted_options;
      faulted_options.max_batch = 3;
      faulted_options.policy = policy;
      faulted_options.faults = plan;
      const serve::Report faulted = run_requests(requests, faulted_options);
      common::ThreadPool::set_global_threads(
          common::ThreadPool::env_threads());

      ASSERT_EQ(clean.completed,
                static_cast<std::int64_t>(requests.size()))
          << policy << " @ " << threads;
      ASSERT_EQ(faulted.completed, clean.completed)
          << policy << " @ " << threads;
      // The run really preempted and really resumed...
      EXPECT_GT(faulted.preemptions, 0) << policy << " @ " << threads;
      EXPECT_EQ(faulted.resumes, faulted.preemptions)
          << policy << " @ " << threads;
      EXPECT_GT(faulted.requeue_delay_mean_ticks, 0.0)
          << policy << " @ " << threads;
      EXPECT_GT(faulted.preempt_recompute_tokens, 0)
          << policy << " @ " << threads;
      // ...and changed not a single token of a single stream.
      EXPECT_EQ(faulted.stream_hash, clean.stream_hash)
          << policy << " @ " << threads;
      for (std::size_t i = 0; i < requests.size(); ++i) {
        EXPECT_TRUE(faulted.results[i].ok) << faulted.results[i].error;
        EXPECT_EQ(faulted.results[i].generated, clean.results[i].generated)
            << policy << " @ " << threads << " request " << i;
      }
    }
  }
}

TEST(ServeFaults, ExhaustionWindowTypesOomWithoutPreemptionAndResumesWithIt) {
  // A long frozen window over the decode phase. Prompts of 14 tokens on
  // 16-token pages: the page-boundary crossing at position 16 lands inside
  // the window, so without preemption the flights retire with a typed oom
  // and their partial output; with preemption on, they suspend, outwait
  // the window and complete bit-identically to the unfaulted run.
  std::vector<serve::Request> requests;
  for (int r = 0; r < 2; ++r) {
    serve::Request req;
    for (int t = 0; t < 14; ++t) req.prompt.push_back((3 * r + t) % 96);
    req.max_new_tokens = 8;
    requests.push_back(std::move(req));
  }
  const auto plan =
      serve::parse_fault_plan("exhaust@2..60").expect("plan");

  serve::Engine::Options clean_options;
  clean_options.max_batch = 2;
  const serve::Report clean = run_requests(requests, clean_options);
  ASSERT_EQ(clean.completed, 2);

  serve::Engine::Options hard_options;
  hard_options.max_batch = 2;
  hard_options.faults = plan;
  const serve::Report hard = run_requests(requests, hard_options);
  EXPECT_EQ(hard.completed, 0);
  EXPECT_EQ(hard.oom_failures, 2);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const serve::RequestResult& r = hard.results[i];
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.reason, serve::FinishReason::kOom) << r.error;
    EXPECT_NE(r.error.find("oom"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("frozen"), std::string::npos) << r.error;
    EXPECT_GT(r.generated.size(), 0u);  // partial output survives
    EXPECT_TRUE(is_prefix(r.generated, clean.results[i].generated));
  }

  serve::Engine::Options soft_options;
  soft_options.max_batch = 2;
  soft_options.faults = plan;
  soft_options.preempt = true;
  const serve::Report soft = run_requests(requests, soft_options);
  EXPECT_EQ(soft.completed, 2);
  EXPECT_EQ(soft.oom_failures, 0);
  EXPECT_GT(soft.preemptions, 0);
  EXPECT_EQ(soft.stream_hash, clean.stream_hash);
  for (std::size_t i = 0; i < requests.size(); ++i)
    EXPECT_EQ(soft.results[i].generated, clean.results[i].generated)
        << "request " << i;
}

TEST(ServeFaults, RetiredRequestsReportWhatTheyDid) {
  // Every retirement goes through one path, so a flight retired for oom
  // reports the steps, TTFT and latency it accrued — as a timed-out one
  // does — instead of zeros.
  std::vector<serve::Request> requests;
  for (int r = 0; r < 2; ++r) {
    serve::Request req;
    for (int t = 0; t < 14; ++t) req.prompt.push_back((3 * r + t) % 96);
    req.max_new_tokens = 8;
    requests.push_back(std::move(req));
  }
  serve::Engine::Options options;
  options.max_batch = 2;
  options.accelerator = accel::AcceleratorConfig{};
  options.faults = serve::parse_fault_plan("exhaust@2..60").expect("plan");
  const serve::Report report = run_requests(requests, options);
  EXPECT_EQ(report.oom_failures, 2);
  for (const serve::RequestResult& r : report.results) {
    ASSERT_EQ(r.reason, serve::FinishReason::kOom) << r.error;
    EXPECT_GT(r.steps, 0);
    EXPECT_GT(r.ttft_seconds, 0.0);
    EXPECT_GT(r.total_seconds, 0.0);
    EXPECT_GE(r.total_seconds, r.ttft_seconds);
  }
}

TEST(ServeFaults, DeadlineRetiresWithTimeoutAndPartialOutput) {
  serve::Request slow;
  for (int t = 0; t < 4; ++t) slow.prompt.push_back(t + 1);
  slow.max_new_tokens = 12;
  serve::Request sibling = slow;
  slow.deadline_tick = 9;  // mid-decode: ~5 tokens of the 12 exist by then

  serve::Engine::Options clean_options;
  clean_options.max_batch = 1;
  const serve::Report clean = run_requests({sibling}, clean_options);
  ASSERT_EQ(clean.completed, 1);

  serve::Engine::Options options;
  options.max_batch = 1;
  const serve::Report report = run_requests({slow}, options);
  EXPECT_EQ(report.completed, 0);
  EXPECT_EQ(report.timeouts, 1);
  EXPECT_TRUE(report.has_faults);  // a deadline alone arms the fault block
  const serve::RequestResult& r = report.results[0];
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, serve::FinishReason::kTimeout);
  EXPECT_NE(r.error.find("timeout"), std::string::npos) << r.error;
  EXPECT_GT(r.generated.size(), 0u);
  EXPECT_LT(r.generated.size(), 12u);
  EXPECT_TRUE(is_prefix(r.generated, clean.results[0].generated));

  // A deadline that expires while the request is still queued returns
  // empty output — typed, not an untyped error.
  serve::Request queued = sibling;
  queued.deadline_tick = 3;
  serve::Engine::Options narrow;
  narrow.max_batch = 1;
  const serve::Report starved = run_requests({sibling, queued}, narrow);
  EXPECT_EQ(starved.completed, 1);
  EXPECT_EQ(starved.timeouts, 1);
  EXPECT_EQ(starved.results[1].reason, serve::FinishReason::kTimeout);
  EXPECT_EQ(starved.results[1].generated.size(), 0u);
  EXPECT_NE(starved.results[1].error.find("queued"), std::string::npos)
      << starved.results[1].error;

  // Invalid deadlines are caught at validation, named per field.
  serve::Request backwards = sibling;
  backwards.arrival_tick = 8;
  backwards.deadline_tick = 8;
  const serve::Report rejected = run_requests({backwards}, clean_options);
  EXPECT_EQ(rejected.results[0].reason, serve::FinishReason::kInvalid);
  EXPECT_NE(rejected.results[0].error.find("deadline_tick"),
            std::string::npos)
      << rejected.results[0].error;
}

TEST(ServeFaults, CancellationKeepsPartialOutputAndSparesNeighbours) {
  const std::vector<serve::Request> requests = serve::synthetic_requests(
      tiny_model()->config, /*count=*/3, /*base_prompt_len=*/5,
      /*max_new_tokens=*/8);
  serve::Engine::Options clean_options;
  clean_options.max_batch = 3;
  const serve::Report clean = run_requests(requests, clean_options);
  ASSERT_EQ(clean.completed, 3);

  serve::Engine::Options options;
  options.max_batch = 3;
  options.faults = serve::parse_fault_plan("cancel@8#1").expect("plan");
  const serve::Report report = run_requests(requests, options);
  EXPECT_EQ(report.completed, 2);
  EXPECT_EQ(report.cancellations, 1);
  const serve::RequestResult& cancelled = report.results[1];
  EXPECT_FALSE(cancelled.ok);
  EXPECT_EQ(cancelled.reason, serve::FinishReason::kCancelled);
  EXPECT_NE(cancelled.error.find("cancelled"), std::string::npos)
      << cancelled.error;
  EXPECT_TRUE(is_prefix(cancelled.generated, clean.results[1].generated));
  EXPECT_LT(cancelled.generated.size(), clean.results[1].generated.size());
  // The neighbours never notice.
  EXPECT_EQ(report.results[0].generated, clean.results[0].generated);
  EXPECT_EQ(report.results[2].generated, clean.results[2].generated);
}

TEST(ServeFaults, ArrivalSpikePullsTheWindowForwardDeterministically) {
  // Open-loop arrivals with a spike event: every arrival in the window
  // collapses onto the spike tick. Streams are a pure function of the
  // prompts, so the hash must match the unspiked run even though the
  // queueing metrics shift.
  std::vector<serve::Request> requests = serve::synthetic_requests(
      tiny_model()->config, /*count=*/6, /*base_prompt_len=*/5,
      /*max_new_tokens=*/6);
  serve::ArrivalSpec arrival;
  arrival.kind = serve::ArrivalSpec::Kind::kPoisson;
  arrival.rate = 0.05;
  arrival.seed = 11;
  serve::stamp_arrivals(requests, serve::generate_arrivals(arrival, 6));

  serve::Engine::Options clean_options;
  clean_options.max_batch = 2;
  const serve::Report clean = run_requests(requests, clean_options);
  ASSERT_EQ(clean.completed, 6);

  serve::Engine::Options options;
  options.max_batch = 2;
  options.faults = serve::parse_fault_plan("spike@1+200").expect("plan");
  const serve::Report spiked = run_requests(requests, options);
  EXPECT_EQ(spiked.completed, 6);
  EXPECT_EQ(spiked.stream_hash, clean.stream_hash);
  // The flash crowd really happened: the spiked run finishes earlier on
  // the open-loop clock because nobody straggles in late.
  EXPECT_LT(spiked.clock_ticks, clean.clock_ticks);
}

TEST(ServeFaults, ReportEmitsFaultBlockOnlyWhenFaultsAreConfigured) {
  const std::vector<serve::Request> requests = serve::synthetic_requests(
      tiny_model()->config, /*count=*/2, /*base_prompt_len=*/4,
      /*max_new_tokens=*/4);

  serve::Engine::Options plain;
  plain.max_batch = 2;
  const std::string plain_json = run_requests(requests, plain).to_json();
  EXPECT_EQ(plain_json.find("fault_plan"), std::string::npos)
      << "default rows must stay byte-exact: " << plain_json;
  EXPECT_EQ(plain_json.find("\"preemptions\""), std::string::npos)
      << plain_json;

  serve::Engine::Options faulted;
  faulted.max_batch = 2;
  faulted.faults = serve::parse_fault_plan("flaky@4#0").expect("plan");
  faulted.preempt = true;
  const std::string json = run_requests(requests, faulted).to_json();
  EXPECT_NE(json.find("\"fault_plan\": \"flaky@4#0\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"preempt\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"preemptions\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"requeue_delay_mean_ticks\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"timeouts\""), std::string::npos) << json;
}

TEST(ServeFaults, MaxPreemptionsBoundsRequeueingWithATypedReason) {
  // A flaky fault hammering one request past its preemption budget must
  // end in preempted_unrecoverable — typed, partial output intact — never
  // an infinite requeue loop or an untyped error.
  serve::Request req;
  for (int t = 0; t < 4; ++t) req.prompt.push_back(t + 2);
  req.max_new_tokens = 8;

  std::string spec;
  for (int tick = 4; tick < 40; ++tick)
    spec += (spec.empty() ? "" : ";") + std::string("flaky@") +
            std::to_string(tick) + "#0";
  serve::Engine::Options options;
  options.max_batch = 1;
  options.faults = serve::parse_fault_plan(spec).expect("plan");
  options.max_preemptions = 2;
  const serve::Report report = run_requests({req}, options);
  EXPECT_EQ(report.completed, 0);
  EXPECT_EQ(report.oom_failures, 1);
  const serve::RequestResult& r = report.results[0];
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, serve::FinishReason::kPreemptedUnrecoverable);
  EXPECT_EQ(r.preemptions, 2);
  EXPECT_NE(r.error.find("preempted_unrecoverable"), std::string::npos)
      << r.error;
}

}  // namespace
}  // namespace bbal
