// Serving demo: stand up a continuous-batching engine over a quantised
// Session and serve a handful of concurrent generation requests, printing
// per-request TTFT / latency / tokens-per-second and the batch aggregate —
// then re-serve a shared-prefix mix under the prefix-aware scheduler to
// show paged KV prefix sharing at work. docs/SERVING.md walks through the
// output line by line.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/serving_demo
#include <cstdio>

#include "bbal/session.hpp"
#include "common/table.hpp"
#include "serve/engine.hpp"
#include "serve/workload.hpp"

int main() {
  using namespace bbal;

  std::printf("BBAL serving demo: continuous batching over BBFP(4,2)\n");
  std::printf("=====================================================\n\n");

  // 1. A Session binds the model + strategy + accelerator, as in the
  //    quickstart; the engine then serves that exact configuration.
  auto model = prepare_shared("Llama-1B", /*eval_tokens=*/128);
  accel::AcceleratorConfig accel_cfg;
  accel_cfg.array_rows = accel_cfg.array_cols = 16;
  auto session = Session::create({.prepared = model,
                                  .matmul = "BBFP(4,2)",
                                  .accelerator = accel_cfg})
                     .expect("session");

  // 2. Engine with 3 execution slots serving 6 requests: requests queue,
  //    slots free up mid-run, the scheduler back-fills continuously.
  auto engine =
      serve::Engine::from_session(session, /*max_batch=*/3).expect("engine");
  for (const serve::Request& req :
       serve::synthetic_requests(model->config, /*count=*/6,
                                 /*base_prompt_len=*/8, /*max_new_tokens=*/12))
    engine.submit(req);

  const serve::Report report = engine.run();

  TextTable table({"Request", "Prompt", "Generated", "TTFT ms", "Total ms",
                   "Tok/s"});
  for (const serve::RequestResult& r : report.results)
    table.add_row({std::to_string(r.id), std::to_string(r.prompt_tokens),
                   std::to_string(r.generated.size()),
                   TextTable::num(r.ttft_seconds * 1e3, 3),
                   TextTable::num(r.total_seconds * 1e3, 3),
                   TextTable::num(r.tokens_per_second, 0)});
  table.print();

  std::printf(
      "\nBatch: %lld tokens in %.3f ms simulated (%.0f tok/s), "
      "p99 step %.3f ms, occupancy %.2f/%d, %u stream hash\n",
      static_cast<long long>(report.generated_tokens),
      report.total_seconds * 1e3, report.throughput_tokens_per_second,
      report.p99_step_seconds * 1e3, report.mean_batch_occupancy,
      report.max_batch, report.stream_hash);
  std::printf("KV pool: %lld pages allocated, peak %.1f KB "
              "(monolithic caches: %.1f KB)\n",
              static_cast<long long>(report.kv_pages_allocated),
              static_cast<double>(report.kv_bytes_peak) / 1024.0,
              static_cast<double>(report.kv_bytes_peak_contiguous) / 1024.0);

  // 3. Same engine configuration, prefix-aware scheduling, and a mix
  //    where every request opens with the same 48-token system prompt:
  //    followers attach the leader's KV pages instead of recomputing
  //    them, so prefill work and peak KV bytes both drop while the token
  //    streams stay bit-identical to any other policy's.
  std::printf("\nPrefix sharing: 6 requests, one 48-token system prompt, "
              "prefix-aware policy\n");
  serve::Engine::Options options;
  options.max_batch = 3;
  options.policy = "prefix-aware";
  options.accelerator = accel_cfg;
  auto aware = serve::Engine::create(model, quant::spec_of("BBFP(4,2)"),
                                     quant::StrategySpec::fp32(),
                                     std::move(options))
                   .expect("engine");
  for (const serve::Request& req : serve::shared_prefix_requests(
           model->config, /*count=*/6, /*prefix_len=*/48,
           /*suffix_len=*/4, /*max_new_tokens=*/12))
    aware.submit(req);
  const serve::Report shared = aware.run();

  TextTable sharing({"Request", "Prompt", "Shared", "TTFT ms", "Tok/s"});
  for (const serve::RequestResult& r : shared.results)
    sharing.add_row({std::to_string(r.id), std::to_string(r.prompt_tokens),
                     std::to_string(r.shared_prompt_tokens),
                     TextTable::num(r.ttft_seconds * 1e3, 3),
                     TextTable::num(r.tokens_per_second, 0)});
  sharing.print();
  std::printf(
      "\nPrefix hit rate %.2f; KV peak %.1f KB vs %.1f KB monolithic; "
      "%u stream hash\n",
      shared.prefix_hit_rate,
      static_cast<double>(shared.kv_bytes_peak) / 1024.0,
      static_cast<double>(shared.kv_bytes_peak_contiguous) / 1024.0,
      shared.stream_hash);
  return 0;
}
