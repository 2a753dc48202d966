// Speculative-decoding study: what a cheap low-precision draft backend
// buys the target engine, and what it must NOT cost — bit-identity of the
// served streams (docs/SPECULATIVE.md walks through every number printed
// here).
//
// Greedy-argmax verification makes speculation a scheduling change, never
// a sampling change: every accepted draft token equals the token the
// target would have produced alone, and the first rejected position is
// replaced by the target's own argmax. So the whole study rides on one
// oracle — the speculative engine's streams and hashes must equal the
// target-only engine's, for every (draft, target) pair, at any thread
// count. The speedup question is then pure cycle accounting: k draft
// forwards on the draft's iso-area array plus ONE batched (k+1)-row
// verify on the target, against the k+1 sequential decode steps the
// target-only engine would have priced (weight streaming dominates decode,
// and is M-independent — the same amortisation chunked prefill exploits).
//
// Correctness gates (exit non-zero on failure):
//  1. Bit-identity: for every (draft, target) pair in the sweep, the
//     speculative engine's per-request token streams and stream hash equal
//     the target-only engine's exactly (no tolerance).
//  2. Self-acceptance: with draft == target the two pipelines run the
//     same arithmetic on the same KV state, so the acceptance rate is
//     exactly 1.0 — any miss means the draft pipeline diverged.
//  3. Accounting: drafted tokens never exceed draft_cycles * k, accepted
//     tokens never exceed drafted, and a speculative run emits the same
//     total tokens as its target-only sibling.
//
// The speedups themselves are not gated here: BENCH_serve.json pins the
// committed speculative rows' speedup_vs_target exactly.
//
// The frontier table sweeps (draft, k) per target: acceptance, speedup,
// engine ticks and the stream hash. All on the simulated clock —
// bit-identical across hosts and BBAL_THREADS.
//
// Env: BBAL_MODEL (default Llama-7B), BBAL_EVAL_TOKENS (default 128),
//      BBAL_SERVE_REQUESTS (default 8), BBAL_SERVE_NEW_TOKENS (default
//      16), BBAL_SERVE_BATCH (default 4), BBAL_SPEC_K (default 4, the
//      draft window), BBAL_THREADS.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bbal/registry.hpp"
#include "common/table.hpp"
#include "serve/engine.hpp"
#include "serve/workload.hpp"

namespace {

using namespace bbal;

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

/// A serving engine on `target`, priced on its iso-area accelerator, with
/// an optional draft backend (draft_k = 0 turns speculation off).
serve::Engine make_engine(
    const std::shared_ptr<const llm::PreparedModel>& prepared,
    const std::string& target, int max_batch, const std::string& draft,
    int draft_k) {
  serve::Engine::Options options;
  options.max_batch = max_batch;
  options.draft = draft;
  options.draft_k = draft_k;
  const auto spec = quant::StrategySpec::parse(target).expect("strategy");
  options.accelerator =
      accel::make_iso_area_config(spec, /*pe_area_budget_um2=*/150000.0)
          .expect("iso-area config");
  return serve::Engine::create(prepared, spec, quant::StrategySpec::fp32(),
                               std::move(options))
      .expect("engine");
}

serve::Report serve_mix(serve::Engine& engine,
                        const std::vector<serve::Request>& requests) {
  for (const serve::Request& req : requests) engine.submit(req);
  return engine.run();
}

}  // namespace

int main() {
  print_banner("Serving: speculative decoding across quantisation tiers");

  const char* model_env = std::getenv("BBAL_MODEL");
  const std::string model_name = model_env != nullptr ? model_env : "Llama-7B";
  const int eval_tokens = env_int("BBAL_EVAL_TOKENS", 128);
  const int num_requests = env_int("BBAL_SERVE_REQUESTS", 8);
  const int new_tokens = env_int("BBAL_SERVE_NEW_TOKENS", 16);
  const int max_batch = env_int("BBAL_SERVE_BATCH", 4);
  const int spec_k = env_int("BBAL_SPEC_K", 4);

  std::fprintf(stderr, "preparing %s (%d eval tokens)...\n",
               model_name.c_str(), eval_tokens);
  const auto prepared = prepare_shared(model_name, eval_tokens);
  const std::vector<serve::Request> mix = serve::synthetic_requests(
      prepared->config, num_requests, /*base_prompt_len=*/12, new_tokens);

  // Cost-modelled tiers only: every target prices its verify ticks and
  // every draft its forwards, so the speedup column is never vacuous.
  const std::vector<std::string> targets = {"INT8", "BBFP(4,2)", "BBFP(6,3)"};
  const std::vector<std::string> drafts = {"INT8", "BFP4", "BBFP(4,2)",
                                           "BBFP(6,3)"};

  int failures = 0;

  // Target-only references, one per target — the oracle every speculative
  // run must reproduce bit for bit.
  std::vector<serve::Report> references;
  for (const std::string& target : targets) {
    serve::Engine engine = make_engine(prepared, target, max_batch, "", 0);
    references.push_back(serve_mix(engine, mix));
  }

  // --- Gates 1-3 over the full (draft, target) sweep ---
  int identity_misses = 0;
  int accounting_misses = 0;
  int self_acceptance_misses = 0;
  struct SweepRow {
    std::string target, draft;
    serve::Report report;
  };
  std::vector<SweepRow> sweep;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const serve::Report& ref = references[t];
    for (const std::string& draft : drafts) {
      serve::Engine engine =
          make_engine(prepared, targets[t], max_batch, draft, spec_k);
      serve::Report report = serve_mix(engine, mix);
      for (std::size_t i = 0; i < mix.size(); ++i) {
        if (report.results[i].generated != ref.results[i].generated) {
          ++identity_misses;
          std::fprintf(stderr, "  %s<-%s: request %zu diverged\n",
                       targets[t].c_str(), draft.c_str(), i);
          break;
        }
      }
      if (report.stream_hash != ref.stream_hash) ++identity_misses;
      if (report.drafted_tokens > report.draft_cycles * spec_k ||
          report.accepted_tokens > report.drafted_tokens ||
          report.generated_tokens != ref.generated_tokens)
        ++accounting_misses;
      if (draft == targets[t] && report.acceptance_rate != 1.0)
        ++self_acceptance_misses;
      sweep.push_back({targets[t], draft, std::move(report)});
    }
  }
  std::printf("Bit-identity gate: %zu (draft,target) pairs at k=%d -> %d "
              "divergence(s): %s\n",
              sweep.size(), spec_k, identity_misses,
              identity_misses == 0 ? "PASS" : "FAIL");
  failures += identity_misses == 0 ? 0 : 1;
  std::printf("Self-acceptance gate: draft == target accepts everything "
              "-> %d miss(es): %s\n",
              self_acceptance_misses,
              self_acceptance_misses == 0 ? "PASS" : "FAIL");
  failures += self_acceptance_misses == 0 ? 0 : 1;
  std::printf("Accounting gate: drafted <= cycles*k, accepted <= drafted, "
              "tokens conserved -> %d miss(es): %s\n",
              accounting_misses, accounting_misses == 0 ? "PASS" : "FAIL");
  failures += accounting_misses == 0 ? 0 : 1;

  // --- Frontier: acceptance and speedup per (draft, target, k) ---
  std::printf("\nSpeculative sweep over the synthetic mix (batch %d, "
              "%d requests x %d tokens):\n",
              max_batch, num_requests, new_tokens);
  TextTable table({"Target", "Draft", "k", "Accept", "Speedup", "Ticks",
                   "Cycles", "Hash"});
  for (const SweepRow& row : sweep) {
    table.add_row({row.target, row.draft, std::to_string(spec_k),
                   TextTable::num(row.report.acceptance_rate, 3),
                   TextTable::num(row.report.speedup_vs_target, 3),
                   std::to_string(row.report.engine_steps),
                   std::to_string(row.report.draft_cycles),
                   std::to_string(row.report.stream_hash)});
  }
  // The window sweep on the winning self-draft: k's diminishing returns.
  for (const int k : {1, 2, 8}) {
    serve::Engine engine = make_engine(prepared, "INT8", max_batch, "INT8", k);
    const serve::Report report = serve_mix(engine, mix);
    table.add_row({"INT8", "INT8", std::to_string(k),
                   TextTable::num(report.acceptance_rate, 3),
                   TextTable::num(report.speedup_vs_target, 3),
                   std::to_string(report.engine_steps),
                   std::to_string(report.draft_cycles),
                   std::to_string(report.stream_hash)});
  }
  table.print();

  return failures == 0 ? 0 : 1;
}
