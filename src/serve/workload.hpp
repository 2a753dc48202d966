// Deterministic synthetic serving traffic: the request mix used by
// tools/record_serve, perfbench and the serving tests. Seeded
// prompts over the model's vocabulary with staggered lengths, so every
// consumer (and every CI run) replays the identical token streams.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "llm/decoder.hpp"
#include "llm/perplexity.hpp"
#include "quant/strategy.hpp"
#include "serve/request.hpp"

namespace bbal::serve {

/// Greedy sampling: the arg-max logit, lowest index winning ties, so a
/// continuation is a deterministic function of the prompt. The one
/// definition both the engine's batched path and reference_decode use —
/// the bit-identity gates compare their outputs, so the tie rule must be
/// shared, not duplicated.
[[nodiscard]] inline int greedy_argmax(std::span<const float> logits) {
  // max_element keeps the first maximum, which IS the lowest-index tie
  // rule; an empty span yields 0 like the hand-rolled loop did.
  if (logits.empty()) return 0;
  return static_cast<int>(
      std::max_element(logits.begin(), logits.end()) - logits.begin());
}

/// `count` requests over `config`'s vocabulary. Prompt i has
/// base_prompt_len + 2*(i % 5) tokens drawn from Rng(seed ^ i-mix), and a
/// budget of max_new_tokens: materialize_trace over synthetic_trace. Pure
/// function of its arguments.
[[nodiscard]] std::vector<Request> synthetic_requests(
    const llm::ModelConfig& config, int count, int base_prompt_len = 12,
    int max_new_tokens = 16, std::uint64_t seed = 2024);

/// `count` requests that all open with the same prefix_len-token prompt
/// prefix (one shared draw from Rng(seed)) followed by a per-request
/// suffix of suffix_len + (i % 3) tokens — the multi-user
/// same-system-prompt traffic the prefix-aware policy and the paged pool's
/// page sharing target: materialize_trace over a one-group
/// shared_prefix_trace. With prefix_len = 0 nothing is shared and the
/// entries are ungrouped, so prompt i is suffix_len + (i % 3) tokens of
/// the same stream synthetic_requests draws prompt i from. Pure function
/// of its arguments.
[[nodiscard]] std::vector<Request> shared_prefix_requests(
    const llm::ModelConfig& config, int count, int prefix_len,
    int suffix_len = 4, int max_new_tokens = 16, std::uint64_t seed = 2024);

/// The prompt-heavy mix chunked prefill targets: `count` requests where
/// every `long_every`-th one (i % long_every == long_every - 1) carries a
/// long_prompt_len-token prompt and the rest keep the synthetic mix's
/// short staggered lengths (base_prompt_len + 2*(i % 5)). Token streams
/// draw from Rng(seed ^ i-mix) like synthetic_requests (the same
/// materialize_trace streams), so a request's prompt depends only on its
/// index — not on which bucket its neighbours fall in. Arrival stamping is
/// the caller's job (serve::load). Pure function of its arguments.
[[nodiscard]] std::vector<Request> long_prompt_requests(
    const llm::ModelConfig& config, int count, int base_prompt_len = 12,
    int long_prompt_len = 96, int long_every = 4, int max_new_tokens = 16,
    std::uint64_t seed = 2024);

/// Reference path: decode one request alone, on a fresh backend pair
/// (`matmul` + FP32 nonlinear), greedy sampling — the stream a batched
/// Engine run must reproduce bit for bit (test_serve holds the engine to
/// this). Aborts on an unknown strategy.
[[nodiscard]] std::vector<int> reference_decode(
    const llm::PreparedModel& prepared, const quant::StrategySpec& matmul,
    const Request& request);

/// Same decode protocol over a caller-prepared decoder (fresh external
/// cache per call) — the variant timed comparisons use so weight
/// preparation stays out of the measured loop. The emission rule lives
/// here once: prompt prefill, then greedy argmax until the budget.
[[nodiscard]] std::vector<int> reference_decode(llm::Decoder& decoder,
                                                const Request& request);

}  // namespace bbal::serve
