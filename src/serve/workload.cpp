#include "serve/workload.hpp"

#include "bbal/registry.hpp"
#include "llm/decoder.hpp"
#include "serve/trace.hpp"

namespace bbal::serve {

// The generators below are trace shapes materialised through
// materialize_trace, which owns the per-request token streams.

std::vector<Request> synthetic_requests(const llm::ModelConfig& config,
                                        int count, int base_prompt_len,
                                        int max_new_tokens,
                                        std::uint64_t seed) {
  return materialize_trace(
      config, synthetic_trace(count, {}, base_prompt_len, max_new_tokens),
      seed);
}

std::vector<Request> shared_prefix_requests(const llm::ModelConfig& config,
                                            int count, int prefix_len,
                                            int suffix_len,
                                            int max_new_tokens,
                                            std::uint64_t seed) {
  return materialize_trace(config,
                           shared_prefix_trace(count, {}, /*groups=*/1,
                                               prefix_len, suffix_len,
                                               max_new_tokens),
                           seed);
}

std::vector<Request> long_prompt_requests(const llm::ModelConfig& config,
                                          int count, int base_prompt_len,
                                          int long_prompt_len, int long_every,
                                          int max_new_tokens,
                                          std::uint64_t seed) {
  std::vector<TraceEntry> entries =
      synthetic_trace(count, {}, base_prompt_len, max_new_tokens);
  // The long prompts land mid-stream (index long_every-1, not 0), so a
  // decode batch is already running when the first one starts streaming
  // in — the interference case the decode-flatness gate measures.
  for (int i = long_every - 1; long_every > 0 && i < count; i += long_every)
    entries[static_cast<std::size_t>(i)].prompt_len = long_prompt_len;
  return materialize_trace(config, entries, seed);
}

std::vector<int> reference_decode(llm::Decoder& decoder,
                                  const Request& request) {
  llm::KVCache cache = decoder.make_cache();
  std::vector<float> logits;
  for (const int token : request.prompt) logits = decoder.step(token, cache);
  std::vector<int> generated;
  while (static_cast<int>(generated.size()) < request.max_new_tokens) {
    const int best = greedy_argmax(logits);
    generated.push_back(best);
    if (static_cast<int>(generated.size()) == request.max_new_tokens) break;
    logits = decoder.step(best, cache);
  }
  return generated;
}

std::vector<int> reference_decode(const llm::PreparedModel& prepared,
                                  const quant::StrategySpec& matmul,
                                  const Request& request) {
  auto mm = BackendRegistry::instance().make_matmul(matmul).expect(
      "reference_decode matmul backend");
  llm::Fp32NonlinearBackend nl;
  llm::Transformer model(prepared.config, prepared.weights, *mm, nl);
  model.set_logit_scale(prepared.logit_scale);
  llm::Decoder decoder(model);
  return reference_decode(decoder, request);
}

}  // namespace bbal::serve
