// serve::trace — a recorded-workload format for the serving engine, so
// any generated open-loop workload can be saved to disk and replayed
// byte-identically (same arrivals, same prompts, same budgets) on any
// host. The file is JSONL — one object per request, in submit order:
//
//   {"arrival_tick": 17, "prompt_len": 14, "max_new_tokens": 16,
//    "prefix_group": 0, "prefix_len": 8}
//
// arrival_tick / prompt_len / max_new_tokens are required;
// prefix_group / prefix_len are optional (default -1 / 0) and mark
// requests that open with a shared prompt prefix: every entry with the
// same non-negative prefix_group draws its first prefix_len tokens from
// one group-keyed stream, so followers share pages under the
// prefix-aware policy exactly like shared_prefix_requests traffic.
//
// Token content is NOT stored: prompts are materialised from
// (model config, entry index / prefix group, seed) with one deterministic
// Rng scheme (serve::workload's generators are trace shapes materialised
// here too), which keeps traces tiny, model-agnostic, and bit-replayable
// — write → read → materialize is the identity on the resulting request
// vector (test_load pins the round trip). docs/LOADGEN.md is the format
// spec.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "llm/model.hpp"
#include "serve/request.hpp"

namespace bbal::serve {

/// One trace line: the shape of a request, not its token content.
struct TraceEntry {
  std::int64_t arrival_tick = 0;  ///< open-loop arrival (engine ticks)
  int prompt_len = 0;             ///< prompt tokens (> 0)
  int max_new_tokens = 16;        ///< completion budget (> 0)
  /// Requests with the same non-negative group share a prompt prefix;
  /// -1 = independent prompt.
  int prefix_group = -1;
  /// Leading tokens drawn from the group stream (clamped to
  /// prompt_len); 0 when prefix_group is -1.
  int prefix_len = 0;

  friend bool operator==(const TraceEntry&, const TraceEntry&) = default;
};

/// Serialise one entry as its canonical JSONL line (no trailing
/// newline); prefix fields are emitted only for grouped entries, so
/// writing a parsed file back is byte-identical.
[[nodiscard]] std::string to_jsonl(const TraceEntry& entry);

/// Parse one JSONL line (any key order, extra whitespace tolerated).
[[nodiscard]] Result<TraceEntry> parse_trace_line(const std::string& line);

/// Write entries to `path`, one canonical JSONL line each.
[[nodiscard]] Status write_trace(const std::string& path,
                                 std::span<const TraceEntry> entries);

/// Read a trace file; blank lines are skipped, malformed lines are
/// errors naming the line number. An empty file is a valid empty trace.
[[nodiscard]] Result<std::vector<TraceEntry>> read_trace(
    const std::string& path);

/// Materialise entries into submittable requests over `config`'s
/// vocabulary: entry i's prompt takes its first min(prefix_len,
/// prompt_len) tokens from the prefix_group's stream and the rest from
/// an entry-indexed stream, both derived from `seed`. Pure function of
/// (config.vocab, entries, seed) — the replay half of the byte-identity
/// contract.
[[nodiscard]] std::vector<Request> materialize_trace(
    const llm::ModelConfig& config, std::span<const TraceEntry> entries,
    std::uint64_t seed = 2024);

/// Trace of `count` synthetic_requests-shaped entries (prompt_len =
/// base_prompt_len + 2*(i % 5), independent prompts) at the given
/// arrival ticks (ticks.size() >= count; extra ticks ignored).
[[nodiscard]] std::vector<TraceEntry> synthetic_trace(
    int count, std::span<const std::int64_t> ticks, int base_prompt_len = 12,
    int max_new_tokens = 16);

/// Trace of `count` entries split round-robin into `groups` shared-prefix
/// groups: prompt_len = prefix_len + suffix_len + (i % 3), the first
/// prefix_len tokens shared within the group — the multi-tenant
/// system-prompt traffic the prefix-aware policy targets.
[[nodiscard]] std::vector<TraceEntry> shared_prefix_trace(
    int count, std::span<const std::int64_t> ticks, int groups,
    int prefix_len, int suffix_len = 4, int max_new_tokens = 16);

}  // namespace bbal::serve
