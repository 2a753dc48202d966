#include "serve/trace.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>
#include <system_error>

#include "common/json.hpp"
#include "common/rng.hpp"

namespace bbal::serve {
namespace {

// Stream-key mixers. Grouped entries shift the per-entry stream index by
// one and key group g's stream with g * kGroupMix, so a single-group
// trace of shared_prefix_requests shape (group 0 -> Rng(seed)) and an
// ungrouped trace of synthetic_requests shape materialise the *identical*
// request vectors those generators produce — one Rng scheme, no
// duplicate token streams to keep in sync.
constexpr std::uint64_t kEntryMix = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kGroupMix = 0xd1b54a32d192ed03ull;

}  // namespace

std::string to_jsonl(const TraceEntry& entry) {
  std::ostringstream os;
  os << "{\"arrival_tick\": " << entry.arrival_tick
     << ", \"prompt_len\": " << entry.prompt_len
     << ", \"max_new_tokens\": " << entry.max_new_tokens;
  if (entry.prefix_group >= 0)
    os << ", \"prefix_group\": " << entry.prefix_group
       << ", \"prefix_len\": " << entry.prefix_len;
  os << "}";
  return os.str();
}

Result<TraceEntry> parse_trace_line(const std::string& line) {
  using R = Result<TraceEntry>;
  const auto parsed = parse_json(line);
  if (!parsed.is_ok()) return R::error(parsed.message());
  if (parsed.value().kind != JsonValue::Kind::kObject)
    return R::error("expected an object");
  TraceEntry entry;
  bool have_arrival = false, have_prompt = false, have_budget = false;
  for (const auto& [key, value] : parsed.value().object) {
    // Every value is a whole number, read from its source text so a
    // fraction, an exponent or a 64-bit overflow never rounds into range.
    std::int64_t number = 0;
    const char* end = value.text.data() + value.text.size();
    const auto [stop, error] = std::from_chars(value.text.data(), end, number);
    if (value.kind != JsonValue::Kind::kNumber || stop != end)
      return R::error("expected an integer value for \"" + key + "\"");
    int* field = nullptr;  // the int-sized fields; arrival_tick is 64-bit
    if (key == "arrival_tick") {
      entry.arrival_tick = number;
      have_arrival = true;
    } else if (key == "prompt_len") {
      field = &entry.prompt_len;
      have_prompt = true;
    } else if (key == "max_new_tokens") {
      field = &entry.max_new_tokens;
      have_budget = true;
    } else if (key == "prefix_group") {
      field = &entry.prefix_group;
    } else if (key == "prefix_len") {
      field = &entry.prefix_len;
    }  // unknown integer keys are ignored (forward compatibility)
    const bool fits_int = number >= std::numeric_limits<int>::min() &&
                          number <= std::numeric_limits<int>::max();
    if (error != std::errc() || (field != nullptr && !fits_int))
      return R::error("\"" + key + "\" is out of range");
    if (field != nullptr) *field = static_cast<int>(number);
  }
  if (!have_arrival || !have_prompt || !have_budget)
    return R::error(
        "missing required key (arrival_tick, prompt_len, max_new_tokens)");
  if (entry.arrival_tick < 0) return R::error("arrival_tick must be >= 0");
  if (entry.prompt_len <= 0) return R::error("prompt_len must be > 0");
  if (entry.max_new_tokens <= 0)
    return R::error("max_new_tokens must be > 0");
  if (entry.prefix_len < 0) return R::error("prefix_len must be >= 0");
  return entry;
}

Status write_trace(const std::string& path,
                   std::span<const TraceEntry> entries) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::error("cannot open " + path + " for writing");
  for (const TraceEntry& entry : entries) out << to_jsonl(entry) << "\n";
  out.flush();
  if (!out) return Status::error("write to " + path + " failed");
  return Status::ok();
}

Result<std::vector<TraceEntry>> read_trace(const std::string& path) {
  using R = Result<std::vector<TraceEntry>>;
  std::ifstream in(path);
  if (!in) return R::error("cannot open " + path);
  std::vector<TraceEntry> entries;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    auto entry = parse_trace_line(line);
    if (!entry.is_ok())
      return R::error(path + ":" + std::to_string(line_number) + ": " +
                      entry.message());
    entries.push_back(entry.value());
  }
  return entries;
}

std::vector<Request> materialize_trace(const llm::ModelConfig& config,
                                       std::span<const TraceEntry> entries,
                                       std::uint64_t seed) {
  std::vector<Request> requests;
  requests.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const TraceEntry& entry = entries[i];
    Request req;
    req.arrival_tick = entry.arrival_tick;
    req.max_new_tokens = entry.max_new_tokens;
    req.prompt.reserve(static_cast<std::size_t>(std::max(entry.prompt_len, 0)));
    const bool grouped = entry.prefix_group >= 0 && entry.prefix_len > 0;
    const int shared =
        grouped ? std::min(entry.prefix_len, entry.prompt_len) : 0;
    if (grouped) {
      Rng group_rng(seed ^
                    (static_cast<std::uint64_t>(entry.prefix_group) *
                     kGroupMix));
      for (int t = 0; t < shared; ++t)
        req.prompt.push_back(
            static_cast<int>(group_rng.uniform_int(0, config.vocab - 1)));
    }
    Rng rng(seed ^ ((static_cast<std::uint64_t>(i) + (grouped ? 1 : 0)) *
                    kEntryMix));
    for (int t = shared; t < entry.prompt_len; ++t)
      req.prompt.push_back(
          static_cast<int>(rng.uniform_int(0, config.vocab - 1)));
    requests.push_back(std::move(req));
  }
  return requests;
}

std::vector<TraceEntry> synthetic_trace(int count,
                                        std::span<const std::int64_t> ticks,
                                        int base_prompt_len,
                                        int max_new_tokens) {
  std::vector<TraceEntry> entries;
  entries.reserve(static_cast<std::size_t>(std::max(count, 0)));
  for (int i = 0; i < count; ++i) {
    TraceEntry entry;
    entry.arrival_tick =
        static_cast<std::size_t>(i) < ticks.size() ? ticks[i] : 0;
    entry.prompt_len = base_prompt_len + 2 * (i % 5);
    entry.max_new_tokens = max_new_tokens;
    entries.push_back(entry);
  }
  return entries;
}

std::vector<TraceEntry> shared_prefix_trace(
    int count, std::span<const std::int64_t> ticks, int groups,
    int prefix_len, int suffix_len, int max_new_tokens) {
  std::vector<TraceEntry> entries;
  entries.reserve(static_cast<std::size_t>(std::max(count, 0)));
  for (int i = 0; i < count; ++i) {
    TraceEntry entry;
    entry.arrival_tick =
        static_cast<std::size_t>(i) < ticks.size() ? ticks[i] : 0;
    entry.prompt_len = prefix_len + suffix_len + (i % 3);
    entry.max_new_tokens = max_new_tokens;
    entry.prefix_group = groups > 0 ? i % groups : -1;
    entry.prefix_len = entry.prefix_group >= 0 ? prefix_len : 0;
    entries.push_back(entry);
  }
  return entries;
}

}  // namespace bbal::serve
