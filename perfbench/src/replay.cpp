#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <random>
#include <vector>

#include "accel/simulator.hpp"
#include "accel/workload.hpp"
#include "llm/backend.hpp"
#include "nl/unit_cost.hpp"
#include "quant/kv_codec.hpp"
#include "quant/strategy.hpp"

namespace perfbench {

namespace {

using namespace bbal;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// Replays repeat each timing this often and keep the median.
constexpr int kReplayRounds = 3;
/// Cap on elements quantised per observed shape and round.
constexpr std::int64_t kElementBudget = 200000;

void fill_normal(std::span<float> xs, std::mt19937_64& rng) {
  std::normal_distribution<float> dist(0.0f, 1.0f);
  for (float& x : xs) x = dist(rng);
}

/// serve::Engine's pricing of one tick: flights are runs of rows whose
/// contexts count up by one. A tick with as many rows as LM-head rows is
/// all one-row flights, which is exact; otherwise two adjacent flights with
/// contiguous contexts are priced as one chunk.
std::vector<accel::GemmShape> tick_workload(const ObservedTick& tick,
                                            const llm::ModelConfig& cfg) {
  std::vector<int> ctx;
  for (std::size_t i = 0; i < tick.row_contexts.size();
       i += static_cast<std::size_t>(cfg.n_heads))
    ctx.push_back(tick.row_contexts[i]);
  const bool all_single = static_cast<int>(ctx.size()) == tick.groups;
  std::vector<accel::GemmShape> workload;
  std::size_t r = 0;
  while (r < ctx.size()) {
    std::size_t end = r + 1;
    if (!all_single)
      while (end < ctx.size() && ctx[end] == ctx[end - 1] + 1) ++end;
    const int rows = static_cast<int>(end - r);
    const std::vector<accel::GemmShape> step =
        rows == 1 ? accel::decode_step_gemms(cfg, ctx[r])
                  : accel::prefill_chunk_gemms(cfg, ctx[r] - 1, rows);
    workload.insert(workload.end(), step.begin(), step.end());
    r = end;
  }
  return workload;
}

double time_pricing_us(const std::vector<std::vector<accel::GemmShape>>& ticks,
                       const accel::AcceleratorConfig& accel) {
  if (ticks.empty()) return 0.0;
  std::vector<double> rounds;
  double sink = 0.0;
  for (int round = 0; round < kReplayRounds; ++round) {
    const auto start = Clock::now();
    for (const auto& workload : ticks)
      sink += accel::simulate_workload(accel, workload).seconds;
    rounds.push_back(seconds_since(start) * 1e6 /
                     static_cast<double>(ticks.size()));
  }
  // Keep the sum observable so the calls cannot be dropped.
  if (sink < 0.0) rounds.push_back(sink);
  return median(rounds);
}

}  // namespace

double replay_act_quantise_ns_per_elem(const TraceRecord& record,
                                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  double total_ns = 0.0;
  double total_elems = 0.0;
  for (const auto& [shape, calls] : record.act_shapes) {
    const auto& [format, m, k] = shape;
    const auto spec = quant::StrategySpec::parse(format).expect("act format");
    const auto backend =
        llm::make_block_backend(spec.block_format().expect("block format"));
    llm::Matrix acts(m, k);
    llm::Matrix q;
    fill_normal(acts.flat(), rng);
    const std::int64_t elems = static_cast<std::int64_t>(m) * k;
    const std::int64_t reps =
        std::clamp<std::int64_t>(kElementBudget / elems, 1, calls);
    std::vector<double> rounds;
    for (int round = 0; round < kReplayRounds; ++round) {
      const auto start = Clock::now();
      for (std::int64_t i = 0; i < reps; ++i)
        backend->quantise_activations_into(acts, q);
      rounds.push_back(seconds_since(start) * 1e9 / static_cast<double>(reps));
    }
    total_ns += median(rounds) * static_cast<double>(calls);
    total_elems += static_cast<double>(elems) * static_cast<double>(calls);
  }
  return total_elems > 0.0 ? total_ns / total_elems : 0.0;
}

KvCodecCost replay_kv_codec(const std::string& format, int d_model,
                            std::uint64_t seed) {
  constexpr int kRows = 2048;
  const quant::KvPageCodec codec(
      quant::KvFormat::parse(format).expect("kv format"), d_model);
  std::mt19937_64 rng(seed);
  std::vector<float> rows(static_cast<std::size_t>(kRows) * d_model);
  fill_normal(rows, rng);
  std::vector<std::uint8_t> bytes(kRows * codec.encoded_row_bytes());
  std::vector<float> decoded(rows.size());
  const auto row = [&](std::vector<float>& v, int r) {
    return std::span<float>(v).subspan(static_cast<std::size_t>(r) * d_model,
                                       static_cast<std::size_t>(d_model));
  };
  const auto packed = [&](int r) {
    return std::span<std::uint8_t>(bytes).subspan(
        r * codec.encoded_row_bytes(), codec.encoded_row_bytes());
  };
  std::vector<double> encode, decode;
  for (int round = 0; round < kReplayRounds; ++round) {
    auto start = Clock::now();
    for (int r = 0; r < kRows; ++r) codec.encode_row(row(rows, r), packed(r));
    encode.push_back(seconds_since(start) * 1e9 / kRows);
    start = Clock::now();
    for (int r = 0; r < kRows; ++r)
      codec.decode_row(packed(r), row(decoded, r));
    decode.push_back(seconds_since(start) * 1e9 / kRows);
  }
  return {median(encode), median(decode)};
}

double replay_price_us_per_tick(const TraceRecord& record,
                                const llm::ModelConfig& cfg,
                                const accel::AcceleratorConfig& accel) {
  std::vector<std::vector<accel::GemmShape>> ticks;
  for (const ObservedTick& tick : record.ticks)
    ticks.push_back(tick_workload(tick, cfg));
  return time_pricing_us(ticks, accel);
}

double replay_price_us_per_item(const llm::ModelConfig& cfg,
                                const accel::AcceleratorConfig& accel,
                                int seq) {
  return time_pricing_us({accel::prefill_gemms(cfg, seq)}, accel);
}

SimCycles simulated_cycles(const TraceRecord& record, int reps,
                           const serve::Report& report,
                           const llm::ModelConfig& cfg,
                           const accel::AcceleratorConfig& accel) {
  SimCycles c;
  if (reps <= 0) return c;
  const std::int64_t heads = cfg.n_heads;
  const std::int64_t dh = cfg.head_dim();
  const nl::NlUnitCost unit = nl::bbal_nl_unit_cost();
  for (const auto& [width, calls] : record.softmax_widths) {
    const accel::GemmShape scores{heads, dh, width, "attn_scores", true, false};
    const accel::GemmShape context{heads, width, dh, "attn_context", false,
                                   true};
    const double per_row = accel::simulate_gemm(accel, scores).cycles +
                           accel::simulate_gemm(accel, context).cycles;
    c.attn += per_row * static_cast<double>(calls) / static_cast<double>(heads);
    c.nl_unpriced += unit.softmax_cycles(width) * static_cast<double>(calls);
  }
  for (const auto& [width, calls] : record.silu_widths) {
    // One pipelined pass over the vector, lanes elements per cycle.
    const double vectors = (width + unit.lanes - 1) / unit.lanes;
    c.nl_unpriced +=
        (vectors + unit.fixed_latency_cycles) * static_cast<double>(calls);
  }
  c.attn /= reps;
  c.nl_unpriced /= reps;
  c.proj = report.total_seconds * accel.freq_ghz * 1e9 - c.attn;
  return c;
}

}  // namespace perfbench
