#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <set>
#include <utility>

#include "bbal/registry.hpp"
#include "bbal/session.hpp"
#include "bbal/sweep.hpp"
#include "llm/decoder.hpp"
#include "serve/engine.hpp"
#include "serve/load.hpp"
#include "serve/workload.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace bbal;
using Clock = std::chrono::steady_clock;

constexpr const char* kModel = "Llama-7B";
/// Iso-area PE budget of the serving accelerators (Fig. 8's comparison
/// rule; the budget tools/record_serve uses).
constexpr double kPeAreaUm2 = 150000.0;
constexpr std::uint64_t kDefaultSeed = 2024;
/// What both serve workloads share: tools/record_serve's evaluation stream
/// and synthetic prompt length, the paper's headline matmul format, and
/// max_batch (kSmallM, so a decode-only tick is a small-M GEMM).
constexpr int kServeEvalTokens = 128;
constexpr int kBasePromptLen = 12;
constexpr const char* kServeMatmul = "BBFP(4,2)";

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// What sets the two serve workloads apart: traffic shape and engine
/// options.
struct ServeSpec {
  int requests = 8;
  int new_tokens = 16;
  int prefix_len = 0;  ///< > 0: shared-prefix traffic, else synthetic
  int suffix_len = 0;
  double rate = 0.0;  ///< Poisson requests per tick; 0 is closed-loop
  std::string nonlinear;
  std::string kv_format = "FP32";
  std::string policy = "fifo";
  int prefill_chunk = 1;
  int prefill_budget = 0;
  /// Stream hash of the full-size run at the default seed: pinned output.
  /// A change that moves it on purpose updates it here, in the open.
  std::uint32_t pinned_hash = 0;
};

ServeSpec decode_long_spec(bool tiny) {
  ServeSpec s;
  s.requests = tiny ? 2 : 8;
  s.new_tokens = tiny ? 8 : 96;
  s.nonlinear = "BBFP-LUT(10,5)";
  s.pinned_hash = 21695330;
  return s;
}

ServeSpec prefill_shared_spec(bool tiny) {
  ServeSpec s;
  s.requests = tiny ? 3 : 16;
  s.new_tokens = 8;
  s.prefix_len = tiny ? 32 : 96;
  s.suffix_len = tiny ? 8 : 32;
  s.rate = 0.2;
  s.nonlinear = "FP32";
  s.kv_format = "BBFP(4,2)";
  s.policy = "prefix-aware";
  s.prefill_chunk = 32;
  s.prefill_budget = 64;
  s.pinned_hash = 2237583243u;
  return s;
}

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(ServeSpec spec, std::uint64_t seed, bool tiny)
      : spec_(std::move(spec)),
        seed_(seed),
        tiny_(tiny),
        accel_(accel::make_iso_area_config(
                   quant::StrategySpec::parse(kServeMatmul).expect("matmul"),
                   kPeAreaUm2)
                   .expect("iso-area accelerator")) {}

  const llm::ModelConfig& config() const override { return prepared_->config; }

  void setup() override {
    engine_.reset();
    traced_engine_.reset();
    const auto start = Clock::now();
    prepared_ = prepare_shared(kModel, kServeEvalTokens);
    prepare_seconds_ = seconds_since(start);
    engine_ = std::make_unique<serve::Engine>(make_engine(options()));
    requests_ = make_requests();
  }

  double last_prepare_seconds() const override { return prepare_seconds_; }

  void setup_traced() override {
    traced_engine_ = std::make_unique<serve::Engine>(make_engine(options()));
  }

  RepOutcome run(bool traced) override {
    serve::Engine& engine = traced ? *traced_engine_ : *engine_;
    for (const serve::Request& req : requests_) engine.submit(req);
    report_ = engine.run();

    RepOutcome out;
    out.attempted = report_.requests;
    for (const serve::RequestResult& r : report_.results) {
      if (!r.ok) {
        ++out.failed;
        continue;
      }
      out.tokens += r.prompt_tokens - r.shared_prompt_tokens +
                    static_cast<std::int64_t>(r.generated.size());
    }
    if (pinned() && report_.stream_hash != spec_.pinned_hash)
      out.failed = out.attempted;
    out.fingerprint = std::to_string(report_.stream_hash);
    return out;
  }

  Verdict verify() override {
    Verdict v;
    v.attempted = report_.requests;
    if (report_.completed != report_.requests)
      v.problems.push_back("only " + std::to_string(report_.completed) +
                           " of " + std::to_string(report_.requests) +
                           " requests completed");
    if (pinned() && report_.stream_hash != spec_.pinned_hash)
      v.problems.push_back("stream hash " +
                           std::to_string(report_.stream_hash) +
                           " differs from the pinned " +
                           std::to_string(spec_.pinned_hash));
    const std::vector<std::vector<int>> reference = reference_streams();
    for (std::size_t i = 0; i < reference.size(); ++i) {
      if (report_.results[i].generated != reference[i]) {
        ++v.failed;
        v.problems.push_back("request " + std::to_string(i) +
                             " diverged from its reference stream");
      }
    }
    if (!v.problems.empty() && v.failed == 0) v.failed = v.attempted;
    return v;
  }

  std::string kv_format() const override { return spec_.kv_format; }
  const accel::AcceleratorConfig& accelerator() const override {
    return accel_;
  }
  const serve::Report* last_report() const override { return &report_; }

 private:
  bool pinned() const {
    return !tiny_ && seed_ == kDefaultSeed;
  }

  serve::Engine::Options options() const {
    serve::Engine::Options o;
    o.max_batch = kSmallM;
    o.policy = spec_.policy;
    o.kv_format = spec_.kv_format;
    o.prefill_chunk = spec_.prefill_chunk;
    o.prefill_budget = spec_.prefill_budget;
    o.accelerator = accel_;
    return o;
  }

  serve::Engine make_engine(serve::Engine::Options o) const {
    return serve::Engine::create(prepared_, kServeMatmul, spec_.nonlinear,
                                 std::move(o))
        .expect("perfbench engine");
  }

  std::vector<serve::Request> make_requests() const {
    const llm::ModelConfig& cfg = prepared_->config;
    std::vector<serve::Request> reqs =
        spec_.prefix_len > 0
            ? serve::shared_prefix_requests(cfg, spec_.requests,
                                            spec_.prefix_len, spec_.suffix_len,
                                            spec_.new_tokens, seed_)
            : serve::synthetic_requests(cfg, spec_.requests,
                                        kBasePromptLen,
                                        spec_.new_tokens, seed_);
    if (spec_.rate > 0.0) {
      serve::ArrivalSpec arrivals;
      arrivals.kind = serve::ArrivalSpec::Kind::kPoisson;
      arrivals.rate = spec_.rate;
      arrivals.seed = seed_;
      serve::stamp_arrivals(reqs,
                            serve::generate_arrivals(arrivals, spec_.requests));
    }
    return reqs;
  }

  /// Every request's stream from an independent path. With FP32 KV pages
  /// that is serve::reference_decode: each request decoded alone over a
  /// contiguous cache on fresh backends. Quantised KV pages change the
  /// numbers a contiguous cache would hold, so there the reference is a
  /// second engine with the same pages but none of the mechanisms under
  /// test: fifo admission (no prefix sharing), one token per tick.
  std::vector<std::vector<int>> reference_streams() const {
    std::vector<std::vector<int>> streams;
    if (spec_.kv_format == "FP32") {
      auto mm = make_matmul_backend(kServeMatmul).expect("reference matmul");
      auto nl = make_nonlinear_backend(spec_.nonlinear)
                    .expect("reference nonlinear");
      llm::Transformer model(prepared_->config, prepared_->weights, *mm, *nl);
      model.set_logit_scale(prepared_->logit_scale);
      llm::Decoder decoder(model);
      for (const serve::Request& req : requests_)
        streams.push_back(serve::reference_decode(decoder, req));
      return streams;
    }
    serve::Engine::Options o;
    o.max_batch = kSmallM;
    o.kv_format = spec_.kv_format;
    serve::Engine reference = make_engine(std::move(o));
    for (const serve::Request& req : requests_) reference.submit(req);
    for (serve::RequestResult& r : reference.run().results)
      streams.push_back(std::move(r.generated));
    return streams;
  }

  ServeSpec spec_;
  std::uint64_t seed_;
  bool tiny_;
  accel::AcceleratorConfig accel_;
  std::shared_ptr<const llm::PreparedModel> prepared_;
  double prepare_seconds_ = 0.0;
  std::vector<serve::Request> requests_;
  std::unique_ptr<serve::Engine> engine_;
  std::unique_ptr<serve::Engine> traced_engine_;
  serve::Report report_;
};

/// Rows of a committed recorder file ({"meta": ..., "rows": [...]}, one
/// row object per line), exactly as written.
std::set<std::string> committed_rows(const std::string& path) {
  std::set<std::string> rows;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("  {", 0) != 0) continue;
    line.erase(0, 2);
    if (!line.empty() && line.back() == ',') line.pop_back();
    rows.insert(line);
  }
  return rows;
}

class SweepWorkload final : public Workload {
 public:
  SweepWorkload(std::uint64_t seed, bool tiny, std::string baseline_path)
      : baseline_(committed_rows(baseline_path)),
        baseline_path_(std::move(baseline_path)) {
    // The seed rotates the declaration order: SweepRunner's item-level
    // parallelism then schedules the strategies differently, while every
    // row must still match its committed twin exactly.
    std::vector<std::string> all = table2_strategies();
    if (tiny) all.resize(3);
    const std::size_t shift = seed % all.size();
    for (std::size_t i = 0; i < all.size(); ++i)
      strategies_.push_back(all[(i + shift) % all.size()]);
  }

  const llm::ModelConfig& config() const override { return prepared_->config; }

  void setup() override {
    const auto start = Clock::now();
    prepared_ = prepare_shared(kModel, kEvalTokens);
    prepare_seconds_ = seconds_since(start);
  }

  double last_prepare_seconds() const override { return prepare_seconds_; }

  // Every evaluate() builds its backends afresh, so decoration is decided
  // per repetition by the caller.
  void setup_traced() override {}

  RepOutcome run(bool /*traced*/) override {
    SweepRunner sweep;
    sweep.eval_tokens(kEvalTokens);
    for (const std::string& strategy : strategies_) {
      SweepRunner::Item item;
      item.prepared = prepared_;
      item.matmul = strategy;
      // The paper's 16x16 array wherever the strategy prices a PE design,
      // as tools/record_table2 configures it.
      const auto spec = quant::StrategySpec::parse(strategy);
      if (spec.is_ok() &&
          BackendRegistry::instance().has_cost_model(spec.value()))
        item.accelerator = accel::AcceleratorConfig{};
      sweep.add(std::move(item));
    }
    const SweepRunner::SweepResult result = sweep.run();

    RepOutcome out;
    out.attempted = static_cast<std::int64_t>(result.reports.size());
    last_mismatches_.clear();
    std::vector<std::string> rows;
    for (std::size_t i = 0; i < result.reports.size(); ++i) {
      if (!result.reports[i].is_ok()) {
        ++out.failed;
        last_mismatches_.push_back(strategies_[i] + ": " +
                                   result.reports[i].message());
        continue;
      }
      const std::string row = result.reports[i].value().to_json();
      rows.push_back(row);
      if (baseline_.count(row) == 0) {
        ++out.failed;
        last_mismatches_.push_back(strategies_[i] +
                                   ": row differs from the committed one");
      }
      out.tokens += kEvalTokens;
    }
    // Sorted, so the fingerprint does not depend on the seed's rotation.
    std::sort(rows.begin(), rows.end());
    for (const std::string& row : rows) out.fingerprint += row + '\n';
    return out;
  }

  Verdict verify() override {
    Verdict v;
    v.attempted = static_cast<std::int64_t>(strategies_.size());
    if (baseline_.empty())
      v.problems.push_back("no committed rows found in " + baseline_path_);
    v.problems.insert(v.problems.end(), last_mismatches_.begin(),
                      last_mismatches_.end());
    v.failed = v.problems.empty() ? 0 : v.attempted;
    return v;
  }

  std::string kv_format() const override { return ""; }
  const accel::AcceleratorConfig& accelerator() const override {
    return accel_;
  }
  const serve::Report* last_report() const override { return nullptr; }

 private:
  /// BENCH_table2.json's settings (tools/record_table2's default).
  static constexpr int kEvalTokens = 256;

  std::set<std::string> baseline_;
  std::string baseline_path_;
  std::vector<std::string> strategies_;
  accel::AcceleratorConfig accel_;  ///< the 16x16 BBFP(4,2) array
  std::shared_ptr<const llm::PreparedModel> prepared_;
  double prepare_seconds_ = 0.0;
  std::vector<std::string> last_mismatches_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny,
                                        const std::string& baseline_path) {
  if (name == "decode_long")
    return std::make_unique<ServeWorkload>(decode_long_spec(tiny), seed, tiny);
  if (name == "prefill_shared")
    return std::make_unique<ServeWorkload>(prefill_shared_spec(tiny), seed,
                                           tiny);
  if (name == "table2_sweep")
    return std::make_unique<SweepWorkload>(seed, tiny, baseline_path);
  return nullptr;
}

}  // namespace perfbench
