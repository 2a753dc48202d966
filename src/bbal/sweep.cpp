#include "bbal/sweep.hpp"

#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/threadpool.hpp"
#include "llm/model.hpp"

namespace bbal {

namespace {

/// Prepare-once cache shared by one sweep: the first thread to request a
/// model calibrates it while others needing the same model block; distinct
/// models prepare concurrently. Keyed by model name + eval tokens (zoo
/// names are unique; explicit configs must use distinct names to avoid
/// sharing, which Item documentation inherits from the zoo convention).
class PreparedCache {
 public:
  explicit PreparedCache(int eval_tokens) : eval_tokens_(eval_tokens) {}

  /// Throws std::runtime_error when preparation failed (for this call or
  /// an earlier one — a failed model is not retried); evaluate_item turns
  /// that into the item's error Result.
  std::shared_ptr<const llm::PreparedModel> get(const llm::ModelConfig& cfg) {
    const std::string key = cfg.name;
    std::unique_lock<std::mutex> lk(mutex_);
    Slot& slot = slots_[key];  // std::map: stable across other insertions
    cv_.wait(lk, [&] { return slot.state != Slot::State::kPreparing; });
    if (slot.state == Slot::State::kReady) return slot.model;
    if (slot.state == Slot::State::kFailed)
      throw std::runtime_error(slot.error);
    slot.state = Slot::State::kPreparing;
    lk.unlock();
    // Preparation itself runs parallel GEMMs; the nested pool loop is
    // safe (the preparing thread always makes progress on its own). Any
    // failure must flip the slot out of kPreparing, or every waiter above
    // would sleep forever.
    try {
      auto prepared = prepare_shared(cfg, eval_tokens_);
      lk.lock();
      slot.model = std::move(prepared);
      slot.state = Slot::State::kReady;
      ++prepared_count_;
      cv_.notify_all();
      return slot.model;
    } catch (const std::exception& e) {
      lk.lock();
      slot.state = Slot::State::kFailed;
      slot.error = std::string("preparing ") + key + ": " + e.what();
      cv_.notify_all();
      throw std::runtime_error(slot.error);
    }
  }

  [[nodiscard]] int prepared_count() {
    std::lock_guard<std::mutex> lk(mutex_);
    return prepared_count_;
  }

 private:
  struct Slot {
    enum class State { kIdle, kPreparing, kReady, kFailed };
    State state = State::kIdle;
    std::shared_ptr<const llm::PreparedModel> model;
    std::string error;
  };
  const int eval_tokens_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::string, Slot> slots_;
  int prepared_count_ = 0;
};

Result<Session::Report> evaluate_item(const SweepRunner::Item& item,
                                      PreparedCache& cache) {
  using R = Result<Session::Report>;
  Session::Builder builder;

  if (item.prepared) {
    builder.prepared(item.prepared);
  } else if (item.skip_accuracy) {
    // Cost-only items never pay for calibration: hand Session the bare
    // config and let it skip preparation entirely.
    if (item.config) {
      builder.model(*item.config);
    } else {
      auto cfg = llm::find_config(item.model);
      if (!cfg.is_ok()) return R::error("model: " + cfg.message());
      builder.model(std::move(cfg).value());
    }
  } else {
    llm::ModelConfig cfg;
    if (item.config) {
      cfg = *item.config;
    } else {
      auto found = llm::find_config(item.model);
      if (!found.is_ok()) return R::error("model: " + found.message());
      cfg = std::move(found).value();
    }
    try {
      builder.prepared(cache.get(cfg));
    } catch (const std::exception& e) {
      // Preparation failure stays isolated to the items that need this
      // model; the rest of the sweep proceeds.
      return R::error(e.what());
    }
  }

  builder.matmul(item.matmul).nonlinear(item.nonlinear);
  if (item.accelerator) {
    builder.accelerator(*item.accelerator);
  } else if (item.iso_area_um2) {
    builder.accelerator_iso_area(*item.iso_area_um2, item.iso_dram_gbps);
  }
  if (item.prefill_seq) builder.workload_prefill(*item.prefill_seq);
  if (item.skip_accuracy) builder.skip_accuracy();

  auto session = builder.build();
  if (!session.is_ok()) return R::error(session.message());
  return session.value().evaluate();
}

}  // namespace

bool SweepRunner::SweepResult::all_ok() const {
  for (const auto& r : reports)
    if (!r.is_ok()) return false;
  return true;
}

std::string SweepRunner::SweepResult::first_error() const {
  for (const auto& r : reports)
    if (!r.is_ok()) return r.message();
  return "";
}

SweepRunner& SweepRunner::eval_tokens(int tokens) {
  eval_tokens_ = tokens;
  return *this;
}

SweepRunner& SweepRunner::add(Item item) {
  items_.push_back(std::move(item));
  return *this;
}

SweepRunner::SweepResult SweepRunner::run() {
  SweepResult result;
  result.reports.assign(items_.size(),
                        Result<Session::Report>::error("not evaluated"));
  if (items_.empty()) return result;

  common::ThreadPool& pool = common::ThreadPool::global();
  result.threads = pool.thread_count();
  PreparedCache cache(eval_tokens_);

  const auto t0 = std::chrono::steady_clock::now();
  // grain 1: items are coarse (one full co-simulation each), so each goes
  // to whichever thread frees up first; slot i keeps declaration order.
  pool.parallel_for_chunks(
      0, static_cast<std::int64_t>(items_.size()), /*grain=*/1,
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i)
          result.reports[static_cast<std::size_t>(i)] =
              evaluate_item(items_[static_cast<std::size_t>(i)], cache);
      });
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;
  result.wall_seconds = elapsed.count();
  result.models_prepared = cache.prepared_count();
  return result;
}

}  // namespace bbal
