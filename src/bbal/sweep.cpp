#include "bbal/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "common/threadpool.hpp"
#include "llm/model.hpp"

namespace bbal {

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
  using R = Result<Session::Report>;
  SweepResult result;
  common::ThreadPool& pool = common::ThreadPool::global();
  result.threads = pool.thread_count();
  const auto t0 = std::chrono::steady_clock::now();

  // The distinct configs the accuracy items need, compared field by field,
  // and the one each item runs on (-1 when it brings its own model, needs
  // none, or names an unknown one, which Session::create reports).
  std::vector<llm::ModelConfig> configs;
  std::vector<int> config_of(items_.size(), -1);
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const Item& item = items_[i];
    if (item.prepared || item.skip_accuracy) continue;
    Result<llm::ModelConfig> config =
        item.config ? *item.config : llm::find_config(item.model);
    if (!config.is_ok()) continue;
    const auto it = std::find(configs.begin(), configs.end(), config.value());
    config_of[i] = static_cast<int>(it - configs.begin());
    if (it == configs.end()) configs.push_back(std::move(config).value());
  }

  // Both loops run at grain 1: a preparation (a calibration) and an item
  // (a full co-simulation) are coarse, so each goes to whichever thread
  // frees up first; slot i keeps declaration order.
  std::vector<std::shared_ptr<const llm::PreparedModel>> models(
      configs.size());
  pool.parallel_for_chunks(
      0, static_cast<std::int64_t>(configs.size()), /*grain=*/1,
      [&](std::int64_t j0, std::int64_t j1) {
        for (std::int64_t j = j0; j < j1; ++j)
          models[static_cast<std::size_t>(j)] = prepare_shared(
              configs[static_cast<std::size_t>(j)], eval_tokens_);
      });
  result.models_prepared = static_cast<int>(models.size());

  result.reports.assign(items_.size(), R::error("not evaluated"));
  pool.parallel_for_chunks(
      0, static_cast<std::int64_t>(items_.size()), /*grain=*/1,
      [&](std::int64_t i0, std::int64_t i1) {
        for (auto i = static_cast<std::size_t>(i0);
             i < static_cast<std::size_t>(i1); ++i) {
          Item item = items_[i];
          if (config_of[i] >= 0)
            item.prepared = models[static_cast<std::size_t>(config_of[i])];
          auto session = Session::create(std::move(item));
          result.reports[i] = session.is_ok() ? session.value().evaluate()
                                              : R::error(session.message());
        }
      });
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;
  result.wall_seconds = elapsed.count();
  return result;
}

}  // namespace bbal
