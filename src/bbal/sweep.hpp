// bbal::SweepRunner — evaluate many (model, matmul-strategy, nonlinear-
// strategy) combinations concurrently on the process thread pool.
//
// This is the engine behind the Table II / Table IV / Fig. 8 sweeps and
// tools/record_table2: items are declared up front as Session::Options,
// run() fans them out over common::ThreadPool::global(), and the results
// come back in *declaration order* regardless of which thread finished
// first.
//
// Guarantees:
//  - Determinism: reports[i] always corresponds to items[i], and every
//    report is bit-identical to what a serial Session::evaluate() of the
//    same item produces (tested in test_session; locked in by the
//    BENCH_table2.json CI gate at BBAL_THREADS=1/2/N).
//  - One preparation per model: run() first prepares each distinct config
//    its accuracy items need (configs compared field by field, so two
//    configs that share a name get a model each), once, in one pooled
//    loop; then it evaluates every item on those shared models. An
//    explicitly attached `prepared` model is used as is.
//  - Error isolation: a failing item (unknown model or strategy, bad
//    combination) yields an error Result in its slot; the other items
//    still run.
//
//   SweepRunner sweep;
//   sweep.eval_tokens(256);
//   for (const auto& s : table2_strategies())
//     sweep.add({.model = "Llama-7B", .matmul = s});
//   auto result = sweep.run();
//   // result.reports[i] pairs with the i-th add(); result.wall_seconds
//   // and result.threads feed the bench JSON's sweep metadata.
#pragma once

#include <string>
#include <vector>

#include "bbal/session.hpp"

namespace bbal {

class SweepRunner {
 public:
  /// One cell of the sweep: a Session's options. An accuracy item with no
  /// `prepared` model runs on the one the sweep prepares for its config,
  /// at the sweep's eval_tokens(); an item's own eval_tokens is read only
  /// by a Session that prepares its own model.
  using Item = Session::Options;

  struct SweepResult {
    /// One slot per add(), in declaration order.
    std::vector<Result<Session::Report>> reports;
    double wall_seconds = 0.0;  ///< run() wall-clock for the whole sweep
    int threads = 1;            ///< executors the sweep ran with
    int models_prepared = 0;    ///< distinct configs the sweep prepared

    /// True when every item evaluated cleanly.
    [[nodiscard]] bool all_ok() const;
    /// First error message, or "" when all_ok().
    [[nodiscard]] std::string first_error() const;
  };

  /// Evaluation stream length for models the sweep prepares itself.
  SweepRunner& eval_tokens(int tokens);
  SweepRunner& add(Item item);
  [[nodiscard]] std::size_t size() const { return items_.size(); }

  /// Evaluate every item on ThreadPool::global(). Blocking; reentrant in
  /// the sense that distinct SweepRunner instances may run concurrently.
  [[nodiscard]] SweepResult run();

 private:
  int eval_tokens_ = 512;
  std::vector<Item> items_;
};

}  // namespace bbal
