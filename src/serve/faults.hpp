// serve::FaultPlan — a seeded, deterministic fault-injection harness for
// the serving engine.
//
// Every failure path the engine has (pool exhaustion, reserve failure,
// request cancellation, arrival floods) used to be reachable only by
// accident: size the pool wrong, or get unlucky with the workload. A
// FaultPlan makes those paths *provokable on demand* — each event is
// keyed by the engine's own simulated tick (and, where it targets one
// request, by submit index), so a plan replays bit-identically across
// hosts, thread counts and compilers, exactly like the arrival
// generators in serve/load. The chaos CI smoke and the preemption
// goodput pair (BENCH_serve.json's SLO section) are both built on this
// determinism.
//
// Event taxonomy (docs/ROBUSTNESS.md has the full semantics):
//  - ExhaustionWindow [begin, end): the KV pool refuses *new page*
//    allocations for every tick in the window. Admission stalls and
//    decode reserves that cross a page boundary fail; reserves that fit
//    inside an already-owned page proceed (the memory truly exists).
//  - ReserveFault (tick, request): one transient KV-reserve failure for
//    that request at that tick — models a racing allocator loss. The
//    flight suspends, requeues and resumes bit-identically (bounded by
//    Engine::Options::max_preemptions) — a transient fault never
//    hard-fails a request. Exhaustion-window failures, by contrast, are
//    real pool pressure: they requeue only when preemption is on and
//    otherwise retire with a typed `oom` reason.
//  - Cancellation (tick, request): client-side cancel. The request
//    retires at that tick with whatever tokens it has produced and
//    reason `cancelled`.
//  - ArrivalSpike (tick, window): every arrival stamped in
//    [tick, tick + window) is pulled forward to `tick`, collapsing the
//    window into a flash crowd without changing the request set.
//
// Plans come from three places, all equivalent: parse_fault_plan() over
// the spec grammar below (what `record_serve --fault-plan` takes),
// seeded_fault_plan() which expands a (seed, horizon) pair into a
// pseudo-random but fully deterministic plan, and literal construction
// in tests. describe() round-trips back to the grammar.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"

namespace bbal::serve {

/// Deterministic schedule of injectable faults, keyed by engine tick and
/// request submit index. An empty plan is a no-op: the engine's default
/// path is untouched and committed BENCH rows stay byte-exact.
struct FaultPlan {
  /// Pool-wide allocation freeze over ticks [begin_tick, end_tick).
  struct ExhaustionWindow {
    std::int64_t begin_tick = 0;
    std::int64_t end_tick = 0;
  };
  /// One transient reserve failure for `request` at `tick`.
  struct ReserveFault {
    std::int64_t tick = 0;
    int request = 0;
  };
  /// Client cancellation of `request` at `tick` (partial output kept).
  struct Cancellation {
    std::int64_t tick = 0;
    int request = 0;
  };
  /// Arrivals in [tick, tick + window) are pulled forward to `tick`.
  struct ArrivalSpike {
    std::int64_t tick = 0;
    std::int64_t window = 0;
  };

  std::vector<ExhaustionWindow> exhaustion;
  std::vector<ReserveFault> reserve_faults;
  std::vector<Cancellation> cancellations;
  std::vector<ArrivalSpike> spikes;

  [[nodiscard]] bool empty() const {
    return exhaustion.empty() && reserve_faults.empty() &&
           cancellations.empty() && spikes.empty();
  }

  /// True when `tick` falls inside any exhaustion window.
  [[nodiscard]] bool exhausted_at(std::int64_t tick) const;

  /// True when a transient reserve failure is planned for (tick, request).
  [[nodiscard]] bool reserve_fails(std::int64_t tick, int request) const;

  /// Canonical spec string ("exhaust@8..16;cancel@4#2;..."), parseable by
  /// parse_fault_plan. Empty string for an empty plan. Recorded in BENCH
  /// meta / Report JSON so a row names the plan that made it.
  [[nodiscard]] std::string describe() const;
};

/// Parse a fault-plan spec: ';'-separated events, each one of
///   exhaust@B..E   pool allocation freeze over ticks [B, E)
///   flaky@T#R      transient reserve failure for request R at tick T
///   cancel@T#R     cancel request R at tick T
///   spike@T+W      collapse arrivals in [T, T+W) onto tick T
///   seed@S+H       splice in seeded_fault_plan(S, H)
/// Whitespace around events is ignored; an empty spec is the empty plan.
[[nodiscard]] Result<FaultPlan> parse_fault_plan(const std::string& spec);

/// Expand (seed, horizon) into a deterministic pseudo-random plan:
/// two exhaustion windows, a handful of transient reserve faults and one
/// cancellation, all inside [0, horizon). Pure function of its arguments
/// — the CI chaos smoke passes the same pair on every host.
[[nodiscard]] FaultPlan seeded_fault_plan(std::uint64_t seed,
                                          std::int64_t horizon);

}  // namespace bbal::serve
