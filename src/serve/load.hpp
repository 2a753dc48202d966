// serve::load — deterministic open-loop load generation for the serving
// engine: arrival processes that stamp each Request with an arrival_tick,
// and the SLO the capacity-planning study holds the engine to.
//
// Every serving bench before this subsystem was *closed-loop*: all
// requests present at t=0, so the engine was never measured under
// queueing delay, saturation or overload — exactly the regime a
// production deployment lives in. An *open-loop* workload decouples the
// arrival process from the service process: requests arrive on their own
// clock whether or not the engine has kept up, which is what exposes the
// saturation knee (goodput-under-SLO vs offered load) that
// tools/record_serve's SLO section records.
//
// The clock is the engine's own simulated tick (one fused decode step =
// one tick), so arrivals are fully deterministic: a generator is a pure
// function of (count, rate, seed) — bit-identical across hosts, thread
// counts and compilers — and the closed-loop benches are simply the
// arrival_tick == 0 special case. docs/LOADGEN.md specifies the models.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "serve/request.hpp"

namespace bbal::serve {

/// Service-level objective for one serving run: a completed request
/// meets the SLO when its TTFT (arrival to first token, queueing
/// included) and its *largest* inter-token gap both stay within the
/// thresholds, all on the simulated accelerator clock. The report's
/// goodput_under_slo is the fraction of submitted requests that
/// complete within it — the capacity-planning metric.
struct Slo {
  double ttft_seconds = 0.0;         ///< max arrival-to-first-token (> 0)
  double inter_token_seconds = 0.0;  ///< max gap between tokens (> 0)
};

/// Two-state (on/off) modulation for bursty_arrivals: an MMPP-style
/// process that alternates exponentially-dwelling ON bursts (rate scaled
/// up) and OFF lulls (rate scaled down) around the nominal rate.
struct BurstyOptions {
  double burst_factor = 6.0;     ///< ON-state rate multiplier (> 1)
  double idle_factor = 0.125;    ///< OFF-state rate multiplier (< 1)
  double mean_on_ticks = 32.0;   ///< mean ON dwell (exponential)
  double mean_off_ticks = 96.0;  ///< mean OFF dwell (exponential)
};

/// `count` evenly spaced arrivals at `rate` requests per tick: arrival i
/// lands at start_tick + floor(i / rate). Deterministic, seedless — the
/// zero-variance reference the stochastic processes are compared to.
[[nodiscard]] std::vector<std::int64_t> uniform_arrivals(
    int count, double rate, std::int64_t start_tick = 0);

/// `count` Poisson(rate) arrivals: i.i.d. exponential inter-arrival
/// gaps of mean 1/rate, accumulated and floored to integer ticks. Pure
/// function of (count, rate, seed).
[[nodiscard]] std::vector<std::int64_t> poisson_arrivals(
    int count, double rate, std::uint64_t seed, std::int64_t start_tick = 0);

/// `count` arrivals from a two-state modulated Poisson process: dwell
/// times are exponential with the configured means, and within a state
/// arrivals are Poisson at rate x burst_factor (ON) or rate x
/// idle_factor (OFF). Models flash-crowd traffic: deep queues during
/// bursts, idle drain between them. Pure function of its arguments.
[[nodiscard]] std::vector<std::int64_t> bursty_arrivals(
    int count, double rate, std::uint64_t seed,
    const BurstyOptions& options = {});

/// One-stop arrival-process descriptor, so tools can expose a single
/// {uniform, poisson, bursty} knob and record a self-describing
/// provenance string next to every BENCH row.
struct ArrivalSpec {
  enum class Kind { kUniform, kPoisson, kBursty };
  Kind kind = Kind::kPoisson;
  double rate = 0.1;  ///< mean arrivals per engine tick (> 0)
  std::uint64_t seed = 2024;
  BurstyOptions bursty;  ///< used when kind == kBursty
};

/// Generate `count` arrival ticks under `spec` (dispatches to the
/// process functions above).
[[nodiscard]] std::vector<std::int64_t> generate_arrivals(
    const ArrivalSpec& spec, int count);

/// Provenance string, e.g. "poisson(rate=0.1,seed=2024)" — recorded in
/// BENCH meta and rows so a baseline names the workload that made it.
[[nodiscard]] std::string describe_arrivals(const ArrivalSpec& spec);

/// Stamp requests[i].arrival_tick = ticks[i] (up to the shorter of the
/// two; extra requests keep their current stamp). Ticks from the
/// generators are non-decreasing, so FIFO admission stays submit-ordered.
void stamp_arrivals(std::vector<Request>& requests,
                    std::span<const std::int64_t> ticks);

/// Collapse every arrival in [spike_tick, spike_tick + window) onto
/// spike_tick: a flash crowd injected into an already-stamped workload
/// without changing the request set or any arrival outside the window.
/// Arrivals stay non-decreasing (only later ticks are pulled earlier, to
/// a tick no earlier than the window start). Returns the number of
/// requests moved. Used by serve::FaultPlan ArrivalSpike events.
int inject_arrival_spike(std::vector<Request>& requests,
                         std::int64_t spike_tick, std::int64_t window);

}  // namespace bbal::serve
