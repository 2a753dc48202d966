// The unified backend registry: one table maps quant::StrategySpec to
// MatmulBackend and NonlinearBackend factories plus capability metadata.
// Replaces the seed's two disconnected mechanisms (baselines::
// make_matmul_backend's if-chain, which asserted on unknown names, and the
// ad-hoc nl:: backend construction each bench repeated).
//
// Factories self-register per StrategyFamily via BackendRegistrar; the
// built-in families register in registry.cpp. Lookups return error-carrying
// Results — an unknown or malformed strategy name is a reportable error,
// never an abort.
//
// Thread-safety contract: every method of BackendRegistry is safe to call
// concurrently — SweepRunner evaluates sessions on the thread pool, and
// each evaluate() resolves its backends through this registry. The entry
// table is guarded by an internal mutex; factory functors are *copied* out
// under the lock and invoked outside it, so a slow factory never blocks
// other lookups and a factory may itself call back into the registry
// (including register_family) without deadlocking. Registered factories
// must therefore be safe to copy and to invoke from any thread; the
// backends they return are single-session objects and are NOT required to
// be thread-safe themselves. Registration normally happens before main()
// via BackendRegistrar (single-threaded static init); late registration is
// permitted and serialised by the same mutex.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "llm/backend.hpp"
#include "quant/strategy.hpp"

namespace bbal {

/// What a registered strategy family can do — queried by Session and the
/// benches to decide which backend kinds a strategy supports.
struct BackendCapabilities {
  bool matmul = false;     ///< has a linear-layer (MatmulBackend) factory
  bool nonlinear = false;  ///< has a NonlinearBackend factory
};

class BackendRegistry {
 public:
  using MatmulFactory =
      std::function<Result<std::unique_ptr<llm::MatmulBackend>>(
          const quant::StrategySpec&)>;
  using NonlinearFactory =
      std::function<Result<std::unique_ptr<llm::NonlinearBackend>>(
          const quant::StrategySpec&)>;

  /// The process-wide registry (built-in families pre-registered).
  [[nodiscard]] static BackendRegistry& instance();

  /// Register (or replace) the factories for one strategy family.
  /// Factories may be null when the family lacks that backend kind.
  void register_family(quant::StrategyFamily family, BackendCapabilities caps,
                       MatmulFactory matmul, NonlinearFactory nonlinear);

  // --- Factory lookups -----------------------------------------------------

  [[nodiscard]] Result<std::unique_ptr<llm::MatmulBackend>> make_matmul(
      const quant::StrategySpec& spec) const;
  [[nodiscard]] Result<std::unique_ptr<llm::MatmulBackend>> make_matmul(
      std::string_view name) const;

  [[nodiscard]] Result<std::unique_ptr<llm::NonlinearBackend>> make_nonlinear(
      const quant::StrategySpec& spec) const;
  [[nodiscard]] Result<std::unique_ptr<llm::NonlinearBackend>> make_nonlinear(
      std::string_view name) const;

  // --- Capability queries --------------------------------------------------

  [[nodiscard]] Result<BackendCapabilities> capabilities(
      const quant::StrategySpec& spec) const;
  /// A matmul strategy has a cost model when it has a PE datapath design
  /// (hw::pe_for_spec), so it can drive the accelerator simulator. The
  /// nonlinear units' costs live in nl/unit_cost.
  [[nodiscard]] bool has_cost_model(const quant::StrategySpec& spec) const;
  /// True if `name` parses and its family is registered.
  [[nodiscard]] bool is_known(std::string_view name) const;

 private:
  struct Entry {
    BackendCapabilities caps;
    MatmulFactory matmul;
    NonlinearFactory nonlinear;
  };
  /// Copy of the entry for `family` (or nullopt), taken under the mutex so
  /// callers can use it lock-free afterwards.
  [[nodiscard]] std::optional<Entry> find(quant::StrategyFamily family) const;

  mutable std::mutex mutex_;  ///< guards entries_ (see contract above)
  std::vector<std::pair<quant::StrategyFamily, Entry>> entries_;
};

/// Self-registration hook: a namespace-scope BackendRegistrar registers a
/// family before main() runs.
struct BackendRegistrar {
  BackendRegistrar(quant::StrategyFamily family, BackendCapabilities caps,
                   BackendRegistry::MatmulFactory matmul,
                   BackendRegistry::NonlinearFactory nonlinear) {
    BackendRegistry::instance().register_family(
        family, caps, std::move(matmul), std::move(nonlinear));
  }
};

// --- Convenience free functions ---------------------------------------------

/// Create a matmul backend from a strategy name via the global registry.
[[nodiscard]] Result<std::unique_ptr<llm::MatmulBackend>>
make_matmul_backend(std::string_view name);

/// Create a nonlinear backend from a strategy name via the global registry.
[[nodiscard]] Result<std::unique_ptr<llm::NonlinearBackend>>
make_nonlinear_backend(std::string_view name);

/// The strategy rows of Table II, in paper order.
[[nodiscard]] std::vector<std::string> table2_strategies();

}  // namespace bbal
