// Heap-allocation counter for host.allocs_per_token: this binary replaces
// the global operator new, so every allocation the library makes while the
// benchmark runs is counted. The count is process-wide and always on; take
// differences around the phase you want to measure.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made so far by any thread of this process.
[[nodiscard]] std::uint64_t heap_allocations();

}  // namespace perfbench
