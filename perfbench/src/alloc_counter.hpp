// Heap-allocation counts for the benchmark binary: alloc_counter.cpp
// replaces the global operator new/delete of this executable only (the
// library carries no counting). Each thread counts into its own slot, so
// counting costs one uncontended relaxed add.
#pragma once

#include <cstdint>

namespace perfbench::alloc {

/// Allocations made so far by the calling thread.
std::uint64_t this_thread() noexcept;

}  // namespace perfbench::alloc
