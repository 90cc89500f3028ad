// Heap-allocation counting for the traced run. The benchmark binary
// replaces the global operator new/delete; counting is off unless a traced
// section switches it on, so the untraced run pays one relaxed load per
// allocation.
#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  uint64_t count = 0;
  uint64_t bytes = 0;
};

void SetAllocCounting(bool on);

/// Allocations counted so far, over every thread (the parallel store's scan
/// workers included).
AllocCounts AllocSnapshot();

inline AllocCounts operator-(const AllocCounts& a, const AllocCounts& b) {
  return {a.count - b.count, a.bytes - b.bytes};
}

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
