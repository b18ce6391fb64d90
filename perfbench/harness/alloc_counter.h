#ifndef PERFBENCH_HARNESS_ALLOC_COUNTER_H_
#define PERFBENCH_HARNESS_ALLOC_COUNTER_H_

#include <cstdint>

namespace perfbench {

/// Global heap allocations (operator new, all forms) made by this
/// process so far. Counted by the replacement operators in
/// alloc_counter.cc, which must be linked into the executable.
uint64_t HeapAllocations();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_ALLOC_COUNTER_H_
