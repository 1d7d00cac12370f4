#ifndef GIDS_TESTS_COMMON_HEAP_COUNTER_H_
#define GIDS_TESTS_COMMON_HEAP_COUNTER_H_

#include <cstdint>

namespace gids::testing {

/// Number of global `operator new` calls the process has made so far.
/// Defined by heap_counter.cc, which replaces the global allocation
/// functions of the one test binary it is linked into; a test takes the
/// difference across a code path to show that the path allocates nothing.
uint64_t HeapAllocations();

}  // namespace gids::testing

#endif  // GIDS_TESTS_COMMON_HEAP_COUNTER_H_
