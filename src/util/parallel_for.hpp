/**
 * @file
 * The one parallel loop of the code base.
 */

#ifndef MRP_UTIL_PARALLEL_FOR_HPP
#define MRP_UTIL_PARALLEL_FOR_HPP

#include <cstddef>
#include <functional>

namespace mrp {

/**
 * Call @p fn(i) for every i in [0, n) on up to @p jobs threads. Workers
 * take the next index from one shared atomic counter, so a long item
 * never holds up the rest. With @p jobs or @p n at most 1 the loop
 * runs inline on the calling thread. The first exception thrown by
 * @p fn stops the hand-out of further indices and is rethrown once
 * every worker has joined. Callers that need a deterministic result
 * write it by index.
 */
void parallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)>& fn);

} // namespace mrp

#endif // MRP_UTIL_PARALLEL_FOR_HPP
