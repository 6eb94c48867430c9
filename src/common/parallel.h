// Copyright 2026 The LearnRisk Authors
// Data-parallel loops over a persistent worker pool. The pool is created
// lazily on first use (one worker per CPU the process may use, less one: the
// calling thread always participates) and reused for the life of the
// process, so a hot training loop pays no thread spawn/join cost per epoch.
// The CPUs it may use are those in its affinity mask, capped at
// ceil(quota / period) when its cgroup sets a CPU quota.
//
// Work is split into statically-sized contiguous chunks (one per
// participating thread); per-index dispatch happens inside the inlined chunk
// loop, not through a std::function call per element. Exceptions thrown by
// the body are captured and the first one is rethrown on the calling thread
// after all chunks finish. Nested calls (a ParallelFor inside a ParallelFor
// body) degrade to serial execution instead of deadlocking.
//
// Concurrency contract: the pool runs one parallel loop at a time.
// ParallelFor calls issued concurrently from distinct application threads
// are serialized against each other (each caller still participates in its
// own loop, so forward progress is guaranteed); a loop body must not block
// on another thread that itself needs a ParallelFor.

#ifndef LEARNRISK_COMMON_PARALLEL_H_
#define LEARNRISK_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <string_view>

namespace learnrisk {

/// \brief Runs fn(begin, end) over disjoint chunks covering [0, n), across
/// the persistent pool (num_threads = 0 uses all threads in the affinity
/// mask; any value is clamped to the pool size). fn must be safe to invoke
/// concurrently for disjoint ranges. Small n (or num_threads == 1, or a
/// nested call) runs fn(0, n) serially on the caller.
void ParallelForRange(size_t n, const std::function<void(size_t, size_t)>& fn,
                      size_t num_threads = 0);

/// \brief Runs fn(i) for i in [0, n); the per-index loop is inlined into the
/// chunk body so the pool dispatches once per chunk, not once per index.
/// Serial fallback (tiny n, single thread, nested call) preserves index
/// order.
template <typename Fn>
void ParallelFor(size_t n, Fn&& fn, size_t num_threads = 0) {
  ParallelForRange(
      n,
      [&fn](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) fn(i);
      },
      num_threads);
}

/// \brief Number of threads a ParallelFor can use (pool workers + caller):
/// the CPUs in the process's affinity mask when the pool starts, capped by
/// the cgroup CPU quota if one is set.
size_t ParallelConcurrency();

/// \brief CPU cap of a cgroup CPU quota given as "<quota> <period>" (the
/// cgroup v2 `cpu.max` line; for v1, `cpu.cfs_quota_us` and
/// `cpu.cfs_period_us` joined by a space): ceil(quota / period) CPUs, or 0,
/// meaning no cap, for a "max" or negative (v1's -1) quota and for
/// malformed text. One trailing newline is accepted.
size_t CpuQuotaCap(std::string_view quota_period);

}  // namespace learnrisk

#endif  // LEARNRISK_COMMON_PARALLEL_H_
