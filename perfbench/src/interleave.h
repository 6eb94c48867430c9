// Copyright 2026 The LearnRisk Authors
// Cooperative interleaving of a run's phases on one thread. Each phase loop
// is a task with a stack of its own (ucontext); a task hands control back at
// operation boundaries, and the scheduler resumes the task that has had the
// least run time for its share. A run so stays one client thread with one
// request in flight, while every phase's samples are spread over the whole
// run instead of landing in one or two windows of it: a burst of host
// contention then touches a small part of every metric, not all of one.
//
// The client thread also moves to the next CPU of the process's affinity
// set before every slice (CpuRotation). On a shared VM host the virtual
// CPUs run at different speeds at any one moment (a fixed loop took 38 ms
// on two of four vCPUs and 65 ms on the other two), and the OS keeps a
// thread on one vCPU for long stretches. Unrotated, a run's single-thread
// latencies would depend on which vCPU its client thread landed on.

#ifndef PERFBENCH_INTERLEAVE_H_
#define PERFBENCH_INTERLEAVE_H_

#include <sched.h>
#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace perfbench {

/// \brief Pins the calling thread to the CPUs of its affinity set in turn;
/// the destructor restores the set. Threads it starts meanwhile inherit
/// the pin, so a thread pool must exist before the first Next().
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the next CPU of the set.
  void Next();

 private:
  cpu_set_t original_;
  bool have_original_ = false;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

class Interleaver {
 public:
  /// A task yields only once it has run `quantum_s` since it was resumed,
  /// so operations of one phase stay grouped in slices of about that length.
  explicit Interleaver(double quantum_s);
  ~Interleaver();
  Interleaver(const Interleaver&) = delete;
  Interleaver& operator=(const Interleaver&) = delete;

  /// \brief Adds a task that runs `body` and gets `share` of the time
  /// among unfinished tasks (shares are relative, > 0). Returns its index.
  size_t Add(std::function<void()> body, double share);

  /// \brief Runs the tasks until every one has returned, each slice on the
  /// next CPU of the process's affinity set.
  void Run();

  /// \brief Called by a running task at an operation boundary: returns to
  /// the scheduler once the task's slice is used up. A no-op outside Run.
  void Yield();

  /// \brief Seconds task `task` has run so far (its resumed slices).
  double seconds(size_t task) const;
  bool done(size_t task) const;

 private:
  struct Task;
  static void Enter(unsigned int high, unsigned int low);
  void Resume(Task* task);

  const uint64_t quantum_ns_;
  std::vector<std::unique_ptr<Task>> tasks_;
  ucontext_t scheduler_;
  Task* current_ = nullptr;
  uint64_t resumed_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_INTERLEAVE_H_
