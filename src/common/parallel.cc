// Copyright 2026 The LearnRisk Authors

#include "common/parallel.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace learnrisk {
namespace {

// Below this many indices the chunking/wakeup overhead dominates any
// speedup; run serially (also keeps tiny loops deterministic in order).
constexpr size_t kSerialCutoff = 256;

// Depth of parallel regions on this thread: > 0 inside a pool worker or a
// caller currently inside ParallelForRange. Nested calls run serially.
thread_local int g_parallel_depth = 0;

// First line of a small file, or "" when it cannot be read.
std::string ReadFirstLine(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

// The CPU cap of this process's cgroup quota (0: none), from cgroup v2's
// cpu.max or else v1's cfs quota and period, as mounted in this process's
// cgroup namespace.
size_t CgroupCpuCap() {
  const std::string v2 = ReadFirstLine("/sys/fs/cgroup/cpu.max");
  if (!v2.empty()) return CpuQuotaCap(v2);
  const std::string quota =
      ReadFirstLine("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  const std::string period =
      ReadFirstLine("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  if (quota.empty() || period.empty()) return 0;
  return CpuQuotaCap(quota + " " + period);
}

// CPUs this process may run on: its affinity mask (taskset, cpusets), or the
// hardware thread count when the mask cannot be read, capped by its cgroup
// CPU quota.
size_t AvailableCpus() {
  size_t cpus = std::max<size_t>(std::thread::hardware_concurrency(), 1);
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    cpus = static_cast<size_t>(CPU_COUNT(&set));
  }
  const size_t cap = CgroupCpuCap();
  return cap == 0 ? cpus : std::min(cpus, cap);
}

/// One dispatched parallel loop. Shared by the caller and every worker that
/// wakes for it; chunk claims and completion are tracked per-job so a
/// late-waking worker that finds no chunks left simply drops its reference.
struct Job {
  std::function<void(size_t, size_t)> body;
  size_t n = 0;
  size_t chunk_size = 0;
  size_t num_chunks = 0;
  std::atomic<size_t> next_chunk{0};
  std::atomic<size_t> done_chunks{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr error;
};

/// Marks the current thread as inside a parallel region for its lifetime.
struct DepthGuard {
  DepthGuard() { ++g_parallel_depth; }
  ~DepthGuard() { --g_parallel_depth; }
};

class ThreadPool {
 public:
  static ThreadPool& Instance() {
    static ThreadPool pool;
    return pool;
  }

  size_t concurrency() const { return workers_.size() + 1; }

  /// Runs the job to completion, participating from the calling thread.
  /// Rethrows the first exception any chunk raised.
  void Run(const std::shared_ptr<Job>& job) {
    std::lock_guard<std::mutex> serialize(run_mu_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = job;
      ++generation_;
    }
    work_cv_.notify_all();
    Drain(*job);
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [&] {
        return job->done_chunks.load() == job->num_chunks;
      });
      job_.reset();
    }
    if (job->error) std::rethrow_exception(job->error);
  }

 private:
  ThreadPool() {
    const size_t cpus = AvailableCpus();
    workers_.reserve(cpus - 1);
    for (size_t t = 0; t + 1 < cpus; ++t) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  void WorkerLoop() {
    g_parallel_depth = 1;  // nested ParallelFor inside a body runs serially
    uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = job_;
      }
      if (job) Drain(*job);
    }
  }

  /// Claims statically-sized chunks until none remain. After a chunk fails,
  /// remaining chunks are claimed but skipped so the loop winds down fast.
  void Drain(Job& job) {
    for (;;) {
      const size_t c = job.next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= job.num_chunks) return;
      if (!job.failed.load(std::memory_order_acquire)) {
        const size_t begin = c * job.chunk_size;
        const size_t end = std::min(begin + job.chunk_size, job.n);
        try {
          job.body(begin, end);
        } catch (...) {
          std::lock_guard<std::mutex> lock(job.error_mu);
          if (!job.error) job.error = std::current_exception();
          job.failed.store(true, std::memory_order_release);
        }
      }
      if (job.done_chunks.fetch_add(1) + 1 == job.num_chunks) {
        std::lock_guard<std::mutex> lock(mu_);
        done_cv_.notify_all();
      }
    }
  }

  std::mutex run_mu_;  // serializes concurrent Run() callers

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> job_;
  uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace

size_t ParallelConcurrency() { return ThreadPool::Instance().concurrency(); }

size_t CpuQuotaCap(std::string_view quota_period) {
  if (!quota_period.empty() && quota_period.back() == '\n') {
    quota_period.remove_suffix(1);
  }
  const size_t space = quota_period.find(' ');
  if (space == std::string_view::npos) return 0;
  const std::string_view quota = quota_period.substr(0, space);
  const std::string_view period = quota_period.substr(space + 1);
  // Parses all of `text` as a positive decimal integer, else returns 0.
  auto positive = [](std::string_view text) -> int64_t {
    int64_t value = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || end != text.data() + text.size()) return 0;
    return std::max<int64_t>(value, 0);
  };
  const int64_t q = positive(quota);
  const int64_t p = positive(period);
  if (q == 0 || p == 0) return 0;
  return static_cast<size_t>(q / p + (q % p != 0));
}

void ParallelForRange(size_t n, const std::function<void(size_t, size_t)>& fn,
                      size_t num_threads) {
  if (n == 0) return;
  // Decide the serial cases before touching the pool, so a process whose
  // loops are all tiny (or explicitly single-threaded) never spawns the
  // persistent workers at all.
  if (n < kSerialCutoff || num_threads == 1 || g_parallel_depth > 0) {
    DepthGuard depth;
    fn(0, n);
    return;
  }
  const size_t threads =
      num_threads == 0
          ? ThreadPool::Instance().concurrency()
          : std::min(num_threads, ThreadPool::Instance().concurrency());
  if (threads <= 1) {
    DepthGuard depth;
    fn(0, n);
    return;
  }

  auto job = std::make_shared<Job>();
  job->body = fn;
  job->n = n;
  job->num_chunks = std::min(threads, n);
  job->chunk_size = (n + job->num_chunks - 1) / job->num_chunks;
  // Rounding the chunk size up can cover n with fewer chunks; recompute so
  // every chunk is non-empty.
  job->num_chunks = (n + job->chunk_size - 1) / job->chunk_size;

  DepthGuard depth;
  ThreadPool::Instance().Run(job);
}

}  // namespace learnrisk
