// Copyright 2026 The LearnRisk Authors
// Tests for the ParallelFor helper.

#include "common/parallel.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace learnrisk {
namespace {

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> visits(kN);
  ParallelFor(kN, [&](size_t i) { visits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << i;
  }
}

TEST(ParallelForTest, SmallNRunsSerially) {
  std::vector<int> order;
  // Below the parallel threshold the loop must be plain and ordered.
  ParallelFor(10, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ParallelForTest, ZeroIterationsIsNoOp) {
  bool called = false;
  ParallelFor(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, ExplicitSingleThread) {
  constexpr size_t kN = 1000;
  std::vector<int> visits(kN, 0);
  ParallelFor(kN, [&](size_t i) { visits[i]++; }, /*num_threads=*/1);
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(ParallelForTest, FewerIterationsThanThreads) {
  // n below any plausible thread count: every index must still run once.
  for (size_t n : {1u, 2u, 3u}) {
    std::vector<std::atomic<int>> visits(n);
    ParallelFor(n, [&](size_t i) { visits[i].fetch_add(1); },
                /*num_threads=*/64);
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
  }
}

TEST(ParallelForTest, ManyMoreIterationsThanThreads) {
  constexpr size_t kN = 200000;
  std::vector<std::atomic<uint8_t>> visits(kN);
  ParallelFor(kN, [&](size_t i) { visits[i].fetch_add(1); },
              /*num_threads=*/2);
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(static_cast<int>(visits[i].load()), 1) << i;
  }
}

TEST(ParallelForTest, PropagatesExceptionFromBody) {
  constexpr size_t kN = 50000;
  auto boom = [&](size_t i) {
    if (i == kN / 2) throw std::runtime_error("body failed");
  };
  EXPECT_THROW(ParallelFor(kN, boom), std::runtime_error);
  // Small-n serial fallback propagates too.
  EXPECT_THROW(
      ParallelFor(10, [](size_t) { throw std::runtime_error("serial"); }),
      std::runtime_error);
  // The pool survives a failed loop: the next loop runs normally.
  std::atomic<size_t> count{0};
  ParallelFor(kN, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), kN);
}

TEST(ParallelForTest, NestedCallsRunSerially) {
  constexpr size_t kOuter = 1000;
  constexpr size_t kInner = 300;
  std::vector<std::atomic<int>> visits(kOuter);
  ParallelFor(kOuter, [&](size_t i) {
    // Nested parallel loops must not deadlock; they degrade to serial.
    std::atomic<int> inner{0};
    ParallelFor(kInner, [&](size_t) { inner.fetch_add(1); });
    if (inner.load() == kInner) visits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kOuter; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(ParallelForTest, RangeVariantCoversAllIndices) {
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> visits(kN);
  ParallelForRange(kN, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
  EXPECT_GE(ParallelConcurrency(), 1u);
}

TEST(ParallelForTest, ConcurrencyFollowsAffinityMask) {
  // The pool is sized from the CPUs this process may run on, not the host's
  // hardware thread count (the two differ under taskset or a cpuset),
  // capped by the cgroup CPU quota when one is set (v2 cpu.max, else v1).
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  size_t expected = static_cast<size_t>(CPU_COUNT(&set));
  auto first_line = [](const char* path) {
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
  };
  std::string quota = first_line("/sys/fs/cgroup/cpu.max");
  if (quota.empty()) {
    const std::string v1 = first_line("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
    const std::string period =
        first_line("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
    if (!v1.empty() && !period.empty()) quota = v1 + " " + period;
  }
  const size_t cap = CpuQuotaCap(quota);
  if (cap != 0) expected = std::min(expected, cap);
  EXPECT_EQ(ParallelConcurrency(), expected);
}

TEST(ParallelForTest, CpuQuotaCapParsesCgroupQuota) {
  // cgroup v2 cpu.max lines.
  EXPECT_EQ(CpuQuotaCap("max 100000"), 0u);
  EXPECT_EQ(CpuQuotaCap("max 100000\n"), 0u);
  EXPECT_EQ(CpuQuotaCap("150000 100000"), 2u);
  EXPECT_EQ(CpuQuotaCap("150000 100000\n"), 2u);
  EXPECT_EQ(CpuQuotaCap("200000 100000"), 2u);
  EXPECT_EQ(CpuQuotaCap("200001 100000"), 3u);
  EXPECT_EQ(CpuQuotaCap("50000 100000"), 1u);
  EXPECT_EQ(CpuQuotaCap("1 100000"), 1u);
  // cgroup v1 quota and period joined: -1 is "no quota".
  EXPECT_EQ(CpuQuotaCap("-1 100000"), 0u);
  EXPECT_EQ(CpuQuotaCap("400000 100000"), 4u);
  // Malformed text sets no cap.
  for (const char* text :
       {"", "\n", "150000", "150000 ", " 150000 100000", "150000  100000",
        "150000 100000 1", "150000 0", "150000 -100000", "0 100000",
        "1.5 100000", "150000 1e5", "abc 100000", "150000 max",
        "150000\t100000", "99999999999999999999 100000"}) {
    EXPECT_EQ(CpuQuotaCap(text), 0u) << "'" << text << "'";
  }
}

TEST(ParallelForTest, ResultsMatchSerialComputation) {
  constexpr size_t kN = 5000;
  std::vector<double> parallel_out(kN);
  std::vector<double> serial_out(kN);
  auto work = [](size_t i) {
    double x = static_cast<double>(i);
    return x * x / (x + 1.0);
  };
  ParallelFor(kN, [&](size_t i) { parallel_out[i] = work(i); });
  for (size_t i = 0; i < kN; ++i) serial_out[i] = work(i);
  EXPECT_EQ(parallel_out, serial_out);
}

}  // namespace
}  // namespace learnrisk
