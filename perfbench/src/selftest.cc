// Copyright 2026 The LearnRisk Authors
// Self-test of the benchmark's percentile rule (stats.h): a tail
// percentile is reported only when at least ten samples lie beyond it; and
// of the phase interleaver (interleave.h). Run by
// perfbench/test_perfbench.py; exits 1 if any check fails.

#include <cstdio>
#include <vector>

#include "bench.h"
#include "interleave.h"
#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> xs;
  for (size_t i = 0; i < n; ++i) xs.push_back(static_cast<double>(n - i));
  return xs;  // n, n-1, ..., 1: unsorted on purpose
}

void Spin(uint64_t ns) {
  const uint64_t start = perfbench::NowNs();
  while (perfbench::NowNs() - start < ns) {
  }
}

/// Two tasks with shares 2:1 take turns: both finish, their steps
/// interleave, and while both run the first gets about twice the time.
void InterleaverChecks() {
  perfbench::Interleaver tasks(0.002);
  std::vector<int> order;
  size_t a_steps_when_b_done = 0;
  size_t a_steps = 0;
  tasks.Add(
      [&] {
        for (int i = 0; i < 120; ++i) {
          tasks.Yield();
          Spin(500000);
          order.push_back(0);
          ++a_steps;
        }
      },
      2.0);
  tasks.Add(
      [&] {
        for (int i = 0; i < 30; ++i) {
          tasks.Yield();
          Spin(500000);
          order.push_back(1);
        }
        a_steps_when_b_done = a_steps;
      },
      1.0);
  tasks.Run();
  Expect(tasks.done(0) && tasks.done(1), "interleaved tasks both finish");
  Expect(order.size() == 150, "every step of both tasks ran");
  size_t switches = 0;
  for (size_t i = 1; i < order.size(); ++i) switches += order[i] != order[i - 1];
  Expect(switches >= 10, "the tasks take turns");
  Expect(a_steps_when_b_done >= 40 && a_steps_when_b_done <= 80,
         "a 2:1 share gives the first task about twice the time");
}

}  // namespace

int main() {
  using namespace perfbench;  // NOLINT

  Expect(MinSamplesFor(0.99) == 1000, "p99 needs 1000 samples");
  Expect(MinSamplesFor(0.95) == 200, "p95 needs 200 samples");
  Expect(MinSamplesFor(0.50) == 20, "p50 needs 20 samples");
  Expect(SamplesBeyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  Expect(SamplesBeyond(999, 0.99) == 9, "999 samples: 9 beyond p99");

  // Nearest rank: the p-quantile of 1..n is ceil(p n).
  Expect(Quantile(Ramp(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
  Expect(Quantile(Ramp(100), 0.5) == 50.0, "median of 1..100 is 50");
  Expect(Median(Ramp(5)) == 3.0, "median of 1..5 is 3");
  Expect(Median({}) == 0.0, "median of nothing is 0");

  TailPick pick = SupportedTail(Ramp(1000), 0.99);
  Expect(pick.label == "p99" && pick.value == 990.0, "1000 samples keep p99");
  pick = SupportedTail(Ramp(999), 0.99);
  Expect(pick.label == "p95", "999 samples fall back to p95");
  pick = SupportedTail(Ramp(150), 0.99);
  Expect(pick.label == "p90" && pick.value == 135.0,
         "150 samples fall back to p90");
  pick = SupportedTail(Ramp(5), 0.99);
  Expect(pick.label == "p50", "5 samples fall back to the median");
  pick = SupportedTail(Ramp(100000), 0.99);
  Expect(pick.label == "p99", "never reports above the wanted percentile");

  InterleaverChecks();

  if (failures == 0) std::printf("selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
