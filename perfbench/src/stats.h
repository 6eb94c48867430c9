// Copyright 2026 The LearnRisk Authors
// Sample statistics of the benchmark: medians and the tail-percentile rule.
// A timing is reported as its median and the highest percentile that still
// has at least ten samples beyond it, so a tail figure never rests on one or
// two outliers.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Samples a tail percentile needs strictly beyond it.
constexpr size_t kMinSamplesBeyond = 10;

/// \brief Nearest-rank index of the p-quantile in a sorted sample of size n
/// (the smallest index whose cumulative share reaches p).
inline size_t RankIndex(size_t n, double p) {
  if (n == 0) return 0;
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  const size_t k = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(k, n - 1);
}

/// \brief Samples strictly above the p-quantile's rank in a sample of n.
inline size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - 1 - RankIndex(n, p);
}

/// \brief The p-quantile (nearest rank) of an unsorted sample; 0 if empty.
inline double Quantile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  const size_t k = RankIndex(xs.size(), p);
  std::nth_element(xs.begin(), xs.begin() + static_cast<ptrdiff_t>(k),
                   xs.end());
  return xs[k];
}

inline double Median(const std::vector<double>& xs) {
  return Quantile(xs, 0.5);
}

/// \brief A tail percentile chosen by the ten-beyond rule.
struct TailPick {
  double p = 0.5;       ///< the percentile used, as a share (0.99)
  std::string label;    ///< "p99", "p95", ...
  double value = 0.0;
};

/// \brief `wanted` when it has at least kMinSamplesBeyond samples beyond
/// it, else the highest lower rung of p99, p95, p90, p75 that does; p50
/// when none qualifies. The label names the percentile actually used.
inline TailPick SupportedTail(const std::vector<double>& xs, double wanted) {
  struct Rung {
    double p;
    const char* label;
  };
  static const Rung kLadder[] = {{0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"},
                                 {0.75, "p75"}, {0.50, "p50"}};
  for (const Rung& rung : kLadder) {
    if (rung.p > wanted) continue;
    if (SamplesBeyond(xs.size(), rung.p) >= kMinSamplesBeyond ||
        rung.p == 0.50) {
      return {rung.p, rung.label, Quantile(xs, rung.p)};
    }
  }
  return {};
}

/// \brief Smallest sample for which percentile p has kMinSamplesBeyond
/// samples beyond it (1000 for p99).
inline size_t MinSamplesFor(double p) {
  size_t n = 1;
  while (SamplesBeyond(n, p) < kMinSamplesBeyond) ++n;
  return n;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
