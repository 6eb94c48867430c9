// Copyright 2026 The LearnRisk Authors

#include "metrics/string_kernels.h"

#include <algorithm>

namespace learnrisk {

void BuildCharMasks(std::string_view pattern, MetricScratch* scratch) {
  for (char c : pattern) scratch->char_masks[static_cast<unsigned char>(c)] = 0;
  uint64_t bit = 1;
  for (char c : pattern) {
    scratch->char_masks[static_cast<unsigned char>(c)] |= bit;
    bit <<= 1;
  }
}

void ClearCharMasks(std::string_view pattern, MetricScratch* scratch) {
  for (char c : pattern) scratch->char_masks[static_cast<unsigned char>(c)] = 0;
}

namespace {

/// Strips the common prefix and (non-overlapping) common suffix of two
/// string views in place; returns {prefix_len, suffix_len}. Both edit
/// distance and LCS decompose over this split: equal border characters never
/// change the distance and always extend some LCS.
std::pair<size_t, size_t> StripCommonEnds(std::string_view* a,
                                          std::string_view* b) {
  size_t prefix = 0;
  const size_t min_len = std::min(a->size(), b->size());
  while (prefix < min_len && (*a)[prefix] == (*b)[prefix]) ++prefix;
  a->remove_prefix(prefix);
  b->remove_prefix(prefix);
  size_t suffix = 0;
  const size_t min_rest = std::min(a->size(), b->size());
  while (suffix < min_rest &&
         (*a)[a->size() - 1 - suffix] == (*b)[b->size() - 1 - suffix]) {
    ++suffix;
  }
  a->remove_suffix(suffix);
  b->remove_suffix(suffix);
  return {prefix, suffix};
}

/// Myers' bit-parallel Levenshtein distance for |a| <= 64 (Hyyrö's
/// formulation). Exact: maintains the vertical delta encoding of the DP
/// column and tracks the score at the last row.
size_t MyersEditDistance(std::string_view a, std::string_view b,
                         MetricScratch* scratch) {
  BuildCharMasks(a, scratch);
  const uint64_t last = uint64_t{1} << (a.size() - 1);
  uint64_t pv = ~uint64_t{0};
  uint64_t mv = 0;
  size_t score = a.size();
  for (char c : b) {
    const uint64_t eq = scratch->char_masks[static_cast<unsigned char>(c)];
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    if (ph & last) ++score;
    if (mh & last) --score;
    ph = (ph << 1) | 1;
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
  }
  ClearCharMasks(a, scratch);
  return score;
}

/// Two-row int32 DP fallback for remainders longer than 64 chars; identical
/// recurrence to EditDistance() (lengths fit int32 comfortably).
size_t DpEditDistance(std::string_view a, std::string_view b,
                      MetricScratch* scratch) {
  const size_t n = a.size();
  std::vector<int32_t>& prev = scratch->dp_prev;
  std::vector<int32_t>& cur = scratch->dp_cur;
  prev.resize(n + 1);
  cur.resize(n + 1);
  for (size_t i = 0; i <= n; ++i) prev[i] = static_cast<int32_t>(i);
  for (size_t j = 1; j <= b.size(); ++j) {
    cur[0] = static_cast<int32_t>(j);
    const char bc = b[j - 1];
    for (size_t i = 1; i <= n; ++i) {
      const int32_t sub = prev[i - 1] + (a[i - 1] == bc ? 0 : 1);
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return static_cast<size_t>(prev[n]);
}

/// Allison-Dix bit-parallel LLCS for |a| <= 64: V starts all-ones; each text
/// character clears one bit per LCS extension. LLCS = zero bits of V among
/// the low |a| positions.
size_t BitParallelLcs(std::string_view a, std::string_view b,
                      MetricScratch* scratch) {
  BuildCharMasks(a, scratch);
  uint64_t v = ~uint64_t{0};
  for (char c : b) {
    const uint64_t m = scratch->char_masks[static_cast<unsigned char>(c)];
    const uint64_t u = v & m;
    // u's bits are a subset of v's, so v - u == v & ~u (no borrows).
    v = (v + u) | (v - u);
  }
  ClearCharMasks(a, scratch);
  const uint64_t low = a.size() == 64 ? ~uint64_t{0}
                                      : (uint64_t{1} << a.size()) - 1;
  return a.size() - static_cast<size_t>(__builtin_popcountll(v & low));
}

/// Two-row int32 LCS DP fallback; identical recurrence to LcsRatio()'s.
size_t DpLcs(std::string_view a, std::string_view b, MetricScratch* scratch) {
  const size_t n = a.size();
  std::vector<int32_t>& prev = scratch->dp_prev;
  std::vector<int32_t>& cur = scratch->dp_cur;
  prev.assign(n + 1, 0);
  cur.assign(n + 1, 0);
  for (size_t j = 1; j <= b.size(); ++j) {
    const char bc = b[j - 1];
    for (size_t i = 1; i <= n; ++i) {
      cur[i] = a[i - 1] == bc ? prev[i - 1] + 1 : std::max(prev[i], cur[i - 1]);
    }
    std::swap(prev, cur);
  }
  return static_cast<size_t>(prev[n]);
}

/// The reference's Jaro formula, operation for operation.
double JaroFromCounts(size_t matches, size_t transpositions, size_t a_len,
                      size_t b_len) {
  const double m = static_cast<double>(matches);
  return (m / static_cast<double>(a_len) + m / static_cast<double>(b_len) +
          (m - static_cast<double>(transpositions) / 2.0) / m) /
         3.0;
}

/// The reference's match window: max(|a|, |b|) / 2 - 1, or 0 when both
/// strings are single characters.
size_t JaroWindow(std::string_view a, std::string_view b) {
  return a.size() > 1 || b.size() > 1 ? std::max(a.size(), b.size()) / 2 - 1
                                      : 0;
}

/// Bit-parallel greedy Jaro for non-empty a and 1 <= |b| <= 64, from b's
/// position masks. The reference scans b left to right from the window start
/// for the first unflagged equal char, so each a[i] takes the lowest set bit
/// of masks[a[i]] & window(i) & ~flagged: the same position. Its second pass
/// pairs the k-th matched char of a with the k-th flagged position of b; so
/// does the walk over `flagged` here. Same counts, same arithmetic.
double BitParallelJaro(std::string_view a, std::string_view b,
                       const uint64_t* masks) {
  const size_t window = JaroWindow(a, b);
  uint64_t flagged = 0;
  char matched[64] = {};  // a's matched chars in order; matches <= |b| <= 64
  size_t matches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const size_t lo = i > window ? i - window : 0;
    if (lo >= b.size()) break;  // lo only grows: no later window reaches b
    // Masks hold no bit at or above |b|, so only the reference's i + window
    // + 1 end needs masking here; lo < |b| <= 64 keeps both shifts in range.
    const size_t hi = i + window + 1;
    const uint64_t below_hi =
        hi >= 64 ? ~uint64_t{0} : (uint64_t{1} << hi) - 1;
    const uint64_t open = masks[static_cast<unsigned char>(a[i])] & below_hi &
                          (~uint64_t{0} << lo) & ~flagged;
    if (open == 0) continue;
    flagged |= open & (~open + 1);  // lowest set bit
    matched[matches++] = a[i];
  }
  if (matches == 0) return 0.0;
  size_t transpositions = 0;
  uint64_t rest = flagged;  // exactly `matches` bits, so never 0 below
  for (size_t k = 0; k < matches; ++k) {
    if (matched[k] != b[__builtin_ctzll(rest)]) ++transpositions;
    rest &= rest - 1;
  }
  return JaroFromCounts(matches, transpositions, a.size(), b.size());
}

/// Scalar greedy Jaro for non-empty a and b: the reference's two passes,
/// with the match flags in reusable byte buffers.
double ScalarJaro(std::string_view a, std::string_view b,
                  MetricScratch* scratch) {
  const size_t window = JaroWindow(a, b);
  scratch->a_flags.assign(a.size(), 0);
  scratch->b_flags.assign(b.size(), 0);
  size_t matches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = std::min(b.size(), i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (scratch->b_flags[j] || a[i] != b[j]) continue;
      scratch->a_flags[i] = scratch->b_flags[j] = 1;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!scratch->a_flags[i]) continue;
    while (!scratch->b_flags[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  return JaroFromCounts(matches, transpositions, a.size(), b.size());
}

/// Winkler's common-prefix boost (up to 4 chars, scale 0.1), as the
/// reference applies it.
double WinklerBoost(double jaro, std::string_view a, std::string_view b) {
  size_t prefix = 0;
  const size_t limit = std::min({a.size(), b.size(), static_cast<size_t>(4)});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * 0.1 * (1.0 - jaro);
}

}  // namespace

size_t EditDistanceFast(std::string_view a, std::string_view b,
                        MetricScratch* scratch) {
  StripCommonEnds(&a, &b);
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return b.size();
  if (a.size() <= 64) return MyersEditDistance(a, b, scratch);
  return DpEditDistance(a, b, scratch);
}

double NormalizedEditSimilarityFast(std::string_view a, std::string_view b,
                                    MetricScratch* scratch) {
  const size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 1.0;
  return 1.0 - static_cast<double>(EditDistanceFast(a, b, scratch)) /
                   static_cast<double>(max_len);
}

size_t LcsLengthFast(std::string_view a, std::string_view b,
                     MetricScratch* scratch) {
  const auto [prefix, suffix] = StripCommonEnds(&a, &b);
  const size_t border = prefix + suffix;
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return border;
  if (a.size() <= 64) return border + BitParallelLcs(a, b, scratch);
  return border + DpLcs(a, b, scratch);
}

double LcsRatioFast(std::string_view a, std::string_view b,
                    MetricScratch* scratch) {
  const size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  return static_cast<double>(LcsLengthFast(a, b, scratch)) /
         static_cast<double>(max_len);
}

double JaroSimilarityFast(std::string_view a, std::string_view b,
                          MetricScratch* scratch) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (b.size() > 64) return ScalarJaro(a, b, scratch);
  BuildCharMasks(b, scratch);
  const double jaro = BitParallelJaro(a, b, scratch->char_masks);
  ClearCharMasks(b, scratch);
  return jaro;
}

double JaroWinklerSimilarityFast(std::string_view a, std::string_view b,
                                 MetricScratch* scratch) {
  return WinklerBoost(JaroSimilarityFast(a, b, scratch), a, b);
}

double JaroWinklerAgainstMasks(std::string_view a, std::string_view b,
                               const MetricScratch& scratch) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  return WinklerBoost(BitParallelJaro(a, b, scratch.char_masks), a, b);
}

}  // namespace learnrisk
