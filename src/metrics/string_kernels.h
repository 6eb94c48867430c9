// Copyright 2026 The LearnRisk Authors
// Allocation-free exact string kernels for the prepared featurization path.
//
// Each kernel computes *exactly* the same value as its reference counterpart
// in similarity.h (same integers, hence bit-identical derived doubles) but
// reuses caller-owned scratch buffers instead of allocating per call, and
// uses asymptotically faster exact algorithms where they exist:
//
//  - EditDistanceFast: common prefix/suffix stripping (distance-preserving),
//    then Myers' bit-parallel algorithm (O(n) words for patterns <= 64
//    chars), falling back to a two-row int32 DP for longer remainders.
//  - LcsLengthFast: prefix/suffix stripping (each stripped char is part of
//    some LCS), then the Allison-Dix bit-parallel LLCS recurrence for
//    patterns <= 64 chars, int32 DP otherwise.
//  - JaroSimilarityFast / JaroWinklerSimilarityFast: the reference's greedy
//    match, bit-parallel when the searched string b is <= 64 chars (per-char
//    position masks of b; each a[i] takes the lowest unflagged in-window
//    match bit), with the reference's transposition count and arithmetic;
//    the scalar scan over reusable flag buffers otherwise.
//    JaroWinklerAgainstMasks runs the same bit-parallel match against masks
//    the caller built once (BuildCharMasks), for one b compared with many a.
//
// Exactness is enforced by tests/prepared_parity_test.cc, which compares
// every kernel against the reference implementation on randomized inputs
// including lengths around the 64-char bit-parallel boundary.

#ifndef LEARNRISK_METRICS_STRING_KERNELS_H_
#define LEARNRISK_METRICS_STRING_KERNELS_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace learnrisk {

/// \brief Per-thread scratch for the prepared metric kernels. One instance
/// per worker thread; the kernels resize the buffers as needed and leave
/// `char_masks` zeroed between calls, so a scratch can be reused across any
/// sequence of kernel invocations.
struct MetricScratch {
  std::vector<int32_t> dp_prev;   ///< DP row (edit distance / LCS fallback)
  std::vector<int32_t> dp_cur;    ///< DP row
  std::vector<uint8_t> a_flags;   ///< Jaro match flags, left side (|b| > 64)
  std::vector<uint8_t> b_flags;   ///< Jaro match flags, right side (|b| > 64)
  std::vector<uint8_t> used;      ///< entity-matching "already paired" flags
  std::vector<double> row_best;   ///< Monge-Elkan per-left-token maxima
  /// Per-character position bitmasks of the current pattern for the
  /// bit-parallel kernels (edit distance, LCS, Jaro). Kernels zero only the
  /// entries they touched, so the array stays clean without a 2KB memset
  /// per call.
  uint64_t char_masks[256] = {};
};

/// \brief Levenshtein distance; same integer as EditDistance().
size_t EditDistanceFast(std::string_view a, std::string_view b,
                        MetricScratch* scratch);

/// \brief Bit-identical to NormalizedEditSimilarity().
double NormalizedEditSimilarityFast(std::string_view a, std::string_view b,
                                    MetricScratch* scratch);

/// \brief Longest-common-subsequence length; same integer as the LcsRatio
/// DP computes internally.
size_t LcsLengthFast(std::string_view a, std::string_view b,
                     MetricScratch* scratch);

/// \brief Bit-identical to LcsRatio().
double LcsRatioFast(std::string_view a, std::string_view b,
                    MetricScratch* scratch);

/// \brief Bit-identical to JaroSimilarity().
double JaroSimilarityFast(std::string_view a, std::string_view b,
                          MetricScratch* scratch);

/// \brief Bit-identical to JaroWinklerSimilarity().
double JaroWinklerSimilarityFast(std::string_view a, std::string_view b,
                                 MetricScratch* scratch);

/// \brief Sets scratch->char_masks to the position masks of `pattern`
/// (|pattern| <= 64): bit j of char_masks[c] is set iff pattern[j] == c.
/// Undo with ClearCharMasks(pattern) before any other kernel runs on the
/// same scratch.
void BuildCharMasks(std::string_view pattern, MetricScratch* scratch);

/// \brief Zeroes the char_masks entries BuildCharMasks(pattern) set.
void ClearCharMasks(std::string_view pattern, MetricScratch* scratch);

/// \brief Bit-identical to JaroWinklerSimilarity(a, b) for |b| <= 64, with
/// b's masks already in scratch.char_masks (BuildCharMasks(b)). A caller
/// comparing many strings against one b builds its masks once.
double JaroWinklerAgainstMasks(std::string_view a, std::string_view b,
                               const MetricScratch& scratch);

}  // namespace learnrisk

#endif  // LEARNRISK_METRICS_STRING_KERNELS_H_
