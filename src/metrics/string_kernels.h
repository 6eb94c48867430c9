// Copyright 2026 The LearnRisk Authors
// Allocation-free exact string kernels for the prepared featurization path.
//
// Each kernel computes *exactly* the same value as its reference counterpart
// in similarity.h (same integers, hence bit-identical derived doubles) but
// reuses caller-owned scratch buffers instead of allocating per call, and
// runs a bit-parallel exact algorithm at every length: one 64-bit word per
// text character when the pattern fits one word, W = ceil(n / 64) words
// otherwise. No kernel has an O(n*m) or scalar-scan path.
//
//  - EditDistanceFast: common prefix/suffix stripping (distance-preserving),
//    then Myers' bit-parallel algorithm on the shorter remainder: one word
//    for <= 64 chars, Hyyro's blocked form over W words beyond (each word's
//    horizontal +1/-1 delta at its last row carries into the next word).
//  - LcsLengthFast: prefix/suffix stripping (each stripped char is part of
//    some LCS), then the Allison-Dix bit-parallel LLCS recurrence, one word
//    for <= 64 chars, W words beyond (the addition carries across words).
//  - JaroSimilarityFast / JaroWinklerSimilarityFast: the reference's greedy
//    match, bit-parallel over per-char position masks of the searched
//    string b (each a[i] takes the lowest unflagged in-window match bit),
//    with the reference's transposition count and arithmetic; one word when
//    |b| <= 64, the window spread over W words beyond. The one-word match
//    is branch-free on the data: it runs a[i] up to the exact bound
//    min(|a|, |b| + window), stores a[i] into the next free match slot
//    whether or not it matched, and counts the match and each transposition
//    by adding a 0/1 comparison.
//    JaroWinklerAgainstMasks runs the one-word match against masks the
//    caller built once (BuildCharMasks), for one b compared with many a.
//
// Exactness is enforced by tests/prepared_parity_test.cc, which compares
// every kernel against the reference implementation on randomized inputs
// of up to 300 chars, including lengths around every word boundary.

#ifndef LEARNRISK_METRICS_STRING_KERNELS_H_
#define LEARNRISK_METRICS_STRING_KERNELS_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace learnrisk {

/// \brief Per-thread scratch for the prepared metric kernels. One instance
/// per worker thread; the kernels resize the buffers as needed and leave
/// `char_masks` and `block_masks` zeroed between calls, so a scratch can be
/// reused across any sequence of kernel invocations.
struct MetricScratch {
  std::vector<uint8_t> used;      ///< entity-matching "already paired" flags
  std::vector<double> row_best;   ///< Monge-Elkan per-left-token maxima
  /// Per-character position bitmasks of the current pattern for the
  /// one-word bit-parallel kernels (edit distance, LCS, Jaro). Kernels zero
  /// only the entries they touched, so the array stays clean without a 2KB
  /// memset per call.
  uint64_t char_masks[256] = {};
  /// Position masks of a pattern over 64 chars for the multi-word kernels:
  /// 256 rows of `block_masks.size() / 256` words, character c's row first.
  /// Kept zero like `char_masks`; it grows (zeroed) only when a pattern
  /// needs more words than it holds.
  std::vector<uint64_t> block_masks;
  /// Per-word state of the multi-word kernels: VP and VN (edit distance),
  /// V (LCS), or b's and a's match flags (Jaro).
  std::vector<uint64_t> block_a;
  std::vector<uint64_t> block_b;
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
