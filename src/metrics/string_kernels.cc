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

/// Builds the multi-word position masks of `pattern` into
/// scratch->block_masks (bit i % 64 of entry c * stride + i / 64 is set iff
/// pattern[i] == c) and returns the stride, the words per character. The
/// table is all-zero on entry: it grows, zeroed, only when a pattern needs
/// more words than it holds, and ClearBlockMasks zeroes the entries this set.
size_t BuildBlockMasks(std::string_view pattern, MetricScratch* scratch) {
  const size_t words = (pattern.size() + 63) / 64;
  std::vector<uint64_t>& table = scratch->block_masks;
  if (table.size() < 256 * words) table.assign(256 * words, 0);
  const size_t stride = table.size() / 256;
  for (size_t i = 0; i < pattern.size(); ++i) {
    table[static_cast<unsigned char>(pattern[i]) * stride + i / 64] |=
        uint64_t{1} << (i % 64);
  }
  return stride;
}

/// Zeroes the block_masks entries BuildBlockMasks(pattern) set.
void ClearBlockMasks(std::string_view pattern, size_t stride,
                     MetricScratch* scratch) {
  for (size_t i = 0; i < pattern.size(); ++i) {
    scratch->block_masks[static_cast<unsigned char>(pattern[i]) * stride +
                         i / 64] = 0;
  }
}

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

/// Myers' algorithm over W = ceil(|a| / 64) words for |a| > 64 (Hyyro's
/// blocked form). Each word is one 64-row block of the DP column; the
/// horizontal delta at a block's last row (+1, -1 or 0) enters the next
/// block as its top-row delta, a -1 acting as a match at the block's first
/// row. The score is tracked at row |a|, bit (|a| - 1) % 64 of the last
/// word; bits above it in that word never flow down into it.
size_t BlockedEditDistance(std::string_view a, std::string_view b,
                           MetricScratch* scratch) {
  const size_t words = (a.size() + 63) / 64;
  const size_t stride = BuildBlockMasks(a, scratch);
  std::vector<uint64_t>& vp = scratch->block_a;
  std::vector<uint64_t>& vn = scratch->block_b;
  vp.assign(words, ~uint64_t{0});
  vn.assign(words, 0);
  const uint64_t last = uint64_t{1} << ((a.size() - 1) % 64);
  size_t score = a.size();
  for (char c : b) {
    const uint64_t* peq =
        scratch->block_masks.data() + static_cast<unsigned char>(c) * stride;
    uint64_t hp_in = 1;  // row 0 of the DP grows by one per text char
    uint64_t hn_in = 0;
    for (size_t w = 0; w < words; ++w) {
      const uint64_t pv = vp[w];
      const uint64_t mv = vn[w];
      const uint64_t xv = peq[w] | mv;
      const uint64_t x = peq[w] | hn_in;
      const uint64_t d0 = (((x & pv) + pv) ^ pv) | x | mv;
      uint64_t ph = mv | ~(d0 | pv);
      uint64_t mh = pv & d0;
      if (w + 1 == words) {
        if (ph & last) ++score;
        if (mh & last) --score;
      }
      const uint64_t hp_out = ph >> 63;
      const uint64_t hn_out = mh >> 63;
      ph = (ph << 1) | hp_in;
      mh = (mh << 1) | hn_in;
      vp[w] = mh | ~(xv | ph);
      vn[w] = ph & xv;
      hp_in = hp_out;
      hn_in = hn_out;
    }
  }
  ClearBlockMasks(a, stride, scratch);
  return score;
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

/// Allison-Dix LLCS over W = ceil(|a| / 64) words for |a| > 64. The
/// addition V + U carries from word to word; V - U needs no borrow (U is a
/// subset of V), so it stays word-local. Bits above |a| in the last word
/// take carries but never pass one down; they are masked off at the count.
size_t BlockedLcs(std::string_view a, std::string_view b,
                  MetricScratch* scratch) {
  const size_t words = (a.size() + 63) / 64;
  const size_t stride = BuildBlockMasks(a, scratch);
  std::vector<uint64_t>& v = scratch->block_a;
  v.assign(words, ~uint64_t{0});
  for (char c : b) {
    const uint64_t* m =
        scratch->block_masks.data() + static_cast<unsigned char>(c) * stride;
    uint64_t carry = 0;
    for (size_t w = 0; w < words; ++w) {
      const uint64_t vw = v[w];
      const uint64_t u = vw & m[w];
      const uint64_t sum = vw + u;
      const uint64_t total = sum + carry;
      carry = (sum < vw) | (total < sum);
      v[w] = total | (vw - u);
    }
  }
  ClearBlockMasks(a, stride, scratch);
  const size_t tail = a.size() % 64;
  if (tail != 0) v[words - 1] &= (uint64_t{1} << tail) - 1;
  size_t ones = 0;
  for (size_t w = 0; w < words; ++w) {
    ones += static_cast<size_t>(__builtin_popcountll(v[w]));
  }
  return a.size() - ones;
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
///
/// Both loops are branch-free on the data: a miss still stores a[i] into
/// the next free `matched` slot (the next hit overwrites it) and adds 0 to
/// `matches`, and flagging the lowest bit of an empty `open` flags nothing.
double BitParallelJaro(std::string_view a, std::string_view b,
                       const uint64_t* masks) {
  const size_t window = JaroWindow(a, b);
  // From i = |b| + window on, the window starts at or past |b|: no a[i]
  // there can match.
  const size_t end = std::min(a.size(), b.size() + window);
  uint64_t flagged = 0;
  // a's matched chars in order. matches <= |b| <= 64, and a miss after the
  // 64th match stores into slot 64.
  char matched[65];
  size_t matches = 0;
  for (size_t i = 0; i < end; ++i) {
    // Masks hold no bit at or above |b|, so only the reference's i + window
    // + 1 end needs masking here; lo < |b| <= 64 keeps both shifts in range.
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = i + window + 1;
    const uint64_t below_hi =
        hi >= 64 ? ~uint64_t{0} : (uint64_t{1} << hi) - 1;
    const uint64_t open = masks[static_cast<unsigned char>(a[i])] & below_hi &
                          (~uint64_t{0} << lo) & ~flagged;
    flagged |= open & (~open + 1);  // lowest set bit, or nothing
    matched[matches] = a[i];
    matches += open != 0;
  }
  if (matches == 0) return 0.0;
  size_t transpositions = 0;
  uint64_t rest = flagged;  // exactly `matches` bits, so never 0 below
  for (size_t k = 0; k < matches; ++k) {
    transpositions += matched[k] != b[__builtin_ctzll(rest)];
    rest &= rest - 1;
  }
  return JaroFromCounts(matches, transpositions, a.size(), b.size());
}

/// Greedy Jaro for non-empty a and |b| > 64, over b's multi-word position
/// masks: BitParallelJaro's match with the window spread over the words
/// it covers. Each a[i] takes the lowest set bit of
/// masks[a[i]] & window(i) & ~flagged, scanning the window's words upward,
/// and marks i in a's flag words; transpositions pair a's flagged positions
/// with b's flagged positions in order, word by word.
double BlockedJaro(std::string_view a, std::string_view b,
                   MetricScratch* scratch) {
  const size_t window = JaroWindow(a, b);
  const size_t stride = BuildBlockMasks(b, scratch);
  std::vector<uint64_t>& b_flagged = scratch->block_a;
  std::vector<uint64_t>& a_flagged = scratch->block_b;
  b_flagged.assign((b.size() + 63) / 64, 0);
  a_flagged.assign((a.size() + 63) / 64, 0);
  size_t matches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const size_t lo = i > window ? i - window : 0;
    if (lo >= b.size()) break;  // lo only grows: no later window reaches b
    // The reference's window [lo, hi): lo cuts the first word it touches,
    // hi the last one unless it ends on a word boundary.
    const size_t hi = std::min(b.size(), i + window + 1);
    const uint64_t* masks =
        scratch->block_masks.data() + static_cast<unsigned char>(a[i]) * stride;
    for (size_t w = lo / 64; w <= (hi - 1) / 64; ++w) {
      uint64_t open = masks[w] & ~b_flagged[w];
      if (w == lo / 64) open &= ~uint64_t{0} << (lo % 64);
      if (w == (hi - 1) / 64 && hi % 64 != 0) {
        open &= (uint64_t{1} << (hi % 64)) - 1;
      }
      if (open == 0) continue;
      b_flagged[w] |= open & (~open + 1);  // lowest set bit
      a_flagged[i / 64] |= uint64_t{1} << (i % 64);
      ++matches;
      break;
    }
  }
  ClearBlockMasks(b, stride, scratch);
  if (matches == 0) return 0.0;
  size_t transpositions = 0;
  size_t bw = 0;
  uint64_t b_rest = b_flagged[0];
  for (size_t aw = 0; aw < a_flagged.size(); ++aw) {
    for (uint64_t a_rest = a_flagged[aw]; a_rest != 0; a_rest &= a_rest - 1) {
      // Both sides hold exactly `matches` flags, so b has one left here.
      while (b_rest == 0) b_rest = b_flagged[++bw];
      const size_t i = aw * 64 + static_cast<size_t>(__builtin_ctzll(a_rest));
      const size_t j = bw * 64 + static_cast<size_t>(__builtin_ctzll(b_rest));
      if (a[i] != b[j]) ++transpositions;
      b_rest &= b_rest - 1;
    }
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
  return BlockedEditDistance(a, b, scratch);
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
  return border + BlockedLcs(a, b, scratch);
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
  if (b.size() > 64) return BlockedJaro(a, b, scratch);
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
