// Copyright 2026 The LearnRisk Authors
// Parity suite for the prepared featurization path: the record-level cache
// (PrepareRecord / SideStore) plus the scratch string kernels must be
// *bit-identical* to the raw reference path across every MetricKind,
// including empty / whitespace / punctuation-only / high-bit ("unicode-ish")
// / NaN-parsing numeric values and string lengths straddling the 64-char
// bit-parallel kernel boundary. Also covers the FeaturePipeline prepared
// entry points (over one SideStore and over a multi-store ShardedSideView)
// and the gateway's cache invalidation after AddRecord.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "classifier/logistic.h"
#include "common/random.h"
#include "data/generators.h"
#include "gateway/feature_pipeline.h"
#include "gateway/gateway.h"
#include "gateway/namespace_segments.h"
#include "metrics/metric_suite.h"
#include "metrics/prepared_record.h"
#include "metrics/similarity.h"
#include "metrics/string_kernels.h"
#include "risk/risk_feature.h"
#include "test_models.h"

namespace learnrisk {
namespace {

// Bitwise double equality (distinguishes -0.0/0.0, treats identical NaNs as
// equal) so "bit-identical" means exactly that.
::testing::AssertionResult BitEqual(double a, double b) {
  if (std::memcmp(&a, &b, sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "doubles differ: " << a << " vs " << b;
}

std::string RandomAsciiString(Rng* rng, size_t max_len) {
  static const char kAlphabet[] = "abcdeABC 01.,-";
  const size_t len = rng->Index(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out += kAlphabet[rng->Index(sizeof(kAlphabet) - 1)];
  }
  return out;
}

// Attribute values drawn from edge cases and random fragments: empty,
// whitespace-only, punctuation-only, numbers (including "nan"/"inf", which
// strtod parses), high-bit bytes, shared prefixes/suffixes, and strings
// around the 64-char bit-parallel boundary.
std::string RandomValue(Rng* rng) {
  switch (rng->Index(14)) {
    case 0: return "";
    case 1: return "   ";
    case 2: return "--- ,,, !!";
    case 3: return "nan";
    case 4: return "inf";
    case 5: return "1998";
    case 6: return "19.98e2";
    case 7: return "caf\xc3\xa9 r\xc3\xa9sum\xc3\xa9";
    case 8: return "very large data bases";
    case 9: return "vldb";
    case 10: return std::string(rng->Index(70) + 1, 'a') + "tail";
    case 11: {
      std::string s = RandomAsciiString(rng, 80);
      return "shared prefix " + s;
    }
    case 12: {
      std::string s = RandomAsciiString(rng, 80);
      return s + " shared suffix";
    }
    default: return RandomAsciiString(rng, 90);
  }
}

Record RandomRecord(Rng* rng, size_t width) {
  Record record;
  record.values.reserve(width);
  for (size_t a = 0; a < width; ++a) {
    std::string v = RandomValue(rng);
    if (rng->Bernoulli(0.25)) {
      // Comma-separated entity lists exercise the entity-set metrics.
      v += ", m franklin, michael j franklin";
    }
    record.values.push_back(std::move(v));
  }
  return record;
}

using testutil::MakeModel;  // synthetic perturbed-parameter risk models

// A suite applying every MetricKind to every attribute (metrics do not care
// about the attribute's semantic type).
MetricSuite AllKindsSuite(size_t width) {
  std::vector<Attribute> attrs;
  for (size_t a = 0; a < width; ++a) {
    attrs.push_back({"attr" + std::to_string(a), AttributeType::kText});
  }
  const Schema schema(std::move(attrs));
  static const MetricKind kAllKinds[] = {
      MetricKind::kEditSim,        MetricKind::kJaroWinkler,
      MetricKind::kTokenJaccard,   MetricKind::kNgramJaccard,
      MetricKind::kLcs,            MetricKind::kCosineTfIdf,
      MetricKind::kMongeElkan,     MetricKind::kOverlap,
      MetricKind::kContainment,    MetricKind::kNumericSim,
      MetricKind::kExact,          MetricKind::kNonSubstring,
      MetricKind::kNonPrefix,      MetricKind::kNonSuffix,
      MetricKind::kAbbrNonSubstring, MetricKind::kAbbrNonPrefix,
      MetricKind::kAbbrNonSuffix,  MetricKind::kDiffCardinality,
      MetricKind::kDistinctEntity, MetricKind::kDiffKeyToken,
      MetricKind::kNumericUnequal, MetricKind::kNotEqual,
  };
  std::vector<MetricSpec> specs;
  for (size_t a = 0; a < width; ++a) {
    for (MetricKind kind : kAllKinds) {
      specs.push_back(MetricSpec{
          a, kind,
          schema.attribute(a).name + "." + MetricKindToString(kind)});
    }
  }
  return MetricSuite::FromSpecs(schema, std::move(specs));
}

// Lengths around every 64-char word boundary the multi-word kernels cross,
// up to five words.
const size_t kWordBoundaryLengths[] = {0,   1,   63,  64,  65,  127, 128,
                                       129, 191, 192, 193, 256, 300};

std::string RandomLetters(Rng* rng, size_t len, size_t alphabet) {
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s += static_cast<char>('a' + rng->Index(alphabet));
  }
  return s;
}

// Seeded random pairs of length 0-300 over 1-8-letter alphabets. A third
// share a prefix and a suffix around independent middles, so the kernels'
// prefix/suffix stripping still leaves a remainder over 64 chars; a few are
// equal or one is a prefix of the other.
std::vector<std::pair<std::string, std::string>> MultiWordPairs(
    uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<std::pair<std::string, std::string>> pairs;
  pairs.reserve(count);
  for (size_t iter = 0; iter < count; ++iter) {
    const size_t alphabet = 1 + rng.Index(8);
    std::string a;
    std::string b;
    switch (rng.Index(6)) {
      case 0:
      case 1: {
        const std::string prefix = RandomLetters(&rng, rng.Index(40), alphabet);
        const std::string suffix = RandomLetters(&rng, rng.Index(40), alphabet);
        const size_t room = 300 - prefix.size() - suffix.size();
        a = prefix + RandomLetters(&rng, rng.Index(room + 1), alphabet) +
            suffix;
        b = prefix + RandomLetters(&rng, rng.Index(room + 1), alphabet) +
            suffix;
        break;
      }
      case 2:
        a = RandomLetters(&rng, rng.Index(301), alphabet);
        b = rng.Bernoulli(0.5) ? a : a.substr(0, rng.Index(a.size() + 1));
        break;
      default:
        a = RandomLetters(&rng, rng.Index(301), alphabet);
        b = RandomLetters(&rng, rng.Index(301), alphabet);
        break;
    }
    if (rng.Bernoulli(0.5)) std::swap(a, b);
    pairs.emplace_back(std::move(a), std::move(b));
  }
  return pairs;
}

TEST(StringKernelsTest, EditDistanceMatchesReference) {
  Rng rng(11);
  MetricScratch scratch;
  for (int iter = 0; iter < 4000; ++iter) {
    const std::string a = RandomValue(&rng);
    const std::string b = rng.Bernoulli(0.2) ? a : RandomValue(&rng);
    ASSERT_EQ(EditDistanceFast(a, b, &scratch), EditDistance(a, b))
        << "a='" << a << "' b='" << b << "'";
  }
  // Both sides across every word boundary: periodic strings with no common
  // end, then random ones over a 3-letter alphabet.
  for (size_t la : kWordBoundaryLengths) {
    for (size_t lb : kWordBoundaryLengths) {
      std::string a;
      std::string b;
      for (size_t i = 0; i < la; ++i) a += static_cast<char>('a' + i % 3);
      for (size_t i = 0; i < lb; ++i) b += static_cast<char>('b' + i % 4);
      ASSERT_EQ(EditDistanceFast(a, b, &scratch), EditDistance(a, b))
          << la << "x" << lb;
      a = RandomLetters(&rng, la, 3);
      b = RandomLetters(&rng, lb, 3);
      ASSERT_EQ(EditDistanceFast(a, b, &scratch), EditDistance(a, b))
          << "a='" << a << "' b='" << b << "'";
    }
  }
  for (const auto& [a, b] : MultiWordPairs(41, 20000)) {
    ASSERT_EQ(EditDistanceFast(a, b, &scratch), EditDistance(a, b))
        << "a='" << a << "' b='" << b << "'";
  }
}

TEST(StringKernelsTest, LcsMatchesReference) {
  Rng rng(13);
  MetricScratch scratch;
  for (int iter = 0; iter < 4000; ++iter) {
    const std::string a = RandomValue(&rng);
    const std::string b = rng.Bernoulli(0.2) ? a : RandomValue(&rng);
    ASSERT_TRUE(BitEqual(LcsRatioFast(a, b, &scratch), LcsRatio(a, b)))
        << "a='" << a << "' b='" << b << "'";
  }
  for (size_t la : kWordBoundaryLengths) {
    for (size_t lb : kWordBoundaryLengths) {
      std::string a;
      std::string b;
      for (size_t i = 0; i < la; ++i) a += static_cast<char>('a' + i % 5);
      for (size_t i = 0; i < lb; ++i) b += static_cast<char>('b' + i % 4);
      ASSERT_TRUE(BitEqual(LcsRatioFast(a, b, &scratch), LcsRatio(a, b)))
          << la << "x" << lb;
      a = RandomLetters(&rng, la, 3);
      b = RandomLetters(&rng, lb, 3);
      ASSERT_TRUE(BitEqual(LcsRatioFast(a, b, &scratch), LcsRatio(a, b)))
          << "a='" << a << "' b='" << b << "'";
    }
  }
  for (const auto& [a, b] : MultiWordPairs(43, 20000)) {
    ASSERT_TRUE(BitEqual(LcsRatioFast(a, b, &scratch), LcsRatio(a, b)))
        << "a='" << a << "' b='" << b << "'";
  }
}

TEST(StringKernelsTest, JaroWinklerMatchesReference) {
  Rng rng(17);
  MetricScratch scratch;
  for (int iter = 0; iter < 4000; ++iter) {
    const std::string a = RandomValue(&rng);
    const std::string b = rng.Bernoulli(0.2) ? a : RandomValue(&rng);
    ASSERT_TRUE(BitEqual(JaroWinklerSimilarityFast(a, b, &scratch),
                         JaroWinklerSimilarity(a, b)))
        << "a='" << a << "' b='" << b << "'";
  }
}

// The prepared Monge-Elkan kernel fills the token-pair Jaro-Winkler matrix
// once and reuses it for both directions, which is only bit-identical
// because greedy-window Jaro-Winkler is exactly symmetric. Lock that
// assumption in (it also holds exhaustively over short alphabets).
TEST(StringKernelsTest, JaroWinklerIsBitwiseSymmetric) {
  Rng rng(19);
  MetricScratch scratch;
  for (int iter = 0; iter < 4000; ++iter) {
    const std::string a = RandomValue(&rng);
    const std::string b = RandomValue(&rng);
    ASSERT_TRUE(BitEqual(JaroWinklerSimilarityFast(a, b, &scratch),
                         JaroWinklerSimilarityFast(b, a, &scratch)))
        << "a='" << a << "' b='" << b << "'";
  }
}

// The bit-parallel Jaro match must pick the same matches and count the same
// transpositions as the reference's scalar scan. Exhaustive over every
// ordered pair of strings of length 0-6 over {a,b,c}, where repeated
// characters make the greedy choice matter, then seeded random pairs of
// length 0-300 so both |a| and |b| cross up to four word boundaries (the
// searched string b picks the one-word or the multi-word match, whose
// windows span several words).
// JaroWinklerAgainstMasks runs the same match on masks built once per b.
TEST(StringKernelsTest, BitParallelJaroMatchesReferenceExhaustive) {
  std::vector<std::string> strings = {""};
  for (size_t begin = 0, len = 1; len <= 6; ++len) {
    const size_t end = strings.size();
    for (size_t s = begin; s < end; ++s) {
      for (const char c : {'a', 'b', 'c'}) strings.push_back(strings[s] + c);
    }
    begin = end;
  }
  ASSERT_EQ(strings.size(), 1093u);
  MetricScratch scratch;
  for (const std::string& b : strings) {
    BuildCharMasks(b, &scratch);
    for (const std::string& a : strings) {
      const double jw = JaroWinklerSimilarity(a, b);
      ASSERT_TRUE(BitEqual(JaroWinklerAgainstMasks(a, b, scratch), jw))
          << "a='" << a << "' b='" << b << "'";
    }
    ClearCharMasks(b, &scratch);
    for (const std::string& a : strings) {
      ASSERT_TRUE(BitEqual(JaroSimilarityFast(a, b, &scratch),
                           JaroSimilarity(a, b)))
          << "a='" << a << "' b='" << b << "'";
      ASSERT_TRUE(BitEqual(JaroWinklerSimilarityFast(a, b, &scratch),
                           JaroWinklerSimilarity(a, b)))
          << "a='" << a << "' b='" << b << "'";
    }
  }

  Rng rng(23);
  for (int iter = 0; iter < 20000; ++iter) {
    const size_t alphabet = 1 + rng.Index(8);
    const std::string a = RandomLetters(&rng, rng.Index(301), alphabet);
    const std::string b = rng.Bernoulli(0.1)
                              ? a.substr(0, rng.Index(a.size() + 1))
                              : RandomLetters(&rng, rng.Index(301), alphabet);
    ASSERT_TRUE(BitEqual(JaroSimilarityFast(a, b, &scratch),
                         JaroSimilarity(a, b)))
        << "a='" << a << "' b='" << b << "'";
    ASSERT_TRUE(BitEqual(JaroWinklerSimilarityFast(a, b, &scratch),
                         JaroWinklerSimilarity(a, b)))
        << "a='" << a << "' b='" << b << "'";
    if (b.size() <= 64) {
      BuildCharMasks(b, &scratch);
      ASSERT_TRUE(BitEqual(JaroWinklerAgainstMasks(a, b, scratch),
                           JaroWinklerSimilarity(a, b)))
          << "a='" << a << "' b='" << b << "'";
      ClearCharMasks(b, &scratch);
    }
  }
  // Masks are left clean: every entry was cleared after use.
  for (const uint64_t mask : scratch.char_masks) ASSERT_EQ(mask, 0u);
  for (const uint64_t mask : scratch.block_masks) ASSERT_EQ(mask, 0u);
}

// The one-word match stops at the first a[i] whose window starts past b,
// i = |b| + window, and stores every a[i] into the next free matched slot,
// match or not. Pairs with |a| in 65-300 and |b| in 1-64 whose a runs past
// that bound check the bound itself (the last a[i] before it can only match
// b's last char; half the pairs plant a char there that nothing else
// matches), and a 64-char b that a matches in full, followed by more of
// a, puts the miss stores one slot past the 64th match.
TEST(StringKernelsTest, BitParallelJaroLoopBoundAndFullMatch) {
  Rng rng(37);
  MetricScratch scratch;
  auto check = [&scratch](const std::string& a, const std::string& b) {
    const double jaro = JaroSimilarity(a, b);
    const double jw = JaroWinklerSimilarity(a, b);
    EXPECT_TRUE(BitEqual(JaroSimilarityFast(a, b, &scratch), jaro))
        << "a='" << a << "' b='" << b << "'";
    EXPECT_TRUE(BitEqual(JaroWinklerSimilarityFast(a, b, &scratch), jw))
        << "a='" << a << "' b='" << b << "'";
    BuildCharMasks(b, &scratch);
    EXPECT_TRUE(BitEqual(JaroWinklerAgainstMasks(a, b, scratch), jw))
        << "a='" << a << "' b='" << b << "'";
    ClearCharMasks(b, &scratch);
  };
  for (int iter = 0; iter < 4000; ++iter) {
    const size_t alphabet = 1 + rng.Index(4);
    const size_t a_len = 65 + rng.Index(236);
    // window = |a| / 2 - 1, so |a| > |b| + window iff |b| <= ceil(|a| / 2).
    const size_t b_max = std::min<size_t>(64, a_len - a_len / 2);
    std::string a = RandomLetters(&rng, a_len, alphabet);
    std::string b = RandomLetters(&rng, 1 + rng.Index(b_max), alphabet);
    if (iter % 2 == 0) {
      // b's last char occurs once in a, at the last i whose window reaches
      // it: only that i can match it.
      b.back() = 'z';
      a[b.size() + a.size() / 2 - 2] = 'z';
    }
    check(a, b);
  }
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t alphabet = 1 + rng.Index(8);
    const std::string b = RandomLetters(&rng, 64, alphabet);
    const std::string a =
        b + RandomLetters(&rng, 1 + rng.Index(236), 1 + rng.Index(8));
    // a[i] == b[i] for i < 64 takes b[i]: every earlier b position is
    // already flagged. So all 64 match and a has more chars to scan.
    ASSERT_DOUBLE_EQ(JaroSimilarity(a, b),
                     (64.0 / static_cast<double>(a.size()) + 2.0) / 3.0);
    check(a, b);
  }
}

// Scratch reuse across interleaved kernels must not leak state between
// calls: one-word patterns interleaved with 2- and 5-word ones (the
// multi-word mask table grows mid-sequence) give the same results as on a
// fresh scratch, and every mask entry is zero afterwards.
TEST(StringKernelsTest, ScratchReuseIsClean) {
  Rng rng(29);
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"abcabcabc", "xbcabcaby"}, {"zzzz", "qqqq"}, {"qzqz", "zqzq"}};
  for (size_t len : {100u, 300u, 40u, 120u, 257u, 64u}) {
    pairs.emplace_back("<" + RandomLetters(&rng, len, 4),
                       RandomLetters(&rng, len + rng.Index(20), 4) + ">");
  }
  struct Result {
    size_t edit;
    size_t lcs;
    double jaro;
  };
  std::vector<Result> expected;
  for (const auto& [a, b] : pairs) {
    MetricScratch fresh;
    expected.push_back({EditDistanceFast(a, b, &fresh),
                        LcsLengthFast(a, b, &fresh),
                        JaroWinklerSimilarityFast(a, b, &fresh)});
  }
  MetricScratch scratch;
  for (int round = 0; round < 10; ++round) {
    for (size_t k = 0; k < pairs.size(); ++k) {
      // Rotate the start so each pattern follows a different one per round.
      const size_t p = (k + static_cast<size_t>(round)) % pairs.size();
      const auto& [a, b] = pairs[p];
      ASSERT_EQ(EditDistanceFast(a, b, &scratch), expected[p].edit) << p;
      ASSERT_EQ(LcsLengthFast(a, b, &scratch), expected[p].lcs) << p;
      ASSERT_TRUE(BitEqual(JaroWinklerSimilarityFast(a, b, &scratch),
                           expected[p].jaro))
          << p;
    }
  }
  ASSERT_GE(scratch.block_masks.size(), 256u * 5);
  for (const uint64_t mask : scratch.char_masks) ASSERT_EQ(mask, 0u);
  for (const uint64_t mask : scratch.block_masks) ASSERT_EQ(mask, 0u);
}

// The prepared Monge-Elkan kernel fuses both directions into one pass over
// the right tokens, matching each right token's bit-parallel masks against
// every left token, with equal-token (1.0) and disjoint-mask (0.0)
// shortcuts. Randomized values with duplicated tokens and token lengths
// straddling the 64-char bit-parallel boundary stay bit-identical to the raw
// reference, also with one scratch reused across every evaluation.
TEST(PreparedParityTest, MongeElkanBitIdentical) {
  const Schema schema({{"text", AttributeType::kText}});
  const MetricSuite suite = MetricSuite::FromSpecs(
      schema, {MetricSpec{0, MetricKind::kMongeElkan, "text.monge_elkan"}});

  Rng rng(31);
  auto random_token = [&](size_t len) {
    std::string t;
    t.reserve(len);
    // Narrow alphabet: character masks overlap, so pairs reach the kernel
    // instead of the disjoint-mask shortcut.
    for (size_t i = 0; i < len; ++i) {
      t += static_cast<char>('a' + rng.Index(6));
    }
    return t;
  };
  auto random_value = [&] {
    static const size_t kLens[] = {1, 2, 3, 5, 8, 20, 63, 64, 65, 90};
    const size_t num_tokens = rng.Index(6) + 1;
    std::vector<std::string> tokens;
    for (size_t t = 0; t < num_tokens; ++t) {
      if (!tokens.empty() && rng.Bernoulli(0.3)) {
        tokens.push_back(tokens[rng.Index(tokens.size())]);  // duplicate
      } else {
        tokens.push_back(random_token(kLens[rng.Index(10)]));
      }
    }
    std::string v;
    for (const std::string& t : tokens) {
      if (!v.empty()) v += ' ';
      v += t;
    }
    return v;
  };

  MetricScratch scratch;  // reused throughout
  for (int iter = 0; iter < 300; ++iter) {
    Record left;
    left.values.push_back(random_value());
    Record right;
    right.values.push_back(rng.Bernoulli(0.2) ? left.values[0]
                                              : random_value());
    const double raw = suite.Evaluate(left, right, 0);
    const PreparedRecord pl = suite.PrepareRecord(left);
    const PreparedRecord pr = suite.PrepareRecord(right);
    ASSERT_TRUE(BitEqual(suite.EvaluatePrepared(pl, pr, 0, &scratch), raw))
        << "'" << left.values[0] << "' vs '" << right.values[0] << "'";
    // Re-evaluating on the same scratch stays exact (char_masks hygiene).
    ASSERT_TRUE(BitEqual(suite.EvaluatePrepared(pl, pr, 0, &scratch), raw));
  }

  // Deterministic boundary sweep: a shared token scores exactly 1.0 in both
  // directions next to long near-equal tokens at every bit-parallel kernel
  // boundary length, on either side.
  for (const size_t la : {1u, 4u, 63u, 64u, 65u, 128u}) {
    for (const size_t lb : {1u, 4u, 63u, 64u, 65u, 128u}) {
      Record left;
      left.values.push_back("common " + std::string(la, 'a'));
      Record right;
      right.values.push_back("common " + std::string(lb, 'a') + "b");
      const double raw = suite.Evaluate(left, right, 0);
      const PreparedRecord pl = suite.PrepareRecord(left);
      const PreparedRecord pr = suite.PrepareRecord(right);
      ASSERT_TRUE(BitEqual(suite.EvaluatePrepared(pl, pr, 0, &scratch), raw))
          << la << "x" << lb;
    }
  }
}

TEST(PreparedParityTest, AllKindsBitIdenticalFittedAndUnfitted) {
  constexpr size_t kWidth = 3;
  for (const bool fitted : {true, false}) {
    MetricSuite suite = AllKindsSuite(kWidth);
    Rng rng(fitted ? 101 : 202);
    if (fitted) {
      // Fit IDF tables on a random two-table corpus.
      auto left = std::make_shared<Table>(suite.schema());
      auto right = std::make_shared<Table>(suite.schema());
      for (int i = 0; i < 40; ++i) {
        ASSERT_TRUE(left->Append(RandomRecord(&rng, kWidth), i).ok());
        ASSERT_TRUE(right->Append(RandomRecord(&rng, kWidth), i).ok());
      }
      const Workload corpus("corpus", left, right, {});
      suite.Fit(corpus);
    }
    MetricScratch scratch;
    for (int iter = 0; iter < 300; ++iter) {
      const Record left = RandomRecord(&rng, kWidth);
      const Record right =
          rng.Bernoulli(0.15) ? left : RandomRecord(&rng, kWidth);
      const PreparedRecord prepared_left = suite.PrepareRecord(left);
      const PreparedRecord prepared_right = suite.PrepareRecord(right);
      std::vector<double> raw(suite.num_metrics());
      std::vector<double> prepared(suite.num_metrics());
      suite.EvaluatePairInto(left, right, raw.data());
      suite.EvaluatePairPreparedInto(prepared_left, prepared_right, &scratch,
                                     prepared.data());
      for (size_t m = 0; m < suite.num_metrics(); ++m) {
        ASSERT_TRUE(BitEqual(raw[m], prepared[m]))
            << suite.specs()[m].name << " on '" << left.values[0] << "'... ("
            << (fitted ? "fitted" : "unfitted") << ")";
      }
    }
  }
}

TEST(PreparedParityTest, ComputeFeaturesMatchesRawEvaluation) {
  GeneratorOptions options;
  options.scale = 0.02;
  options.seed = 5;
  Workload ds = GenerateDataset("DS", options).MoveValueOrDie();
  MetricSuite suite = MetricSuite::ForSchema(ds.left().schema());
  suite.Fit(ds);
  const FeatureMatrix features = ComputeFeatures(ds, suite);
  ASSERT_EQ(features.rows(), ds.size());
  for (size_t i = 0; i < ds.size(); i += 7) {
    const std::vector<double> raw =
        suite.EvaluatePair(ds.LeftRecord(i), ds.RightRecord(i));
    for (size_t m = 0; m < suite.num_metrics(); ++m) {
      ASSERT_TRUE(BitEqual(features.at(i, m), raw[m]))
          << "pair " << i << " metric " << suite.specs()[m].name;
    }
  }
}

TEST(PreparedParityTest, FeaturePipelinePreparedMatchesRaw) {
  GeneratorOptions options;
  options.scale = 0.02;
  options.seed = 9;
  Workload ds = GenerateDataset("DS", options).MoveValueOrDie();
  MetricSuite suite = MetricSuite::ForSchema(ds.left().schema());
  suite.Fit(ds);
  const FeatureMatrix features = ComputeFeatures(ds, suite);
  LogisticOptions logistic;
  logistic.epochs = 10;
  logistic.seed = 3;
  auto classifier = std::make_shared<LogisticClassifier>(logistic);
  ASSERT_TRUE(classifier->Train(features, ds.Labels()).ok());

  // Subset classifier columns exercise the gather path.
  std::vector<size_t> columns;
  for (size_t c = 0; c < suite.num_metrics(); c += 2) columns.push_back(c);
  const FeaturePipeline pipeline(suite, classifier, columns);
  const SideStore left = SideStore::Build(ds.left(), suite);
  const SideStore right = SideStore::Build(ds.right(), suite);

  auto raw = pipeline.Run(ds.left(), ds.right(), ds.pairs());
  auto prepared = pipeline.RunPrepared(left, right, ds.pairs());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(prepared.ok());
  ASSERT_EQ(raw->probs.size(), prepared->probs.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    ASSERT_TRUE(BitEqual(raw->probs[i], prepared->probs[i])) << i;
    for (size_t m = 0; m < suite.num_metrics(); ++m) {
      ASSERT_TRUE(BitEqual(raw->features.at(i, m), prepared->features.at(i, m)))
          << i << "," << m;
    }
  }

  // Probe path: an arbitrary left record against right-side candidates.
  const Record& probe = ds.left().record(0);
  std::vector<size_t> candidates;
  for (size_t c = 0; c < std::min<size_t>(ds.right().num_records(), 25); ++c) {
    candidates.push_back(c);
  }
  auto raw_probe = pipeline.RunProbe(probe, ds.right(), candidates);
  auto prepared_probe = pipeline.RunProbePrepared(pipeline.Prepare(probe),
                                                  right, candidates);
  ASSERT_TRUE(raw_probe.ok());
  ASSERT_TRUE(prepared_probe.ok());
  for (size_t i = 0; i < candidates.size(); ++i) {
    ASSERT_TRUE(BitEqual(raw_probe->probs[i], prepared_probe->probs[i])) << i;
  }

  // Out-of-range pairs are rejected against the prepared stores too.
  auto bad = pipeline.RunPrepared(left, right,
                                  {{ds.left().num_records(), 0, false}});
  EXPECT_TRUE(bad.status().IsOutOfRange());
}

// A SideStore's appended tail segment owns its record, and the prepared
// entry borrows that record's strings instead of deep-copying them
// (PreparedValue::raw is a view into the segment's own record); the borrowed
// entry still evaluates bit-identically to the raw path.
TEST(PreparedParityTest, SideStoreAppendBorrowsWithoutCopy) {
  GeneratorOptions options;
  options.scale = 0.02;
  options.seed = 13;
  Workload ds = GenerateDataset("DS", options).MoveValueOrDie();
  MetricSuite suite = MetricSuite::ForSchema(ds.left().schema());
  suite.Fit(ds);

  // Rebuild the right table minus its last record, then learn that record
  // through WithAppended.
  const Table& right = ds.right();
  ASSERT_GT(right.num_records(), 1u);
  const size_t last = right.num_records() - 1;
  Table head(right.schema());
  for (size_t i = 0; i < last; ++i) {
    ASSERT_TRUE(head.Append(right.record(i), right.entity_id(i)).ok());
  }
  const Record extra = right.record(last);

  const SideStore grown = SideStore::Build(head, suite).WithAppended(
      extra, right.entity_id(last), suite);
  ASSERT_EQ(grown.size(), right.num_records());
  ASSERT_EQ(grown.segment_count(), 2u);

  // Zero-copy: every populated raw view aliases the tail segment's own
  // record storage (no duplicated bytes).
  const PreparedRecord& appended = grown.prepared(last);
  const Record& stored = grown.record(last);
  size_t populated = 0;
  for (size_t a = 0; a < appended.values.size(); ++a) {
    const std::string_view raw = appended.values[a].raw;
    if (raw.empty()) continue;
    ++populated;
    EXPECT_EQ(raw.data(), stored.values[a].data())
        << "attribute " << a << " was copied, not borrowed";
  }
  EXPECT_GT(populated, 0u);  // the suite has character-level metrics

  // And the borrowed entry is bit-identical to the raw reference path.
  MetricScratch scratch;
  std::vector<double> prepared_row(suite.num_metrics());
  std::vector<double> raw_row(suite.num_metrics());
  const SideStore left = SideStore::Build(ds.left(), suite);
  for (size_t l = 0; l < std::min<size_t>(ds.left().num_records(), 25);
       ++l) {
    suite.EvaluatePairPreparedInto(left.prepared(l), appended, &scratch,
                                   prepared_row.data());
    suite.EvaluatePairInto(ds.left().record(l), extra, raw_row.data());
    for (size_t m = 0; m < suite.num_metrics(); ++m) {
      ASSERT_TRUE(BitEqual(prepared_row[m], raw_row[m]))
          << "left " << l << " metric " << suite.specs()[m].name;
    }
  }
}

// Shard `shard` of `num_shards` in the gateway's round-robin layout: the
// records whose global id (table index) is congruent to `shard`.
Table RoundRobinPart(const Table& table, size_t shard, size_t num_shards) {
  Table part(table.schema());
  for (size_t i = shard; i < table.num_records(); i += num_shards) {
    EXPECT_TRUE(part.Append(table.record(i), table.entity_id(i)).ok());
  }
  return part;
}

void ExpectBatchesBitEqual(const FeaturizedBatch& a, const FeaturizedBatch& b) {
  ASSERT_EQ(a.probs.size(), b.probs.size());
  ASSERT_EQ(a.features.cols(), b.features.cols());
  for (size_t i = 0; i < a.probs.size(); ++i) {
    ASSERT_TRUE(BitEqual(a.probs[i], b.probs[i])) << i;
    for (size_t m = 0; m < a.features.cols(); ++m) {
      ASSERT_TRUE(BitEqual(a.features.at(i, m), b.features.at(i, m)))
          << i << "," << m;
    }
  }
}

// A multi-store view addressed by global ids featurizes exactly like one
// SideStore holding the whole table, and its bounds check is exact per
// shard rather than a comparison against the total record count.
TEST(PreparedParityTest, ShardedViewMatchesSingleStore) {
  GeneratorOptions options;
  options.scale = 0.02;
  options.seed = 17;
  Workload ds = GenerateDataset("DS", options).MoveValueOrDie();
  MetricSuite suite = MetricSuite::ForSchema(ds.left().schema());
  suite.Fit(ds);
  const FeatureMatrix features = ComputeFeatures(ds, suite);
  LogisticOptions logistic;
  logistic.epochs = 10;
  logistic.seed = 5;
  auto classifier = std::make_shared<LogisticClassifier>(logistic);
  ASSERT_TRUE(classifier->Train(features, ds.Labels()).ok());
  const FeaturePipeline pipeline(suite, classifier);

  const SideStore whole_left = SideStore::Build(ds.left(), suite);
  const SideStore whole_right = SideStore::Build(ds.right(), suite);
  constexpr size_t kShards = 2;
  std::vector<SideStore> left_parts;
  std::vector<SideStore> right_parts;
  for (size_t k = 0; k < kShards; ++k) {
    left_parts.push_back(
        SideStore::Build(RoundRobinPart(ds.left(), k, kShards), suite));
    right_parts.push_back(
        SideStore::Build(RoundRobinPart(ds.right(), k, kShards), suite));
  }
  const ShardedSideView left_view({&left_parts[0], &left_parts[1]});
  const ShardedSideView right_view({&right_parts[0], &right_parts[1]});

  auto single = pipeline.RunPrepared(whole_left, whole_right, ds.pairs());
  auto sharded = pipeline.RunPrepared(left_view, right_view, ds.pairs());
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(sharded.ok());
  ASSERT_EQ(single->probs.size(), ds.size());
  ExpectBatchesBitEqual(*single, *sharded);

  const PreparedRecord probe = pipeline.Prepare(ds.left().record(0));
  std::vector<size_t> candidates;
  for (size_t c = 0; c < ds.right().num_records(); c += 3) {
    candidates.push_back(c);
  }
  auto single_probe =
      pipeline.RunProbePrepared(probe, whole_right, candidates);
  auto sharded_probe =
      pipeline.RunProbePrepared(probe, right_view, candidates);
  ASSERT_TRUE(single_probe.ok());
  ASSERT_TRUE(sharded_probe.ok());
  ExpectBatchesBitEqual(*single_probe, *sharded_probe);

  // Unbalanced shards of sizes 3 and 1 hold global ids {0, 2, 4} and {1}.
  // Global id 3 is below the total of 4, but shard 1 has no local index 1.
  Table three(ds.right().schema());
  Table one(ds.right().schema());
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(three.Append(ds.right().record(i), ds.right().entity_id(i))
                    .ok());
  }
  ASSERT_TRUE(one.Append(ds.right().record(3), ds.right().entity_id(3)).ok());
  const SideStore shard0 = SideStore::Build(three, suite);
  const SideStore shard1 = SideStore::Build(one, suite);
  const ShardedSideView unbalanced({&shard0, &shard1});
  EXPECT_TRUE(unbalanced.InRange(4));
  EXPECT_FALSE(unbalanced.InRange(3));
  EXPECT_TRUE(pipeline.RunPrepared(whole_left, unbalanced, {{0, 4, false}})
                  .ok());
  EXPECT_TRUE(pipeline.RunPrepared(whole_left, unbalanced, {{0, 3, false}})
                  .status()
                  .IsOutOfRange());
  EXPECT_TRUE(pipeline.RunProbePrepared(probe, unbalanced, {1, 4}).ok());
  EXPECT_TRUE(pipeline.RunProbePrepared(probe, unbalanced, {3})
                  .status()
                  .IsOutOfRange());
}

// After AddRecord, the namespace's prepared cache must include the new
// record: a gateway that grew online scores bit-identically to a gateway
// registered with the extended tables from scratch.
TEST(PreparedParityTest, GatewayCacheExtendedByAddRecord) {
  GeneratorOptions options;
  options.scale = 0.02;
  options.seed = 21;
  Workload ds = GenerateDataset("DS", options).MoveValueOrDie();
  MetricSuite suite = MetricSuite::ForSchema(ds.left().schema());
  suite.Fit(ds);
  const FeatureMatrix features = ComputeFeatures(ds, suite);
  LogisticOptions logistic;
  logistic.epochs = 10;
  logistic.seed = 4;
  auto classifier = std::make_shared<LogisticClassifier>(logistic);
  ASSERT_TRUE(classifier->Train(features, ds.Labels()).ok());

  // Split off the last right-side record: gateway A learns it via AddRecord,
  // gateway B is registered with it already present.
  const size_t full_right = ds.right().num_records();
  ASSERT_GT(full_right, 1u);
  auto trimmed_right = std::make_shared<Table>(ds.right().schema());
  for (size_t i = 0; i + 1 < full_right; ++i) {
    ASSERT_TRUE(trimmed_right
                    ->Append(ds.right().record(i), ds.right().entity_id(i))
                    .ok());
  }
  const Record extra = ds.right().record(full_right - 1);
  const int64_t extra_entity = ds.right().entity_id(full_right - 1);

  auto make_spec = [&](std::shared_ptr<const Table> right) {
    NamespaceSpec spec;
    spec.left = ds.left_ptr();
    spec.right = std::move(right);
    spec.suite = suite;
    spec.classifier = classifier;
    return spec;
  };
  Gateway grown;
  ASSERT_TRUE(grown.RegisterNamespace("ds", make_spec(trimmed_right)).ok());
  Gateway reference;
  ASSERT_TRUE(reference.RegisterNamespace("ds", make_spec(ds.right_ptr())).ok());
  const RiskModel model = MakeModel(77, 16, suite.num_metrics());
  ASSERT_TRUE(grown.Publish("ds", model).ok());
  ASSERT_TRUE(reference.Publish("ds", model).ok());

  ASSERT_TRUE(
      grown.AddRecord("ds", BlockingSide::kRight, extra, extra_entity).ok());
  ASSERT_EQ(grown.NumRecords("ds", BlockingSide::kRight).ValueOrDie(),
            full_right);

  // Explicit pairs that all touch the appended record.
  ResolveRequest request;
  for (size_t l = 0; l < std::min<size_t>(ds.left().num_records(), 20); ++l) {
    request.pairs.push_back({l, full_right - 1, false});
  }
  auto grown_response = grown.Resolve("ds", request);
  auto reference_response = reference.Resolve("ds", request);
  ASSERT_TRUE(grown_response.ok()) << grown_response.status().ToString();
  ASSERT_TRUE(reference_response.ok());
  ASSERT_EQ(grown_response->scores.risk.size(), request.pairs.size());
  for (size_t i = 0; i < request.pairs.size(); ++i) {
    ASSERT_TRUE(BitEqual(grown_response->scores.risk[i],
                         reference_response->scores.risk[i]))
        << i;
  }

  // And the full candidate set agrees end to end after the add.
  ResolveRequest block_all;
  block_all.block_all = true;
  auto grown_all = grown.Resolve("ds", block_all);
  auto reference_all = reference.Resolve("ds", block_all);
  ASSERT_TRUE(grown_all.ok());
  ASSERT_TRUE(reference_all.ok());
  ASSERT_EQ(grown_all->pairs.size(), reference_all->pairs.size());
  for (size_t i = 0; i < grown_all->pairs.size(); ++i) {
    ASSERT_TRUE(
        BitEqual(grown_all->scores.risk[i], reference_all->scores.risk[i]))
        << i;
  }
}

}  // namespace
}  // namespace learnrisk
