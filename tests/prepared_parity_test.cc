// Copyright 2026 The LearnRisk Authors
// Parity suite for the prepared featurization path: the record-level cache
// (PrepareRecord / PreparedTable) plus the scratch string kernels must be
// *bit-identical* to the raw reference path across every MetricKind,
// including empty / whitespace / punctuation-only / high-bit ("unicode-ish")
// / NaN-parsing numeric values and string lengths straddling the 64-char
// bit-parallel kernel boundary. Also covers the FeaturePipeline prepared
// entry points and the gateway's cache invalidation after AddRecord.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "classifier/logistic.h"
#include "common/random.h"
#include "data/generators.h"
#include "gateway/gateway.h"
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

TEST(StringKernelsTest, EditDistanceMatchesReference) {
  Rng rng(11);
  MetricScratch scratch;
  for (int iter = 0; iter < 4000; ++iter) {
    const std::string a = RandomValue(&rng);
    const std::string b = rng.Bernoulli(0.2) ? a : RandomValue(&rng);
    ASSERT_EQ(EditDistanceFast(a, b, &scratch), EditDistance(a, b))
        << "a='" << a << "' b='" << b << "'";
  }
  // Lengths straddling the 64-char bit-parallel boundary.
  for (size_t la : {0u, 1u, 63u, 64u, 65u, 128u}) {
    for (size_t lb : {0u, 1u, 63u, 64u, 65u, 128u}) {
      std::string a;
      std::string b;
      for (size_t i = 0; i < la; ++i) a += static_cast<char>('a' + i % 3);
      for (size_t i = 0; i < lb; ++i) b += static_cast<char>('b' + i % 4);
      ASSERT_EQ(EditDistanceFast(a, b, &scratch), EditDistance(a, b))
          << la << "x" << lb;
    }
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
  for (size_t la : {1u, 63u, 64u, 65u, 128u}) {
    std::string a;
    std::string b;
    for (size_t i = 0; i < la; ++i) a += static_cast<char>('a' + i % 5);
    for (size_t i = 0; i < la + 7; ++i) b += static_cast<char>('a' + i % 4);
    ASSERT_TRUE(BitEqual(LcsRatioFast(a, b, &scratch), LcsRatio(a, b))) << la;
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

// The bit-parallel Jaro match (searched string b <= 64 chars) must pick the
// same matches and count the same transpositions as the reference's scalar
// scan. Exhaustive over every ordered pair of strings of length 0-6 over
// {a,b,c}, where repeated characters make the greedy choice matter, then
// seeded random pairs of length 0-130 so both |a| and |b| cross the 64-char
// boundary (|a| > 64 with |b| <= 64 takes the bit-parallel path).
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
  auto random_string = [&](size_t len, size_t alphabet) {
    std::string s;
    for (size_t i = 0; i < len; ++i) {
      s += static_cast<char>('a' + rng.Index(alphabet));
    }
    return s;
  };
  for (int iter = 0; iter < 20000; ++iter) {
    const size_t alphabet = 1 + rng.Index(8);
    const std::string a = random_string(rng.Index(131), alphabet);
    const std::string b = rng.Bernoulli(0.1)
                              ? a.substr(0, rng.Index(a.size() + 1))
                              : random_string(rng.Index(131), alphabet);
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
}

// Scratch reuse across interleaved kernels must not leak state between
// calls (char_masks hygiene).
TEST(StringKernelsTest, ScratchReuseIsClean) {
  MetricScratch scratch;
  const std::string a = "abcabcabc";
  const std::string b = "xbcabcaby";
  const size_t edit = EditDistanceFast(a, b, &scratch);
  const size_t lcs = LcsLengthFast(a, b, &scratch);
  for (int i = 0; i < 10; ++i) {
    EditDistanceFast("zzzz", "qqqq", &scratch);
    LcsLengthFast("qzqz", "zqzq", &scratch);
    ASSERT_EQ(EditDistanceFast(a, b, &scratch), edit);
    ASSERT_EQ(LcsLengthFast(a, b, &scratch), lcs);
  }
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
  const PreparedTable left = PreparedTable::Build(ds.left(), suite);
  const PreparedTable right = PreparedTable::Build(ds.right(), suite);

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

  // Out-of-range pairs are rejected against the prepared tables too.
  auto bad = pipeline.RunPrepared(left, right,
                                  {{ds.left().num_records(), 0, false}});
  EXPECT_TRUE(bad.status().IsOutOfRange());
}

// PreparedTable::Append borrows the appended record's strings instead of
// deep-copying them (PreparedValue::raw is a view into the caller-owned
// record), and the borrowed entry still evaluates bit-identically to the
// raw path.
TEST(PreparedParityTest, PreparedTableAppendBorrowsWithoutCopy) {
  GeneratorOptions options;
  options.scale = 0.02;
  options.seed = 13;
  Workload ds = GenerateDataset("DS", options).MoveValueOrDie();
  MetricSuite suite = MetricSuite::ForSchema(ds.left().schema());
  suite.Fit(ds);

  // Rebuild the right table minus its last record, then learn that record
  // through Append. The sources (head table + extra record) stay alive and
  // unmoved, per the borrow contract.
  const Table& right = ds.right();
  ASSERT_GT(right.num_records(), 1u);
  const size_t last = right.num_records() - 1;
  Table head(right.schema());
  for (size_t i = 0; i < last; ++i) {
    ASSERT_TRUE(head.Append(right.record(i), right.entity_id(i)).ok());
  }
  const Record extra = right.record(last);

  PreparedTable grown = PreparedTable::Build(head, suite);
  grown.Append(extra, suite);
  ASSERT_EQ(grown.size(), right.num_records());

  // Zero-copy: every populated raw view aliases the extra record's own
  // string storage (no duplicated bytes).
  const PreparedRecord& appended = grown.record(last);
  size_t populated = 0;
  for (size_t a = 0; a < appended.values.size(); ++a) {
    const std::string_view raw = appended.values[a].raw;
    if (raw.empty()) continue;
    ++populated;
    EXPECT_EQ(raw.data(), extra.values[a].data())
        << "attribute " << a << " was copied, not borrowed";
  }
  EXPECT_GT(populated, 0u);  // the suite has character-level metrics

  // And the borrowed entry is bit-identical to the raw reference path.
  MetricScratch scratch;
  std::vector<double> prepared_row(suite.num_metrics());
  std::vector<double> raw_row(suite.num_metrics());
  const PreparedTable left = PreparedTable::Build(ds.left(), suite);
  for (size_t l = 0; l < std::min<size_t>(ds.left().num_records(), 25);
       ++l) {
    suite.EvaluatePairPreparedInto(left.record(l), appended, &scratch,
                                   prepared_row.data());
    suite.EvaluatePairInto(ds.left().record(l), extra, raw_row.data());
    for (size_t m = 0; m < suite.num_metrics(); ++m) {
      ASSERT_TRUE(BitEqual(prepared_row[m], raw_row[m]))
          << "left " << l << " metric " << suite.specs()[m].name;
    }
  }
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
