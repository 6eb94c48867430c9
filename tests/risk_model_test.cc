// Copyright 2026 The LearnRisk Authors
// Tests for the risk model core: feature expectations, portfolio
// aggregation, VaR/CVaR scoring, batch-vs-scalar consistency, explanations.

#include "risk/risk_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/math_util.h"
#include "risk/risk_feature.h"

namespace learnrisk {
namespace {

// Two hand-made rules over a 2-column metric space:
//   rule 0 (matching):   m1 > 0.8
//   rule 1 (unmatching): m0 > 0.5
std::vector<Rule> TestRules() {
  Rule matching;
  matching.predicates = {{1, "sim", true, 0.8}};
  matching.label = RuleClass::kMatching;
  Rule unmatching;
  unmatching.predicates = {{0, "diff", true, 0.5}};
  unmatching.label = RuleClass::kUnmatching;
  return {matching, unmatching};
}

// Training data: rows 0-9 match (sim high, diff low), rows 10-29 unmatch.
void TrainData(FeatureMatrix* features, std::vector<uint8_t>* labels) {
  *features = FeatureMatrix(30, 2);
  labels->resize(30);
  for (size_t i = 0; i < 30; ++i) {
    const bool match = i < 10;
    features->set(i, 0, match ? 0.0 : 1.0);
    features->set(i, 1, match ? 0.9 : 0.2);
    (*labels)[i] = match ? 1 : 0;
  }
}

RiskFeatureSet TestFeatureSet() {
  FeatureMatrix features;
  std::vector<uint8_t> labels;
  TrainData(&features, &labels);
  return RiskFeatureSet::Build(TestRules(), features, labels);
}

TEST(RiskFeatureTest, ExpectationsAreSmoothedMatchRates) {
  RiskFeatureSet set = TestFeatureSet();
  ASSERT_EQ(set.num_rules(), 2u);
  // Rule 0 covers the 10 matches: (10+1)/(10+2).
  EXPECT_NEAR(set.expectation(0), 11.0 / 12.0, 1e-12);
  EXPECT_EQ(set.train_support(0), 10u);
  // Rule 1 covers the 20 unmatches: (0+1)/(20+2).
  EXPECT_NEAR(set.expectation(1), 1.0 / 22.0, 1e-12);
  EXPECT_EQ(set.train_support(1), 20u);
}

TEST(RiskFeatureTest, ActiveRulesAndCoverage) {
  RiskFeatureSet set = TestFeatureSet();
  double match_row[] = {0.0, 0.9};
  double unmatch_row[] = {1.0, 0.2};
  double nothing_row[] = {0.0, 0.2};
  EXPECT_EQ(set.ActiveRules(match_row), (std::vector<uint32_t>{0}));
  EXPECT_EQ(set.ActiveRules(unmatch_row), (std::vector<uint32_t>{1}));
  EXPECT_TRUE(set.ActiveRules(nothing_row).empty());

  FeatureMatrix test(2, 2);
  test.set(0, 0, 1.0);  // covered by rule 1
  test.set(1, 1, 0.1);  // covered by nothing
  EXPECT_DOUBLE_EQ(set.Coverage(test), 0.5);
}

TEST(RiskFeatureTest, MislabelFlags) {
  EXPECT_EQ(MislabelFlags({1, 0, 1}, {1, 1, 0}),
            (std::vector<uint8_t>{0, 1, 1}));
}

TEST(RiskFeatureTest, ComputeActivationBundlesEverything) {
  RiskFeatureSet set = TestFeatureSet();
  FeatureMatrix metrics(2, 2);
  metrics.set(0, 1, 0.9);
  metrics.set(1, 0, 0.9);
  RiskActivation act = ComputeActivation(set, metrics, {0.8, 0.3});
  EXPECT_EQ(act.size(), 2u);
  EXPECT_EQ(act.machine_label[0], 1);
  EXPECT_EQ(act.machine_label[1], 0);
  EXPECT_EQ(act.active[0], (std::vector<uint32_t>{0}));
  EXPECT_EQ(act.active[1], (std::vector<uint32_t>{1}));
}

TEST(RiskModelTest, DistributionIsWeightedAverageOfExpectations) {
  RiskModel model(TestFeatureSet());
  // No rules active: distribution centers on the classifier output.
  PairDistribution d = model.Distribution({}, 0.7);
  EXPECT_NEAR(d.mu, 0.7, 1e-9);
  // A low-expectation unmatching rule pulls mu down.
  PairDistribution with_rule = model.Distribution({1}, 0.7);
  EXPECT_LT(with_rule.mu, d.mu);
  // mu stays a valid probability (portfolio normalization).
  EXPECT_GE(with_rule.mu, 0.0);
  EXPECT_LE(with_rule.mu, 1.0);
}

TEST(RiskModelTest, InfluenceFunctionShape) {
  RiskModel model(TestFeatureSet());
  // Eq. 11: weight grows with distance from 0.5.
  EXPECT_LT(model.OutputWeight(0.5), model.OutputWeight(0.9));
  EXPECT_LT(model.OutputWeight(0.5), model.OutputWeight(0.1));
  EXPECT_NEAR(model.OutputWeight(0.1), model.OutputWeight(0.9), 1e-9);
  EXPECT_GT(model.OutputWeight(0.5), 0.0);
}

TEST(RiskModelTest, OutputBuckets) {
  RiskModelOptions opts;
  opts.output_buckets = 10;
  RiskModel model(TestFeatureSet(), opts);
  EXPECT_EQ(model.OutputBucket(0.0), 0u);
  EXPECT_EQ(model.OutputBucket(0.05), 0u);
  EXPECT_EQ(model.OutputBucket(0.55), 5u);
  EXPECT_EQ(model.OutputBucket(1.0), 9u);
}

TEST(RiskModelTest, VaRDetectsContradictedMachineLabel) {
  RiskModel model(TestFeatureSet());
  // Machine says matching (p=0.8) but the unmatching rule fires: risk must
  // exceed the no-rule case.
  const double contradicted = model.RiskScore({1}, 0.8, 1);
  const double plain = model.RiskScore({}, 0.8, 1);
  EXPECT_GT(contradicted, plain);
  // Machine says unmatching and the unmatching rule agrees: low risk.
  const double confirmed = model.RiskScore({1}, 0.1, 0);
  EXPECT_LT(confirmed, contradicted);
}

TEST(RiskModelTest, VaRMonotoneInOutputForEachLabel) {
  RiskModel model(TestFeatureSet());
  // Unmatching label: risk grows with the equivalence probability.
  EXPECT_LT(model.RiskScore({}, 0.1, 0), model.RiskScore({}, 0.45, 0));
  // Matching label: risk grows as the equivalence probability drops.
  EXPECT_LT(model.RiskScore({}, 0.9, 1), model.RiskScore({}, 0.55, 1));
}

TEST(RiskModelTest, ExpectationMetricIgnoresVariance) {
  RiskModelOptions opts;
  opts.metric = RiskMetric::kExpectation;
  RiskModel model(TestFeatureSet(), opts);
  PairDistribution d = model.Distribution({}, 0.3);
  EXPECT_NEAR(model.RiskScore({}, 0.3, 0),
              TruncatedNormalMean(d.mu, d.sigma, 0.0, 1.0), 1e-9);
}

TEST(RiskModelTest, CVaRAtLeastVaR) {
  RiskModelOptions var_opts;
  RiskModel var_model(TestFeatureSet(), var_opts);
  RiskModelOptions cvar_opts;
  cvar_opts.metric = RiskMetric::kCVaR;
  RiskModel cvar_model(TestFeatureSet(), cvar_opts);
  for (double p : {0.1, 0.3, 0.45}) {
    EXPECT_GE(cvar_model.RiskScore({}, p, 0) + 1e-9,
              var_model.RiskScore({}, p, 0));
  }
}

TEST(RiskModelTest, ScoreBatchMatchesSingle) {
  RiskModel model(TestFeatureSet());
  RiskActivation act;
  act.active = {{0}, {1}, {}};
  act.classifier_output = {0.9, 0.8, 0.2};
  act.machine_label = {1, 1, 0};
  const auto scores = model.Score(act);
  ASSERT_EQ(scores.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(scores[i],
                     model.RiskScore(act.active[i], act.classifier_output[i],
                                     act.machine_label[i]));
  }
}

TEST(RiskModelTest, BatchScoreMatchesScalarScore) {
  // Every (label, output, activation) combination as one batch.
  RiskActivation act;
  for (uint8_t label : {uint8_t{0}, uint8_t{1}}) {
    for (double p : {0.1, 0.5, 0.9}) {
      for (const std::vector<uint32_t>& active :
           {std::vector<uint32_t>{}, {0}, {1}, {0, 1}}) {
        act.active.push_back(active);
        act.classifier_output.push_back(p);
        act.machine_label.push_back(label);
      }
    }
  }
  std::vector<size_t> indices(act.size());
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;

  for (RiskMetric metric :
       {RiskMetric::kVaR, RiskMetric::kCVaR, RiskMetric::kExpectation}) {
    for (bool use_output : {true, false}) {
      RiskModelOptions options;
      options.metric = metric;
      options.use_classifier_feature = use_output;
      RiskModel model(TestFeatureSet(), options);
      // CVaR trains on its VaR surrogate: compare with a VaR twin.
      options.metric = RiskMetric::kVaR;
      const RiskModel var_twin(TestFeatureSet(), options);

      RiskModel::BatchScore batch;
      model.RiskScoreBatch(act, indices, &batch);
      for (size_t i = 0; i < act.size(); ++i) {
        const std::vector<uint32_t>& active = act.active[i];
        const double p = act.classifier_output[i];
        const uint8_t label = act.machine_label[i];
        double expected = 0.0;
        switch (metric) {
          case RiskMetric::kVaR:
            expected = model.RiskScore(active, p, label);
            break;
          case RiskMetric::kCVaR:
            expected = var_twin.RiskScore(active, p, label);
            break;
          case RiskMetric::kExpectation: {
            const double mu = model.Distribution(active, p).mu;
            expected = label == 0 ? mu : 1.0 - mu;
            break;
          }
        }
        EXPECT_NEAR(batch.value[i], expected, 1e-12)
            << "metric=" << static_cast<int>(metric)
            << " use_output=" << use_output << " p=" << p
            << " label=" << int{label} << " pair=" << i;
      }
    }
  }
}

TEST(RiskModelTest, ApplyUpdateChangesScores) {
  RiskModel model(TestFeatureSet());
  const double before = model.RiskScore({1}, 0.8, 1);
  std::vector<double> theta = model.theta();
  theta[1] += 3.0;  // crank the unmatching rule's weight
  model.ApplyUpdate(theta, model.phi(), model.alpha_raw(), model.beta_raw(),
                    model.phi_out());
  const double after = model.RiskScore({1}, 0.8, 1);
  EXPECT_GT(after, before);
}

TEST(RiskModelTest, ExplainRanksContributionsByWeight) {
  RiskModel model(TestFeatureSet());
  const auto contributions = model.Explain({0, 1}, 0.9, 10);
  ASSERT_EQ(contributions.size(), 3u);  // classifier output + 2 rules
  double total_weight = 0.0;
  for (size_t i = 0; i < contributions.size(); ++i) {
    total_weight += contributions[i].weight;
    if (i > 0) {
      EXPECT_GE(contributions[i - 1].weight, contributions[i].weight);
    }
  }
  EXPECT_NEAR(total_weight, 1.0, 1e-9);
}

TEST(RiskModelTest, ExplainTruncatesToTopK) {
  RiskModel model(TestFeatureSet());
  EXPECT_EQ(model.Explain({0, 1}, 0.9, 2).size(), 2u);
}

TEST(RiskModelTest, RsdBounded) {
  RiskModelOptions opts;
  opts.rsd_max = 0.8;
  RiskModel model(TestFeatureSet(), opts);
  for (size_t j = 0; j < model.num_rules(); ++j) {
    EXPECT_GT(model.RuleRsd(j), 0.0);
    EXPECT_LT(model.RuleRsd(j), 0.8);
  }
  EXPECT_GT(model.OutputRsd(0.5), 0.0);
  EXPECT_LT(model.OutputRsd(0.5), 0.8);
}

TEST(RiskModelTest, InitialParametersMatchOptions) {
  RiskModelOptions opts;
  opts.init_rule_weight = 2.0;
  opts.init_rsd = 0.3;
  RiskModel model(TestFeatureSet(), opts);
  EXPECT_NEAR(model.RuleWeight(0), 2.0, 1e-9);
  EXPECT_NEAR(model.RuleRsd(0), 0.3, 1e-9);
}

}  // namespace
}  // namespace learnrisk
