// Copyright 2026 The LearnRisk Authors
// Property sweeps over the VaR risk metric (Sec. 6.1): parameterized across
// distribution means, spreads and confidence levels, verifying range,
// monotonicity, CVaR dominance and scalar/batch agreement everywhere.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/math_util.h"
#include "risk/risk_model.h"

namespace learnrisk {
namespace {

RiskFeatureSet OneRuleSet(double expectation) {
  Rule rule;
  rule.predicates = {{0, "m", true, 0.5}};
  rule.label =
      expectation > 0.5 ? RuleClass::kMatching : RuleClass::kUnmatching;
  // Synthesize training data whose smoothed match rate lands on
  // `expectation`: n covered pairs, m matches, mu = (m+1)/(n+2).
  const size_t n = 98;
  const size_t m = static_cast<size_t>(std::lround(expectation * (n + 2))) - 1;
  FeatureMatrix train(n, 1);
  std::vector<uint8_t> labels(n);
  for (size_t i = 0; i < n; ++i) {
    train.set(i, 0, 1.0);
    labels[i] = i < m ? 1 : 0;
  }
  return RiskFeatureSet::Build({rule}, train, labels);
}

using VarCase = std::tuple<double, double, int>;  // output, theta*100, label

class VaRSweep : public ::testing::TestWithParam<VarCase> {};

TEST_P(VaRSweep, RiskInUnitRangeAndBatchAgrees) {
  const auto [output, theta100, label] = GetParam();
  RiskModelOptions opts;
  opts.var_confidence = theta100 / 100.0;
  RiskModel model(OneRuleSet(0.3), opts);
  for (const std::vector<uint32_t>& active :
       {std::vector<uint32_t>{}, std::vector<uint32_t>{0}}) {
    const double risk =
        model.RiskScore(active, output, static_cast<uint8_t>(label));
    EXPECT_GE(risk, 0.0);
    EXPECT_LE(risk, 1.0);
    RiskActivation act;
    act.active = {active};
    act.classifier_output = {output};
    act.machine_label = {static_cast<uint8_t>(label)};
    RiskModel::BatchScore batch;
    model.RiskScoreBatch(act, {0}, &batch);
    EXPECT_NEAR(batch.value[0], risk, 1e-9)
        << "output=" << output << " theta=" << theta100 << " label=" << label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, VaRSweep,
    ::testing::Combine(::testing::Values(0.02, 0.2, 0.45, 0.55, 0.8, 0.98),
                       ::testing::Values(60, 75, 90, 99),
                       ::testing::Values(0, 1)));

class ThetaMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(ThetaMonotonicity, RiskGrowsWithConfidenceForUnmatching) {
  // Higher confidence level looks further into the loss tail (Fig. 7).
  const double output = GetParam();
  double prev = -1.0;
  for (double theta : {0.5, 0.7, 0.9, 0.99}) {
    RiskModelOptions opts;
    opts.var_confidence = theta;
    RiskModel model(OneRuleSet(0.3), opts);
    const double risk = model.RiskScore({0}, output, 0);
    EXPECT_GE(risk, prev - 1e-12) << "theta=" << theta;
    prev = risk;
  }
}

INSTANTIATE_TEST_SUITE_P(Outputs, ThetaMonotonicity,
                         ::testing::Values(0.1, 0.3, 0.5));

class CvarDominance : public ::testing::TestWithParam<VarCase> {};

TEST_P(CvarDominance, CvarAtLeastVar) {
  const auto [output, theta100, label] = GetParam();
  RiskModelOptions var_opts;
  var_opts.var_confidence = theta100 / 100.0;
  RiskModelOptions cvar_opts = var_opts;
  cvar_opts.metric = RiskMetric::kCVaR;
  RiskModel var_model(OneRuleSet(0.4), var_opts);
  RiskModel cvar_model(OneRuleSet(0.4), cvar_opts);
  for (const std::vector<uint32_t>& active :
       {std::vector<uint32_t>{}, std::vector<uint32_t>{0}}) {
    EXPECT_GE(
        cvar_model.RiskScore(active, output, static_cast<uint8_t>(label)) +
            1e-9,
        var_model.RiskScore(active, output, static_cast<uint8_t>(label)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CvarDominance,
    ::testing::Combine(::testing::Values(0.1, 0.5, 0.9),
                       ::testing::Values(75, 90), ::testing::Values(0, 1)));

TEST(VaRContradictionTest, RuleExpectationDrivesRiskDirection) {
  // A matching-labeled pair: the lower the active rule's equivalence
  // expectation, the higher the risk.
  RiskModelOptions opts;
  double prev = 2.0;
  for (double expectation : {0.05, 0.3, 0.6, 0.9}) {
    RiskModel model(OneRuleSet(expectation), opts);
    const double risk = model.RiskScore({0}, 0.8, 1);
    EXPECT_LT(risk, prev) << "expectation=" << expectation;
    prev = risk;
  }
}

TEST(VaRContradictionTest, MirrorForUnmatchingLabel) {
  RiskModelOptions opts;
  double prev = -1.0;
  for (double expectation : {0.05, 0.3, 0.6, 0.9}) {
    RiskModel model(OneRuleSet(expectation), opts);
    const double risk = model.RiskScore({0}, 0.2, 0);
    EXPECT_GT(risk, prev) << "expectation=" << expectation;
    prev = risk;
  }
}

TEST(VaRFluctuationTest, HigherRsdRaisesUnmatchingRisk) {
  // The fluctuation term (Sec. 4.2): same expectations, larger feature
  // variance -> larger tail risk.
  RiskModelOptions low;
  low.init_rsd = 0.05;
  RiskModelOptions high;
  high.init_rsd = 0.6;
  RiskModel low_model(OneRuleSet(0.3), low);
  RiskModel high_model(OneRuleSet(0.3), high);
  EXPECT_GT(high_model.RiskScore({0}, 0.3, 0),
            low_model.RiskScore({0}, 0.3, 0));
}

}  // namespace
}  // namespace learnrisk
