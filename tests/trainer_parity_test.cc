// Copyright 2026 The LearnRisk Authors
// Oracles for the analytic training gradient on randomized models, for every
// risk metric: RiskScoreBatch values vs. the scalar scorer, its Jacobian rows
// vs. central finite differences, and one full trainer step (rank loss plus
// L1/L2) vs. central finite differences of the whole objective.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "common/random.h"
#include "risk/risk_model.h"
#include "risk/trainer.h"

namespace learnrisk {
namespace {

/// A randomized model over `num_rules` rules with expectations in
/// [0.15, 0.85] and perturbed raw parameters.
RiskModel RandomModel(size_t num_rules, uint64_t seed,
                      RiskMetric metric = RiskMetric::kVaR,
                      bool use_classifier_feature = true) {
  Rng rng(seed);
  std::vector<Rule> rules(num_rules);
  std::vector<double> expectations(num_rules);
  std::vector<size_t> support(num_rules);
  for (size_t j = 0; j < num_rules; ++j) {
    rules[j].predicates = {{j, "m", true, 0.5}};
    rules[j].label = rng.Bernoulli(0.5) ? RuleClass::kMatching
                                        : RuleClass::kUnmatching;
    expectations[j] = rng.Uniform(0.15, 0.85);
    support[j] = 10 + rng.Index(100);
  }
  RiskModelOptions options;
  options.metric = metric;
  options.use_classifier_feature = use_classifier_feature;
  RiskModel model(RiskFeatureSet::FromParts(std::move(rules),
                                            std::move(expectations),
                                            std::move(support)),
                  options);
  // Perturb every raw parameter away from its symmetric initialization.
  std::vector<double> theta = model.theta();
  std::vector<double> phi = model.phi();
  std::vector<double> phi_out = model.phi_out();
  for (double& t : theta) t += rng.Uniform(-1.0, 1.0);
  for (double& p : phi) p += rng.Uniform(-1.0, 1.0);
  for (double& p : phi_out) p += rng.Uniform(-1.0, 1.0);
  model.ApplyUpdate(theta, phi, model.alpha_raw() + rng.Uniform(-0.3, 0.3),
                    model.beta_raw() + rng.Uniform(-0.3, 0.3), phi_out);
  return model;
}

RiskActivation RandomActivation(size_t n, size_t num_rules, uint64_t seed) {
  Rng rng(seed);
  RiskActivation act;
  act.active.resize(n);
  act.classifier_output.resize(n);
  act.machine_label.resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < num_rules; ++j) {
      if (rng.Bernoulli(0.3)) act.active[i].push_back(
          static_cast<uint32_t>(j));
    }
    act.classifier_output[i] = rng.Uniform(0.1, 0.9);
    act.machine_label[i] = rng.Bernoulli(0.5) ? 1 : 0;
  }
  return act;
}

std::vector<double> FlatParams(const RiskModel& model) {
  std::vector<double> p;
  p.insert(p.end(), model.theta().begin(), model.theta().end());
  p.insert(p.end(), model.phi().begin(), model.phi().end());
  p.push_back(model.alpha_raw());
  p.push_back(model.beta_raw());
  p.insert(p.end(), model.phi_out().begin(), model.phi_out().end());
  return p;
}

void ApplyFlat(const std::vector<double>& p, RiskModel* model) {
  const size_t num_rules = model->num_rules();
  std::vector<double> theta(p.begin(), p.begin() + num_rules);
  std::vector<double> phi(p.begin() + num_rules,
                          p.begin() + 2 * num_rules);
  std::vector<double> phi_out(p.begin() + model->phi_out_offset(), p.end());
  model->ApplyUpdate(theta, phi, p[model->alpha_offset()],
                     p[model->beta_offset()], phi_out);
}

/// The scalar-path value RiskScoreBatch must reproduce for pair i: the VaR
/// for kVaR and kCVaR (CVaR trains on its VaR surrogate), the untruncated
/// portfolio mean for kExpectation.
double ScalarSurrogate(const RiskModel& model, const RiskActivation& act,
                       size_t i) {
  const std::vector<uint32_t>& active = act.active[i];
  const double output = act.classifier_output[i];
  const uint8_t label = act.machine_label[i];
  switch (model.options().metric) {
    case RiskMetric::kVaR:
      return model.RiskScore(active, output, label);
    case RiskMetric::kCVaR: {
      RiskModelOptions options = model.options();
      options.metric = RiskMetric::kVaR;
      RiskModel twin(model.features(), options);
      twin.ApplyUpdate(model.theta(), model.phi(), model.alpha_raw(),
                       model.beta_raw(), model.phi_out());
      return twin.RiskScore(active, output, label);
    }
    case RiskMetric::kExpectation: {
      const double mu = model.Distribution(active, output).mu;
      return label == 0 ? mu : 1.0 - mu;
    }
  }
  return 0.0;
}

struct ParityCase {
  RiskMetric metric;
  bool use_classifier_feature;
};

class GradientParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(GradientParity, AnalyticMatchesScalarAndFiniteDifferences) {
  const ParityCase c = GetParam();
  constexpr size_t kRules = 7;
  constexpr size_t kPairs = 24;
  for (uint64_t seed : {11u, 29u, 47u}) {
    RiskModel model =
        RandomModel(kRules, seed, c.metric, c.use_classifier_feature);
    RiskActivation act = RandomActivation(kPairs, kRules, seed + 1);
    std::vector<size_t> indices(kPairs);
    for (size_t i = 0; i < kPairs; ++i) indices[i] = i;

    RiskModel::BatchScore batch;
    model.RiskScoreBatch(act, indices, &batch);
    ASSERT_EQ(batch.num_params, model.num_params());

    const std::vector<double> base = FlatParams(model);
    for (size_t i = 0; i < kPairs; ++i) {
      EXPECT_NEAR(batch.value[i], ScalarSurrogate(model, act, i), 1e-12)
          << "pair " << i;

      const std::vector<double> jac = batch.DenseRow(i, kRules);
      for (size_t p = 0; p < batch.num_params; ++p) {
        // Analytic vs central finite differences of the batch value.
        const double h = 1e-5;
        RiskModel probe = model;
        std::vector<double> perturbed = base;
        RiskModel::BatchScore plus, minus;
        perturbed[p] = base[p] + h;
        ApplyFlat(perturbed, &probe);
        probe.RiskScoreBatch(act, {i}, &plus);
        perturbed[p] = base[p] - h;
        ApplyFlat(perturbed, &probe);
        probe.RiskScoreBatch(act, {i}, &minus);
        const double fd = (plus.value[0] - minus.value[0]) / (2.0 * h);
        EXPECT_NEAR(jac[p], fd, 1e-5 * std::max(1.0, std::fabs(fd)))
            << "pair " << i << " param " << p;
      }
    }
  }
}

const ParityCase kParityCases[] = {
    {RiskMetric::kVaR, true},         {RiskMetric::kVaR, false},
    {RiskMetric::kCVaR, true},        {RiskMetric::kCVaR, false},
    {RiskMetric::kExpectation, true}, {RiskMetric::kExpectation, false}};

std::string ParityCaseName(const ParityCase& c) {
  std::string name;
  switch (c.metric) {
    case RiskMetric::kVaR: name = "VaR"; break;
    case RiskMetric::kCVaR: name = "CVaR"; break;
    case RiskMetric::kExpectation: name = "Expectation"; break;
  }
  return name + (c.use_classifier_feature ? "" : "_NoOutput");
}

INSTANTIATE_TEST_SUITE_P(
    Metrics, GradientParity, ::testing::ValuesIn(kParityCases),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      return ParityCaseName(info.param);
    });

/// Mean rank loss softplus(gamma_cor - gamma_mis) over every (mislabeled,
/// correct) pair of the batch values, in mislabeled-major pair order.
double RankLoss(const RiskModel& model, const RiskActivation& act,
                const std::vector<uint8_t>& mislabeled) {
  std::vector<size_t> indices(act.size());
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  RiskModel::BatchScore batch;
  model.RiskScoreBatch(act, indices, &batch);
  double loss = 0.0;
  size_t pairs = 0;
  for (size_t a = 0; a < act.size(); ++a) {
    if (!mislabeled[a]) continue;
    for (size_t b = 0; b < act.size(); ++b) {
      if (mislabeled[b]) continue;
      loss += Softplus(batch.value[b] - batch.value[a]);
      ++pairs;
    }
  }
  return loss / static_cast<double>(pairs);
}

/// The trainer's full objective: the rank loss plus L1 and L2 on the
/// effective rule weights.
double FullObjective(const RiskModel& model, const RiskActivation& act,
                     const std::vector<uint8_t>& mislabeled, double l1,
                     double l2) {
  double reg = 0.0;
  for (double theta : model.theta()) {
    const double w = Softplus(theta);
    reg += l1 * w + l2 * w * w;
  }
  return RankLoss(model, act, mislabeled) + reg;
}

TEST(TrainingParity, FullGradientMatchesFiniteDifferences) {
  constexpr size_t kRules = 6;
  constexpr size_t kPairs = 80;
  RiskActivation act = RandomActivation(kPairs, kRules, 5);
  std::vector<uint8_t> mislabeled(kPairs);
  Rng rng(17);
  size_t num_mis = 0;
  for (size_t i = 0; i < kPairs; ++i) {
    mislabeled[i] = rng.Bernoulli(0.3) ? 1 : 0;
    num_mis += mislabeled[i];
  }
  const size_t num_cor = kPairs - num_mis;
  ASSERT_GT(num_mis, 0u);
  ASSERT_GT(num_cor, 0u);

  // One plain-GD epoch at learning rate 1 moves the parameters by exactly
  // minus the gradient. Caps at least as large as the pools enumerate every
  // (mislabeled, correct) pair, so the epoch draws nothing from the RNG.
  RiskTrainerOptions opts;
  opts.epochs = 1;
  opts.use_adam = false;
  opts.learning_rate = 1.0;
  opts.l1 = 0.03;
  opts.l2 = 0.02;
  opts.max_mislabeled_per_epoch = kPairs;
  opts.max_correct_per_epoch = kPairs;
  opts.max_rank_pairs = kPairs * kPairs;

  for (const ParityCase& c : kParityCases) {
    SCOPED_TRACE(ParityCaseName(c));
    const RiskModel before =
        RandomModel(kRules, 3, c.metric, c.use_classifier_feature);
    RiskModel after = before;
    RiskTrainer trainer(opts);
    ASSERT_TRUE(trainer.Train(&after, act, mislabeled).ok());
    EXPECT_EQ(trainer.stats().epochs, 1u);
    EXPECT_EQ(trainer.stats().rank_pairs, num_mis * num_cor);
    ASSERT_EQ(trainer.loss_history().size(), 1u);

    EXPECT_NEAR(trainer.loss_history()[0], RankLoss(before, act, mislabeled),
                1e-12);

    const std::vector<double> base = FlatParams(before);
    const std::vector<double> moved = FlatParams(after);
    for (size_t p = 0; p < base.size(); ++p) {
      const double grad = base[p] - moved[p];
      const double h = 1e-5;
      RiskModel probe = before;
      std::vector<double> perturbed = base;
      perturbed[p] = base[p] + h;
      ApplyFlat(perturbed, &probe);
      const double plus =
          FullObjective(probe, act, mislabeled, opts.l1, opts.l2);
      perturbed[p] = base[p] - h;
      ApplyFlat(perturbed, &probe);
      const double minus =
          FullObjective(probe, act, mislabeled, opts.l1, opts.l2);
      const double fd = (plus - minus) / (2.0 * h);
      EXPECT_NEAR(grad, fd, 1e-8 * std::max(1.0, std::fabs(fd)))
          << "param " << p;
    }
  }
}

TEST(TrainingParity, FastPathIsDeterministic) {
  constexpr size_t kRules = 5;
  RiskActivation act = RandomActivation(200, kRules, 8);
  std::vector<uint8_t> mislabeled(200);
  Rng rng(9);
  for (size_t i = 0; i < 200; ++i) mislabeled[i] = rng.Bernoulli(0.25);

  RiskTrainerOptions opts;
  opts.epochs = 40;
  RiskModel a = RandomModel(kRules, 2);
  RiskModel b = RandomModel(kRules, 2);
  RiskTrainer ta(opts);
  RiskTrainer tb(opts);
  ASSERT_TRUE(ta.Train(&a, act, mislabeled).ok());
  ASSERT_TRUE(tb.Train(&b, act, mislabeled).ok());
  EXPECT_EQ(a.theta(), b.theta());
  EXPECT_EQ(a.phi(), b.phi());
  EXPECT_EQ(ta.loss_history(), tb.loss_history());
}

}  // namespace
}  // namespace learnrisk
