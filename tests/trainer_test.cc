// Copyright 2026 The LearnRisk Authors
// Tests for the learning-to-rank risk trainer (Sec. 6.2): loss decreases,
// ranking improves, parameters adapt in the expected directions.

#include "risk/trainer.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "eval/roc.h"

namespace learnrisk {
namespace {

// Scenario: rule 0 is a *reliable* inequivalence indicator (its firing on a
// matching-labeled pair means mislabeled); rule 1 is pure noise. A trained
// model must upweight rule 0 relative to rule 1.
struct Scenario {
  RiskFeatureSet features;
  RiskActivation activation;
  std::vector<uint8_t> mislabeled;
};

Scenario MakeScenario(size_t n = 400, uint64_t seed = 3) {
  Rule good;
  good.predicates = {{0, "diff.good", true, 0.5}};
  good.label = RuleClass::kUnmatching;
  Rule noise;
  noise.predicates = {{1, "noise", true, 0.5}};
  noise.label = RuleClass::kUnmatching;

  // Build training stats: rule 0 fires on unmatches only; rule 1 on a random
  // half of everything.
  FeatureMatrix train(200, 2);
  std::vector<uint8_t> train_labels(200);
  Rng rng(seed);
  for (size_t i = 0; i < 200; ++i) {
    const bool match = i % 5 == 0;
    train_labels[i] = match ? 1 : 0;
    train.set(i, 0, !match && rng.Bernoulli(0.5) ? 1.0 : 0.0);
    train.set(i, 1, rng.Bernoulli(0.5) ? 1.0 : 0.0);
  }
  Scenario s{RiskFeatureSet::Build({good, noise}, train, train_labels), {}, {}};

  // Risk-training pairs: machine labels everything matching with p ~ 0.8;
  // pairs where rule 0 fires are in fact unmatches (mislabeled).
  s.activation.active.resize(n);
  s.activation.classifier_output.resize(n);
  s.activation.machine_label.resize(n);
  s.mislabeled.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const bool rule0 = rng.Bernoulli(0.25);
    const bool rule1 = rng.Bernoulli(0.5);
    if (rule0) s.activation.active[i].push_back(0);
    if (rule1) s.activation.active[i].push_back(1);
    s.activation.classifier_output[i] = 0.6 + 0.3 * rng.Uniform();
    s.activation.machine_label[i] = 1;
    s.mislabeled[i] = rule0 ? 1 : 0;
  }
  return s;
}

RiskTrainerOptions FastOptions() {
  RiskTrainerOptions opts;
  opts.epochs = 150;
  return opts;
}

TEST(TrainerTest, LossDecreases) {
  Scenario s = MakeScenario();
  RiskModel model(s.features);
  RiskTrainer trainer(FastOptions());
  ASSERT_TRUE(trainer.Train(&model, s.activation, s.mislabeled).ok());
  const auto& history = trainer.loss_history();
  ASSERT_GE(history.size(), 100u);
  // Epoch losses are noisy (rank pairs are resampled); compare the mean of
  // the first and last ten epochs.
  double head = 0.0;
  double tail = 0.0;
  for (size_t i = 0; i < 10; ++i) {
    head += history[i];
    tail += history[history.size() - 1 - i];
  }
  EXPECT_LT(tail, head);
}

TEST(TrainerTest, TrainingImprovesAuroc) {
  Scenario s = MakeScenario();
  RiskModel model(s.features);
  const double before = Auroc(model.Score(s.activation), s.mislabeled);
  RiskTrainer trainer(FastOptions());
  ASSERT_TRUE(trainer.Train(&model, s.activation, s.mislabeled).ok());
  const double after = Auroc(model.Score(s.activation), s.mislabeled);
  EXPECT_GT(after, before);
  EXPECT_GT(after, 0.9);
}

TEST(TrainerTest, ReliableRuleOutweighsNoiseRule) {
  Scenario s = MakeScenario();
  RiskModel model(s.features);
  RiskTrainer trainer(FastOptions());
  ASSERT_TRUE(trainer.Train(&model, s.activation, s.mislabeled).ok());
  EXPECT_GT(model.RuleWeight(0), model.RuleWeight(1));
}

TEST(TrainerTest, GeneralizesToHeldOutPairs) {
  Scenario train = MakeScenario(400, 3);
  Scenario test = MakeScenario(400, 99);
  RiskModel model(train.features);
  RiskTrainer trainer(FastOptions());
  ASSERT_TRUE(trainer.Train(&model, train.activation, train.mislabeled).ok());
  EXPECT_GT(Auroc(model.Score(test.activation), test.mislabeled), 0.85);
}

TEST(TrainerTest, NoMislabeledPairsIsNoOp) {
  Scenario s = MakeScenario();
  std::fill(s.mislabeled.begin(), s.mislabeled.end(), 0);
  RiskModel model(s.features);
  const std::vector<double> theta_before = model.theta();
  RiskTrainer trainer(FastOptions());
  ASSERT_TRUE(trainer.Train(&model, s.activation, s.mislabeled).ok());
  EXPECT_EQ(model.theta(), theta_before);
  EXPECT_TRUE(trainer.loss_history().empty());
}

TEST(TrainerTest, SizeMismatchRejected) {
  Scenario s = MakeScenario();
  s.mislabeled.pop_back();
  RiskModel model(s.features);
  RiskTrainer trainer(FastOptions());
  EXPECT_TRUE(trainer.Train(&model, s.activation, s.mislabeled)
                  .IsInvalidArgument());
}

TEST(TrainerTest, ZeroSamplingCapRejected) {
  // A zero cap leaves every epoch's pair sample empty, so its rank loss
  // would be 0/0; the trainer refuses instead of moving the model.
  Scenario s = MakeScenario();
  for (int cap = 0; cap < 3; ++cap) {
    RiskTrainerOptions opts = FastOptions();
    if (cap == 0) opts.max_mislabeled_per_epoch = 0;
    if (cap == 1) opts.max_correct_per_epoch = 0;
    if (cap == 2) opts.max_rank_pairs = 0;
    RiskModel model(s.features);
    const std::vector<double> theta_before = model.theta();
    RiskTrainer trainer(opts);
    EXPECT_TRUE(trainer.Train(&model, s.activation, s.mislabeled)
                    .IsInvalidArgument())
        << "cap " << cap;
    EXPECT_EQ(model.theta(), theta_before) << "cap " << cap;
    EXPECT_TRUE(trainer.loss_history().empty()) << "cap " << cap;
  }
}

TEST(TrainerTest, DeterministicGivenSeed) {
  Scenario s = MakeScenario();
  RiskModel a(s.features);
  RiskModel b(s.features);
  RiskTrainer ta(FastOptions());
  RiskTrainer tb(FastOptions());
  ASSERT_TRUE(ta.Train(&a, s.activation, s.mislabeled).ok());
  ASSERT_TRUE(tb.Train(&b, s.activation, s.mislabeled).ok());
  EXPECT_EQ(a.theta(), b.theta());
  EXPECT_EQ(a.phi(), b.phi());
}

TEST(TrainerTest, PlainGradientDescentAlsoLearns) {
  Scenario s = MakeScenario();
  RiskModel model(s.features);
  RiskTrainerOptions opts;
  opts.epochs = 400;
  opts.use_adam = false;
  opts.learning_rate = 0.05;
  RiskTrainer trainer(opts);
  ASSERT_TRUE(trainer.Train(&model, s.activation, s.mislabeled).ok());
  EXPECT_GT(Auroc(model.Score(s.activation), s.mislabeled), 0.85);
}

TEST(TrainerTest, RegularizationShrinksTotalWeightMass) {
  Scenario s = MakeScenario();
  RiskTrainerOptions strong = FastOptions();
  strong.l1 = 5e-2;
  strong.l2 = 5e-2;
  RiskModel reg_model(s.features);
  RiskTrainer reg_trainer(strong);
  ASSERT_TRUE(reg_trainer.Train(&reg_model, s.activation, s.mislabeled).ok());

  RiskTrainerOptions weak = FastOptions();
  weak.l1 = 0.0;
  weak.l2 = 0.0;
  RiskModel free_model(s.features);
  RiskTrainer free_trainer(weak);
  ASSERT_TRUE(
      free_trainer.Train(&free_model, s.activation, s.mislabeled).ok());

  const double reg_mass = reg_model.RuleWeight(0) + reg_model.RuleWeight(1);
  const double free_mass =
      free_model.RuleWeight(0) + free_model.RuleWeight(1);
  EXPECT_LT(reg_mass, free_mass);
  // The informative rule still dominates the noise rule under regularization.
  EXPECT_GT(reg_model.RuleWeight(0), reg_model.RuleWeight(1));
}

}  // namespace
}  // namespace learnrisk
