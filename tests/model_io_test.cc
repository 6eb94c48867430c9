// Copyright 2026 The LearnRisk Authors
// Round-trip tests for risk-model persistence.

#include "risk/model_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/random.h"

namespace learnrisk {
namespace {

RiskModel TrainedModel() {
  Rule match_rule;
  match_rule.predicates = {{1, "title.jaccard", true, 0.8}};
  match_rule.label = RuleClass::kMatching;
  Rule unmatch_rule;
  unmatch_rule.predicates = {{0, "year.numeric_unequal", true, 0.5},
                             {2, "authors.distinct_entity", false, 0.3}};
  unmatch_rule.label = RuleClass::kUnmatching;
  FeatureMatrix train(40, 3);
  std::vector<uint8_t> labels(40);
  Rng rng(3);
  for (size_t i = 0; i < 40; ++i) {
    const bool match = i % 4 == 0;
    labels[i] = match ? 1 : 0;
    train.set(i, 0, match ? 0.0 : 1.0);
    train.set(i, 1, match ? 0.9 : 0.2);
    train.set(i, 2, rng.Uniform(0.0, 0.29));
  }
  RiskModelOptions options;
  options.var_confidence = 0.85;
  options.output_buckets = 7;
  RiskModel model(
      RiskFeatureSet::Build({match_rule, unmatch_rule}, train, labels),
      options);
  // Perturb parameters so persistence covers non-initial values.
  std::vector<double> theta = model.theta();
  std::vector<double> phi = model.phi();
  theta[0] += 0.7;
  phi[1] -= 0.4;
  std::vector<double> phi_out = model.phi_out();
  phi_out[3] += 0.2;
  model.ApplyUpdate(theta, phi, model.alpha_raw() + 0.1,
                    model.beta_raw() - 0.2, phi_out);
  return model;
}

TEST(ModelIoTest, TrainerOptionsRoundTrip) {
  RiskModel model = TrainedModel();
  RiskTrainerOptions trainer;
  trainer.epochs = 321;
  trainer.learning_rate = 5e-4;
  trainer.l1 = 2e-4;
  trainer.l2 = 3e-4;
  trainer.max_mislabeled_per_epoch = 128;
  trainer.max_correct_per_epoch = 512;
  trainer.max_rank_pairs = 4096;
  trainer.use_adam = false;
  trainer.seed = 99;

  const std::string text = SerializeRiskModel(model, &trainer);
  EXPECT_NE(text.find("trainer "), std::string::npos);

  RiskTrainerOptions restored;
  auto loaded = DeserializeRiskModel(text, &restored);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(restored.epochs, trainer.epochs);
  EXPECT_DOUBLE_EQ(restored.learning_rate, trainer.learning_rate);
  EXPECT_DOUBLE_EQ(restored.l1, trainer.l1);
  EXPECT_DOUBLE_EQ(restored.l2, trainer.l2);
  EXPECT_EQ(restored.max_mislabeled_per_epoch,
            trainer.max_mislabeled_per_epoch);
  EXPECT_EQ(restored.max_correct_per_epoch, trainer.max_correct_per_epoch);
  EXPECT_EQ(restored.max_rank_pairs, trainer.max_rank_pairs);
  EXPECT_EQ(restored.use_adam, trainer.use_adam);
  EXPECT_EQ(restored.seed, trainer.seed);
}

TEST(ModelIoTest, LegacyUseTapeSlotIsReadAndDiscarded) {
  RiskModel model = TrainedModel();
  RiskTrainerOptions trainer;
  trainer.epochs = 321;
  trainer.max_rank_pairs = 4096;
  trainer.use_adam = true;
  trainer.seed = 99;
  std::string text = SerializeRiskModel(model, &trainer);

  // Writers put a literal 0 in the retired use_tape slot, between use_adam
  // and the seed, as older versions did for the default trainer.
  const std::string slot = " 1 0 99\n";
  const size_t at = text.find(slot);
  ASSERT_NE(at, std::string::npos) << text;
  ASSERT_LT(at, text.find("params "));

  // A legacy payload written with use_tape = 1 loads with every other field
  // intact.
  text.replace(at, slot.size(), " 1 1 99\n");
  RiskTrainerOptions restored;
  auto loaded = DeserializeRiskModel(text, &restored);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(restored.epochs, trainer.epochs);
  EXPECT_DOUBLE_EQ(restored.learning_rate, trainer.learning_rate);
  EXPECT_DOUBLE_EQ(restored.l1, trainer.l1);
  EXPECT_DOUBLE_EQ(restored.l2, trainer.l2);
  EXPECT_EQ(restored.max_mislabeled_per_epoch,
            trainer.max_mislabeled_per_epoch);
  EXPECT_EQ(restored.max_correct_per_epoch, trainer.max_correct_per_epoch);
  EXPECT_EQ(restored.max_rank_pairs, trainer.max_rank_pairs);
  EXPECT_EQ(restored.use_adam, trainer.use_adam);
  EXPECT_EQ(restored.seed, trainer.seed);
  EXPECT_EQ(loaded->theta(), model.theta());
  EXPECT_EQ(loaded->phi(), model.phi());
  EXPECT_EQ(loaded->alpha_raw(), model.alpha_raw());
  EXPECT_EQ(loaded->beta_raw(), model.beta_raw());
  EXPECT_EQ(loaded->phi_out(), model.phi_out());
  // Re-serializing normalizes the slot back to 0.
  EXPECT_EQ(SerializeRiskModel(*loaded, &restored),
            SerializeRiskModel(model, &trainer));
}

TEST(ModelIoTest, PayloadWithoutTrainerRecordKeepsDefaults) {
  RiskModel model = TrainedModel();
  RiskTrainerOptions restored;
  restored.epochs = 1;  // canary value
  auto loaded = DeserializeRiskModel(SerializeRiskModel(model), &restored);
  ASSERT_TRUE(loaded.ok());
  // No trainer record in the payload: the out-param is left untouched.
  EXPECT_EQ(restored.epochs, 1u);
}

TEST(ModelIoTest, RoundTripPreservesScores) {
  RiskModel original = TrainedModel();
  auto restored = DeserializeRiskModel(SerializeRiskModel(original));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (double output : {0.05, 0.4, 0.6, 0.95}) {
    for (uint8_t label : {uint8_t{0}, uint8_t{1}}) {
      for (const std::vector<uint32_t>& active :
           {std::vector<uint32_t>{}, {0}, {1}, {0, 1}}) {
        EXPECT_NEAR(restored->RiskScore(active, output, label),
                    original.RiskScore(active, output, label), 1e-9);
      }
    }
  }
}

TEST(ModelIoTest, RoundTripPreservesStructure) {
  RiskModel original = TrainedModel();
  auto restored = DeserializeRiskModel(SerializeRiskModel(original));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_rules(), original.num_rules());
  EXPECT_EQ(restored->options().output_buckets,
            original.options().output_buckets);
  EXPECT_NEAR(restored->options().var_confidence, 0.85, 1e-12);
  for (size_t j = 0; j < original.num_rules(); ++j) {
    EXPECT_EQ(restored->features().rule(j).ConditionKey(),
              original.features().rule(j).ConditionKey());
    EXPECT_NEAR(restored->features().expectation(j),
                original.features().expectation(j), 1e-12);
    EXPECT_EQ(restored->features().train_support(j),
              original.features().train_support(j));
    EXPECT_NEAR(restored->RuleWeight(j), original.RuleWeight(j), 1e-12);
    EXPECT_NEAR(restored->RuleRsd(j), original.RuleRsd(j), 1e-12);
  }
}

TEST(ModelIoTest, FileRoundTrip) {
  RiskModel original = TrainedModel();
  const std::string path = ::testing::TempDir() + "/learnrisk_model.txt";
  ASSERT_TRUE(SaveRiskModel(original, path).ok());
  auto restored = LoadRiskModel(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_NEAR(restored->RiskScore({0, 1}, 0.7, 1),
              original.RiskScore({0, 1}, 0.7, 1), 1e-9);
  std::remove(path.c_str());
}

TEST(ModelIoTest, RejectsGarbage) {
  EXPECT_FALSE(DeserializeRiskModel("").ok());
  EXPECT_FALSE(DeserializeRiskModel("not a model\n").ok());
  EXPECT_FALSE(
      DeserializeRiskModel("learnrisk-model v1\nbogus record\n").ok());
  EXPECT_FALSE(
      DeserializeRiskModel("learnrisk-model v1\noptions 0.9 9 1 0 1\n").ok());
}

TEST(ModelIoTest, MissingPhiOutRejected) {
  EXPECT_FALSE(DeserializeRiskModel(
                   "learnrisk-model v1\noptions 0.9 0 1.0 10 1\n"
                   "params 0.0 1.0\n")
                   .ok());
}

TEST(ModelIoTest, MissingFileIsIOError) {
  auto loaded = LoadRiskModel("/nonexistent/model.txt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError());
}

TEST(ModelIoTest, TruncatedPayloadIsRejected) {
  const std::string text = SerializeRiskModel(TrainedModel());
  // Rules serialize last, so cutting into the tail leaves a half-written
  // rule record. It must be rejected, not silently dropped.
  ASSERT_GT(text.size(), 10u);
  EXPECT_FALSE(DeserializeRiskModel(text.substr(0, text.size() - 10)).ok());
}

TEST(ModelIoTest, TruncatedFileIsRejected) {
  const std::string path = ::testing::TempDir() + "/learnrisk_model_trunc.txt";
  ASSERT_TRUE(SaveRiskModel(TrainedModel(), path).ok());
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 10);
  EXPECT_FALSE(LoadRiskModel(path).ok());
  std::remove(path.c_str());
}

TEST(ModelIoTest, CorruptedRuleFieldIsRejected) {
  std::string text = SerializeRiskModel(TrainedModel());
  const size_t pos = text.find("\nrule ");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 6] = 'z';  // the rule's label field is no longer numeric
  EXPECT_FALSE(DeserializeRiskModel(text).ok());
}

TEST(ModelIoTest, CommentsAndBlankLinesIgnored) {
  RiskModel original = TrainedModel();
  std::string text = SerializeRiskModel(original);
  text += "\n# trailing comment\n\n";
  EXPECT_TRUE(DeserializeRiskModel(text).ok());
}

}  // namespace
}  // namespace learnrisk
