// Copyright 2026 The LearnRisk Authors
// Tests for the classifier substrate: MLP, logistic regression, ensembles.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "classifier/ensemble.h"
#include "classifier/logistic.h"
#include "classifier/mlp.h"
#include "common/math_util.h"
#include "common/random.h"

namespace learnrisk {

// Reads a trained MlpClassifier's parameters for the naive-forward oracle.
struct MlpClassifierPeer {
  // The one-neuron-at-a-time forward pass MlpClassifier::Forward replaced,
  // loop for loop: each neuron sums its bias, then w[i] * cur[i] for i
  // ascending, in per-row vectors.
  static double NaiveForward(const MlpClassifier& clf, const double* x) {
    std::vector<double> cur(clf.feature_mean_.size());
    for (size_t i = 0; i < cur.size(); ++i) {
      cur[i] = (x[i] - clf.feature_mean_[i]) / clf.feature_std_[i];
    }
    for (size_t l = 0; l < clf.layers_.size(); ++l) {
      const MlpClassifier::Layer& layer = clf.layers_[l];
      std::vector<double> next(layer.out, 0.0);
      for (size_t o = 0; o < layer.out; ++o) {
        double z = layer.b[o];
        const double* wrow = layer.w.data() + o * layer.in;
        for (size_t i = 0; i < layer.in; ++i) z += wrow[i] * cur[i];
        const bool is_output = l + 1 == clf.layers_.size();
        next[o] = is_output ? z : std::max(z, 0.0);
      }
      cur = std::move(next);
    }
    return Sigmoid(cur[0]);
  }
};

namespace {

// Linearly separable blobs.
void MakeBlobs(size_t n, FeatureMatrix* features, std::vector<uint8_t>* labels,
               uint64_t seed = 3) {
  *features = FeatureMatrix(n, 2);
  labels->resize(n);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const bool pos = i % 2 == 0;
    features->set(i, 0, rng.Normal(pos ? 2.0 : -2.0, 0.5));
    features->set(i, 1, rng.Normal(pos ? -1.0 : 1.0, 0.5));
    (*labels)[i] = pos ? 1 : 0;
  }
}

// XOR pattern: not linearly separable.
void MakeXor(size_t n, FeatureMatrix* features, std::vector<uint8_t>* labels) {
  *features = FeatureMatrix(n, 2);
  labels->resize(n);
  Rng rng(5);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.Bernoulli(0.5) ? 1.0 : 0.0;
    const double y = rng.Bernoulli(0.5) ? 1.0 : 0.0;
    features->set(i, 0, x + rng.Normal(0.0, 0.05));
    features->set(i, 1, y + rng.Normal(0.0, 0.05));
    (*labels)[i] = (x != y) ? 1 : 0;
  }
}

double Accuracy(const BinaryClassifier& clf, const FeatureMatrix& features,
                const std::vector<uint8_t>& labels) {
  const auto pred = clf.PredictAll(features);
  size_t correct = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    correct += pred[i] == labels[i] ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

TEST(MlpTest, LearnsLinearlySeparableData) {
  FeatureMatrix features;
  std::vector<uint8_t> labels;
  MakeBlobs(400, &features, &labels);
  MlpClassifier clf;
  ASSERT_TRUE(clf.Train(features, labels).ok());
  EXPECT_GT(Accuracy(clf, features, labels), 0.97);
}

TEST(MlpTest, LearnsXor) {
  FeatureMatrix features;
  std::vector<uint8_t> labels;
  MakeXor(600, &features, &labels);
  MlpOptions opts;
  opts.epochs = 150;
  MlpClassifier clf(opts);
  ASSERT_TRUE(clf.Train(features, labels).ok());
  EXPECT_GT(Accuracy(clf, features, labels), 0.95);
}

TEST(LogisticTest, CannotLearnXor) {
  FeatureMatrix features;
  std::vector<uint8_t> labels;
  MakeXor(600, &features, &labels);
  LogisticClassifier clf;
  ASSERT_TRUE(clf.Train(features, labels).ok());
  EXPECT_LT(Accuracy(clf, features, labels), 0.75);
}

TEST(LogisticTest, LearnsSeparableData) {
  FeatureMatrix features;
  std::vector<uint8_t> labels;
  MakeBlobs(400, &features, &labels);
  LogisticClassifier clf;
  ASSERT_TRUE(clf.Train(features, labels).ok());
  EXPECT_GT(Accuracy(clf, features, labels), 0.97);
}

TEST(MlpTest, ProbabilitiesInUnitInterval) {
  FeatureMatrix features;
  std::vector<uint8_t> labels;
  MakeBlobs(200, &features, &labels);
  MlpClassifier clf;
  ASSERT_TRUE(clf.Train(features, labels).ok());
  for (double p : clf.PredictProbaAll(features)) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(MlpTest, DeterministicForSameSeed) {
  FeatureMatrix features;
  std::vector<uint8_t> labels;
  MakeBlobs(200, &features, &labels);
  MlpOptions opts;
  opts.seed = 77;
  MlpClassifier a(opts);
  MlpClassifier b(opts);
  ASSERT_TRUE(a.Train(features, labels).ok());
  ASSERT_TRUE(b.Train(features, labels).ok());
  const auto pa = a.PredictProbaAll(features);
  const auto pb = b.PredictProbaAll(features);
  for (size_t i = 0; i < pa.size(); ++i) EXPECT_DOUBLE_EQ(pa[i], pb[i]);
}

// The four-neuron forward pass must round exactly as the naive one: same
// probability bits for layer widths with and without a remainder after the
// groups of four, no hidden layer at all, and 1 or 21 inputs.
TEST(MlpTest, PredictProbaMatchesNaiveForward) {
  const std::vector<std::vector<size_t>> shapes = {{},     {1},      {3},
                                                   {5, 7}, {32, 16}, {33, 17}};
  for (const size_t width : {size_t{1}, size_t{21}}) {
    constexpr size_t kRows = 300;
    FeatureMatrix features(kRows, width);
    std::vector<uint8_t> labels(kRows);
    Rng rng(31 + width);
    for (size_t r = 0; r < kRows; ++r) {
      double sum = 0.0;
      for (size_t c = 0; c < width; ++c) {
        const double v = rng.Normal(0.0, 1.0 + static_cast<double>(c % 3));
        features.set(r, c, v);
        sum += c % 2 == 0 ? v : -0.5 * v;
      }
      labels[r] = sum + rng.Normal(0.0, 0.5) > 0.0 ? 1 : 0;
    }
    for (const std::vector<size_t>& hidden : shapes) {
      MlpOptions opts;
      opts.hidden = hidden;
      opts.epochs = 5;
      opts.seed = 3 + hidden.size();
      MlpClassifier clf(opts);
      ASSERT_TRUE(clf.Train(features, labels).ok());
      for (size_t r = 0; r < kRows; ++r) {
        const double fast = clf.PredictProba(features.row(r), width);
        const double naive =
            MlpClassifierPeer::NaiveForward(clf, features.row(r));
        ASSERT_EQ(std::memcmp(&fast, &naive, sizeof(double)), 0)
            << "width " << width << ", " << hidden.size()
            << " hidden layers, row " << r << ": " << fast << " vs " << naive;
      }
    }
  }
}

TEST(MlpTest, RejectsMismatchedInputs) {
  FeatureMatrix features(10, 2);
  std::vector<uint8_t> labels(5, 0);
  MlpClassifier clf;
  EXPECT_TRUE(clf.Train(features, labels).IsInvalidArgument());
  EXPECT_TRUE(clf.Train(FeatureMatrix(), {}).IsInvalidArgument());
}

TEST(MlpTest, ClassWeightingRecoversRareClass) {
  // 2% positives: an unweighted learner could get high accuracy predicting
  // all-negative; class weighting must recover positive recall.
  FeatureMatrix features(1000, 1);
  std::vector<uint8_t> labels(1000);
  Rng rng(9);
  for (size_t i = 0; i < 1000; ++i) {
    const bool pos = i < 20;
    features.set(i, 0, rng.Normal(pos ? 1.5 : -0.5, 0.4));
    labels[i] = pos ? 1 : 0;
  }
  MlpClassifier clf;
  ASSERT_TRUE(clf.Train(features, labels).ok());
  const auto pred = clf.PredictAll(features);
  size_t tp = 0;
  for (size_t i = 0; i < 20; ++i) tp += pred[i];
  EXPECT_GT(tp, 15u);
}

TEST(MlpTest, FinalLossDecreasesWithTraining) {
  FeatureMatrix features;
  std::vector<uint8_t> labels;
  MakeBlobs(300, &features, &labels);
  MlpOptions short_opts;
  short_opts.epochs = 1;
  MlpClassifier short_clf(short_opts);
  ASSERT_TRUE(short_clf.Train(features, labels).ok());
  MlpOptions long_opts;
  long_opts.epochs = 50;
  MlpClassifier long_clf(long_opts);
  ASSERT_TRUE(long_clf.Train(features, labels).ok());
  EXPECT_LT(long_clf.final_loss(), short_clf.final_loss());
}

TEST(EnsembleTest, TrainsKMembers) {
  FeatureMatrix features;
  std::vector<uint8_t> labels;
  MakeBlobs(200, &features, &labels);
  BootstrapEnsemble ensemble(
      [](uint64_t seed) {
        MlpOptions opts;
        opts.seed = seed;
        opts.epochs = 10;
        return std::make_unique<MlpClassifier>(opts);
      },
      5, 13);
  ASSERT_TRUE(ensemble.Train(features, labels).ok());
  EXPECT_EQ(ensemble.size(), 5u);
}

TEST(EnsembleTest, VoteFractionIsKQuantized) {
  FeatureMatrix features;
  std::vector<uint8_t> labels;
  MakeBlobs(200, &features, &labels);
  BootstrapEnsemble ensemble(
      [](uint64_t seed) {
        MlpOptions opts;
        opts.seed = seed;
        opts.epochs = 10;
        return std::make_unique<MlpClassifier>(opts);
      },
      4, 13);
  ASSERT_TRUE(ensemble.Train(features, labels).ok());
  for (double v : ensemble.VoteFraction(features)) {
    // Only multiples of 1/4 possible (paper: 20 models -> 21 scores).
    EXPECT_NEAR(v * 4.0, std::round(v * 4.0), 1e-9);
  }
}

TEST(EnsembleTest, MeanProbaAgreesOnEasyData) {
  FeatureMatrix features;
  std::vector<uint8_t> labels;
  MakeBlobs(200, &features, &labels);
  BootstrapEnsemble ensemble(
      [](uint64_t seed) {
        MlpOptions opts;
        opts.seed = seed;
        opts.epochs = 30;
        return std::make_unique<MlpClassifier>(opts);
      },
      5, 13);
  ASSERT_TRUE(ensemble.Train(features, labels).ok());
  const auto mean = ensemble.MeanProba(features);
  size_t correct = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    correct += (mean[i] >= 0.5) == (labels[i] == 1) ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(correct) / labels.size(), 0.95);
}

TEST(EnsembleTest, DeterministicAcrossRuns) {
  FeatureMatrix features;
  std::vector<uint8_t> labels;
  MakeBlobs(100, &features, &labels);
  auto factory = [](uint64_t seed) {
    MlpOptions opts;
    opts.seed = seed;
    opts.epochs = 5;
    return std::make_unique<MlpClassifier>(opts);
  };
  BootstrapEnsemble a(factory, 4, 21);
  BootstrapEnsemble b(factory, 4, 21);
  ASSERT_TRUE(a.Train(features, labels).ok());
  ASSERT_TRUE(b.Train(features, labels).ok());
  EXPECT_EQ(a.VoteFraction(features), b.VoteFraction(features));
}

}  // namespace
}  // namespace learnrisk
