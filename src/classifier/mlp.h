// Copyright 2026 The LearnRisk Authors
// Feed-forward neural network classifier: the in-repo stand-in for
// DeepMatcher (paper Sec. 7.1). ReLU hidden layers, sigmoid output, weighted
// binary cross-entropy (class weighting for ER's match/unmatch imbalance),
// Adam optimizer, mini-batch training with per-feature standardization.

#ifndef LEARNRISK_CLASSIFIER_MLP_H_
#define LEARNRISK_CLASSIFIER_MLP_H_

#include <cstdint>
#include <vector>

#include "classifier/classifier.h"
#include "common/random.h"

namespace learnrisk {

/// \brief MLP hyperparameters.
struct MlpOptions {
  /// Hidden layer widths; empty = logistic regression shape.
  std::vector<size_t> hidden = {32, 16};
  size_t epochs = 40;
  size_t batch_size = 64;
  double learning_rate = 1e-3;
  double l2 = 1e-4;
  /// Loss weight for positive (match) examples; 0 selects n_neg / n_pos.
  double positive_weight = 0.0;
  uint64_t seed = 1;
};

/// \brief Multi-layer perceptron with manual backprop and Adam.
class MlpClassifier : public BinaryClassifier {
 public:
  explicit MlpClassifier(MlpOptions options = {});

  Status Train(const FeatureMatrix& features,
               const std::vector<uint8_t>& labels) override;

  double PredictProba(const double* features, size_t n) const override;

  /// \brief Mean training loss of the final epoch (for convergence tests).
  double final_loss() const { return final_loss_; }

  const MlpOptions& options() const { return options_; }

 private:
  friend struct MlpClassifierPeer;  // reads the trained parameters in tests

  struct Layer {
    size_t in = 0;
    size_t out = 0;
    std::vector<double> w;  // out x in, row-major
    std::vector<double> b;  // out
    // Adam state.
    std::vector<double> mw, vw, mb, vb;
  };

  void InitLayers(size_t input_dim, Rng* rng);
  // Forward pass; activations[l] = post-activation of layer l (activations[0]
  // = standardized input), copied out when `acts` is non-null. Allocates
  // nothing itself: the layers run in a reusable per-thread buffer. Returns
  // the output probability.
  double Forward(const double* x, std::vector<std::vector<double>>* acts) const;

  MlpOptions options_;
  std::vector<Layer> layers_;
  std::vector<double> feature_mean_;
  std::vector<double> feature_std_;
  double final_loss_ = 0.0;
  size_t adam_step_ = 0;
};

}  // namespace learnrisk

#endif  // LEARNRISK_CLASSIFIER_MLP_H_
