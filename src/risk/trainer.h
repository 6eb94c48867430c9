// Copyright 2026 The LearnRisk Authors
// Risk-model training (paper Sec. 6.2): learning-to-rank with the pairwise
// cross-entropy loss of Eq. 13-15. For a (mislabeled, correctly-labeled)
// pair (i, j) the target posterior is 1, so the per-pair loss reduces to
// -log sigmoid(gamma_i - gamma_j) = softplus(gamma_j - gamma_i); minimizing
// it maximizes AUROC (Sec. 3). Parameters are updated by gradient descent
// (optionally Adam) with L1+L2 regularization on the feature weights.
//
// The gradient is analytic: the rank loss depends on the scores only through
// pairwise differences, so dL/dgamma_i is a weighted sum of
// sigmoid(gamma_j - gamma_i) terms. RiskModel::RiskScoreBatch evaluates all
// scores plus exact per-parameter jacobian rows in one batched pass, and the
// full gradient is a single jacobian-transpose multiply. trainer_parity_test
// checks it against central finite differences of the whole objective.

#ifndef LEARNRISK_RISK_TRAINER_H_
#define LEARNRISK_RISK_TRAINER_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "risk/risk_model.h"

namespace learnrisk {

/// \brief Optimization hyperparameters (paper defaults in comments).
struct RiskTrainerOptions {
  size_t epochs = 1000;         ///< Sec. 7.1: 1000
  double learning_rate = 1e-3;  ///< Sec. 6.2.3: 0.001
  double l1 = 1e-4;             ///< L1 on effective rule weights
  double l2 = 1e-4;             ///< L2 on effective rule weights
  /// Per-epoch sampling caps (DESIGN.md §6.5): the full loss enumerates all
  /// (mislabeled x correct) pairs; these bound epoch cost while keeping the
  /// objective unbiased in expectation. Each must be positive.
  size_t max_mislabeled_per_epoch = 256;
  size_t max_correct_per_epoch = 1024;
  size_t max_rank_pairs = 8192;
  /// Adam converges faster than plain GD at the paper's learning rate; set
  /// false for the paper-literal optimizer.
  bool use_adam = true;
  uint64_t seed = 13;
};

/// \brief Throughput/size counters from the last Train() call.
struct RiskTrainerStats {
  size_t epochs = 0;            ///< epochs actually run
  size_t rank_pairs = 0;        ///< rank pairs summed across epochs
  size_t scored_pairs = 0;      ///< risk-score evaluations across epochs
  double train_seconds = 0.0;   ///< wall clock inside Train()
  double EpochsPerSec() const {
    return train_seconds > 0.0 ? static_cast<double>(epochs) / train_seconds
                               : 0.0;
  }
  double PairsPerSec() const {
    return train_seconds > 0.0
               ? static_cast<double>(rank_pairs) / train_seconds
               : 0.0;
  }
};

/// \brief Trains a RiskModel on a labeled risk-training activation set.
class RiskTrainer {
 public:
  explicit RiskTrainer(RiskTrainerOptions options = {}) : options_(options) {}

  /// \brief Tunes `model` so mislabeled pairs (mislabeled[i] == 1) rank above
  /// correct ones. Requires at least one mislabeled and one correct pair;
  /// with fewer the model is left at its prior and OK is returned (the prior
  /// model is already usable, Sec. 7.4 trains from 100 pairs upward).
  /// Returns InvalidArgument when a per-epoch sampling cap is 0.
  Status Train(RiskModel* model, const RiskActivation& data,
               const std::vector<uint8_t>& mislabeled);

  /// \brief Mean sampled rank loss per epoch.
  const std::vector<double>& loss_history() const { return loss_history_; }

  /// \brief Counters from the last Train() call.
  const RiskTrainerStats& stats() const { return stats_; }

 private:
  RiskTrainerOptions options_;
  std::vector<double> loss_history_;
  RiskTrainerStats stats_;
};

}  // namespace learnrisk

#endif  // LEARNRISK_RISK_TRAINER_H_
