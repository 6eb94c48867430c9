// Copyright 2026 The LearnRisk Authors
// Frozen, immutable view of a trained RiskModel for online scoring — the
// second layer of the serving subsystem. Construction bakes every parameter
// transform (softplus rule weights, sigmoid-bounded RSDs, the influence
// function's alpha/beta, per-bucket output RSDs) into flat arrays once, so
// scoring a pair is pure arithmetic over precomputed doubles: no transform
// re-evaluation, no allocation. The kernel mirrors RiskModel::RiskScore
// operation-for-operation and is bit-identical to it.

#ifndef LEARNRISK_SERVE_SCORER_SNAPSHOT_H_
#define LEARNRISK_SERVE_SCORER_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "risk/risk_model.h"
#include "serve/compiled_rules.h"

namespace learnrisk {

class DriftBaseline;  // obs/drift.h

/// \brief An immutable scoring view frozen from a RiskModel.
///
/// The snapshot owns a copy of the model (rules, priors, raw parameters —
/// needed for explanations and model_io persistence) plus the baked flat
/// arrays the hot scoring loop reads. A snapshot is safe to share across
/// threads without synchronization: nothing mutates after construction.
class ScorerSnapshot {
 public:
  /// \brief Freezes `model`, optionally together with the training-time
  /// feature/risk distributions it was fitted on (see obs/drift.h) — the
  /// reference the gateway's drift gauges compare live traffic against.
  /// The baseline is carried, not persisted: model_io round-trips drop it.
  explicit ScorerSnapshot(
      RiskModel model,
      std::shared_ptr<const DriftBaseline> drift_baseline = nullptr);

  /// \brief The underlying model (for persistence / introspection).
  const RiskModel& model() const { return model_; }

  /// \brief Training-time distributions frozen at publish; nullptr when the
  /// model was published (or reloaded from disk) without one.
  const std::shared_ptr<const DriftBaseline>& drift_baseline() const {
    return drift_baseline_;
  }
  /// \brief The compiled activation plan (shared with the model's features).
  const CompiledRuleSet& compiled() const { return model_.features().compiled(); }
  size_t num_rules() const { return weight_.size(); }

  /// \brief Risk score of one pair from its active-rule slice; bit-identical
  /// to RiskModel::RiskScore on the same inputs.
  double ScorePair(const uint32_t* active_rules, size_t num_active,
                   double classifier_output, uint8_t machine_label) const;

  /// \brief Scores every row of a CSR activation into caller-provided
  /// buffers (risk_out, label_out sized activation.rows()); chunk-parallel
  /// and allocation-free. label_out may be nullptr if machine labels are not
  /// needed.
  void ScoreBatch(const CsrActivation& activation,
                  const std::vector<double>& classifier_probs,
                  double* risk_out, uint8_t* label_out) const;

  /// \brief Precomputed description string of rule j (Rule::ToString baked
  /// at construction so explanation-heavy traffic never re-formats rules).
  const std::string& rule_description(size_t j) const {
    return rule_description_[j];
  }

  /// \brief Top-k feature contributions for one pair. Output-identical to
  /// RiskModel::Explain on the same inputs, but reads the baked weights,
  /// RSDs and precomputed rule description strings instead of re-deriving
  /// transforms and re-formatting rule text per pair.
  std::vector<RiskContribution> Explain(const uint32_t* active_rules,
                                        size_t num_active,
                                        double classifier_output,
                                        size_t top_k) const;

 private:
  RiskModel model_;
  std::shared_ptr<const DriftBaseline> drift_baseline_;
  // Baked transforms; read-only after construction.
  double alpha_ = 0.0;           ///< softplus(alpha_raw)
  double beta_ = 0.0;            ///< softplus(beta_raw)
  double var_confidence_ = 0.9;
  RiskMetric metric_ = RiskMetric::kVaR;
  bool use_classifier_feature_ = true;
  std::vector<double> weight_;       ///< RuleWeight(j)
  std::vector<double> expectation_;  ///< mu_j prior
  std::vector<double> rsd_;          ///< RuleRsd(j)
  std::vector<double> sigma_;        ///< RuleRsd(j) * mu_j
  std::vector<double> out_rsd_;      ///< rsd_max * sigmoid(phi_out_b)
  std::vector<std::string> rule_description_;  ///< Rule::ToString(j)
};

}  // namespace learnrisk

#endif  // LEARNRISK_SERVE_SCORER_SNAPSHOT_H_
