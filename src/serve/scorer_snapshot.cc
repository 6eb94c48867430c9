// Copyright 2026 The LearnRisk Authors

#include "serve/scorer_snapshot.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/math_util.h"
#include "common/parallel.h"

namespace learnrisk {

ScorerSnapshot::ScorerSnapshot(
    RiskModel model, std::shared_ptr<const DriftBaseline> drift_baseline)
    : model_(std::move(model)), drift_baseline_(std::move(drift_baseline)) {
  const size_t n_rules = model_.num_rules();
  weight_.resize(n_rules);
  expectation_.resize(n_rules);
  rsd_.resize(n_rules);
  sigma_.resize(n_rules);
  rule_description_.resize(n_rules);
  for (size_t j = 0; j < n_rules; ++j) {
    // Same call chain as RiskModel::Distribution's per-rule terms, evaluated
    // once here instead of once per (pair, rule).
    weight_[j] = model_.RuleWeight(j);
    expectation_[j] = model_.features().expectation(j);
    rsd_[j] = model_.RuleRsd(j);
    sigma_[j] = rsd_[j] * expectation_[j];
    rule_description_[j] = model_.features().rule(j).ToString();
  }
  const RiskModelOptions& opts = model_.options();
  alpha_ = Softplus(model_.alpha_raw());
  beta_ = Softplus(model_.beta_raw());
  var_confidence_ = opts.var_confidence;
  metric_ = opts.metric;
  use_classifier_feature_ = opts.use_classifier_feature;
  out_rsd_.resize(model_.phi_out().size());
  for (size_t b = 0; b < out_rsd_.size(); ++b) {
    out_rsd_[b] = opts.rsd_max * Sigmoid(model_.phi_out()[b]);
  }
}

double ScorerSnapshot::ScorePair(const uint32_t* active_rules,
                                 size_t num_active, double classifier_output,
                                 uint8_t machine_label) const {
  // --- Portfolio distribution: RiskModel::Distribution with baked
  // transforms; identical operations in identical order. ---
  const bool with_output = use_classifier_feature_ || num_active == 0;
  double w_out = 0.0;
  if (with_output) {
    const double z = (classifier_output - 0.5) / alpha_;
    w_out = -std::exp(-0.5 * z * z) + beta_ + 1.0;
  }
  const double mu_out = Clamp(classifier_output, 0.0, 1.0);
  const double sigma_out =
      out_rsd_[model_.OutputBucket(classifier_output)] * mu_out;

  double weight_sum = w_out;
  double mu_acc = w_out * mu_out;
  double var_acc = w_out * w_out * sigma_out * sigma_out;
  for (size_t k = 0; k < num_active; ++k) {
    const uint32_t j = active_rules[k];
    const double w = weight_[j];
    const double mu = expectation_[j];
    const double sigma = sigma_[j];
    weight_sum += w;
    mu_acc += w * mu;
    var_acc += w * w * sigma * sigma;
  }
  const double mu = mu_acc / weight_sum;
  const double sigma = std::sqrt(var_acc) / weight_sum + kRiskSigmaFloor;

  // --- Risk metric: RiskModel::RiskScore's switch, verbatim. ---
  const double theta = var_confidence_;
  switch (metric_) {
    case RiskMetric::kVaR:
      if (machine_label == 0) {
        return TruncatedNormalQuantile(theta, mu, sigma, 0.0, 1.0);
      }
      return 1.0 - TruncatedNormalQuantile(1.0 - theta, mu, sigma, 0.0, 1.0);
    case RiskMetric::kCVaR: {
      if (machine_label == 0) {
        const double var = TruncatedNormalQuantile(theta, mu, sigma, 0.0, 1.0);
        return TruncatedNormalMean(mu, sigma, var, 1.0);
      }
      const double var =
          TruncatedNormalQuantile(1.0 - theta, mu, sigma, 0.0, 1.0);
      return 1.0 - TruncatedNormalMean(mu, sigma, 0.0, var);
    }
    case RiskMetric::kExpectation: {
      const double mean = TruncatedNormalMean(mu, sigma, 0.0, 1.0);
      return machine_label == 0 ? mean : 1.0 - mean;
    }
  }
  return 0.0;
}

void ScorerSnapshot::ScoreBatch(const CsrActivation& activation,
                                const std::vector<double>& classifier_probs,
                                double* risk_out, uint8_t* label_out) const {
  ParallelFor(activation.rows(), [&](size_t i) {
    const uint8_t label = classifier_probs[i] >= 0.5 ? 1 : 0;
    risk_out[i] = ScorePair(activation.row(i), activation.row_size(i),
                            classifier_probs[i], label);
    if (label_out != nullptr) label_out[i] = label;
  });
}

std::vector<RiskContribution> ScorerSnapshot::Explain(
    const uint32_t* active_rules, size_t num_active, double classifier_output,
    size_t top_k) const {
  // RiskModel::Explain's exact arithmetic over the baked arrays: the output
  // feature always contributes here (matching the model, which lists it even
  // when scoring drops it), and rule text comes from rule_description_
  // instead of re-running Rule::ToString per call.
  const double z = (classifier_output - 0.5) / alpha_;
  const double w_out = -std::exp(-0.5 * z * z) + beta_ + 1.0;
  double weight_sum = w_out;
  for (size_t k = 0; k < num_active; ++k) {
    weight_sum += weight_[active_rules[k]];
  }

  std::vector<RiskContribution> contributions;
  contributions.reserve(num_active + 1);
  RiskContribution out;
  out.description =
      "classifier output p=" + std::to_string(classifier_output);
  out.weight = w_out / weight_sum;
  out.expectation = classifier_output;
  out.rsd = out_rsd_[model_.OutputBucket(classifier_output)];
  contributions.push_back(std::move(out));

  for (size_t k = 0; k < num_active; ++k) {
    const uint32_t j = active_rules[k];
    RiskContribution c;
    c.description = rule_description_[j];
    c.weight = weight_[j] / weight_sum;
    c.expectation = expectation_[j];
    c.rsd = rsd_[j];
    contributions.push_back(std::move(c));
  }
  std::stable_sort(contributions.begin(), contributions.end(),
                   [](const RiskContribution& a, const RiskContribution& b) {
                     return a.weight > b.weight;
                   });
  if (contributions.size() > top_k) contributions.resize(top_k);
  return contributions;
}

}  // namespace learnrisk
