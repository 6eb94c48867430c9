// Copyright 2026 The LearnRisk Authors
// Risk-model persistence: serialize a trained RiskModel (rules, expectation
// priors, learned weights/RSDs/influence parameters) to a line-oriented text
// format and load it back. Lets a model trained on a validation workload be
// deployed against production pairs without retraining.
//
// Format (one record per line, '|'-separated; '#' comments ignored):
//   learnrisk-model v1
//   options <var_confidence> <metric> <rsd_max> <output_buckets> <use_out>
//   trainer <epochs> <lr> <l1> <l2> <max_mis> <max_cor> <max_pairs>
//           <use_adam> 0 <seed>                   (optional provenance)
//   params <alpha_raw> <beta_raw>
//   phi_out <b0> <b1> ...
//   rule <label> <support> <match_rate> <impurity> <expectation>
//        <train_support> <theta> <phi> <npreds> {<metric> <name> <gt> <thr>}*
//   end
//
// The trainer record's `0` is the slot of the retired use_tape flag. Writers
// emit 0, which older versions wrote for the default trainer, so payloads
// stay byte-identical; readers accept any integer there and ignore it.

#ifndef LEARNRISK_RISK_MODEL_IO_H_
#define LEARNRISK_RISK_MODEL_IO_H_

#include <string>

#include "common/status.h"
#include "risk/risk_model.h"
#include "risk/trainer.h"

namespace learnrisk {

/// \brief Serializes the model (including its rule set and priors) to text.
/// When `trainer` is non-null, a `trainer` provenance record is included so
/// a deployed model carries the hyperparameters it was trained with.
std::string SerializeRiskModel(const RiskModel& model,
                               const RiskTrainerOptions* trainer = nullptr);

/// \brief Reconstructs a model from SerializeRiskModel output. A `trainer`
/// record, if present, is parsed into `*trainer_out` (when non-null);
/// payloads without one leave `*trainer_out` at defaults, keeping old model
/// files loadable.
Result<RiskModel> DeserializeRiskModel(const std::string& text,
                                       RiskTrainerOptions* trainer_out =
                                           nullptr);

/// \brief Writes the serialized model to a file.
Status SaveRiskModel(const RiskModel& model, const std::string& path);

/// \brief Loads a model previously written by SaveRiskModel.
Result<RiskModel> LoadRiskModel(const std::string& path);

}  // namespace learnrisk

#endif  // LEARNRISK_RISK_MODEL_IO_H_
