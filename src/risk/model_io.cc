// Copyright 2026 The LearnRisk Authors

#include "risk/model_io.h"

#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace learnrisk {
namespace {

// Rule-text fields may contain spaces; predicates encode the name with '|'.
std::string EscapeName(const std::string& name) {
  std::string out;
  for (char c : name) out += (c == '|' || c == ' ') ? '_' : c;
  return out;
}

}  // namespace

std::string SerializeRiskModel(const RiskModel& model,
                               const RiskTrainerOptions* trainer) {
  std::ostringstream out;
  out.precision(17);  // max_digits10: doubles round-trip exactly
  const RiskModelOptions& opts = model.options();
  out << "learnrisk-model v1\n";
  out << "options " << opts.var_confidence << ' '
      << static_cast<int>(opts.metric) << ' ' << opts.rsd_max << ' '
      << opts.output_buckets << ' ' << (opts.use_classifier_feature ? 1 : 0)
      << '\n';
  if (trainer != nullptr) {
    out << "trainer " << trainer->epochs << ' ' << trainer->learning_rate
        << ' ' << trainer->l1 << ' ' << trainer->l2 << ' '
        << trainer->max_mislabeled_per_epoch << ' '
        << trainer->max_correct_per_epoch << ' ' << trainer->max_rank_pairs
        << ' ' << (trainer->use_adam ? 1 : 0)
        << " 0 "  // retired use_tape slot, kept so the format is unchanged
        << trainer->seed << '\n';
  }
  out << "params " << model.alpha_raw() << ' ' << model.beta_raw() << '\n';
  out << "phi_out";
  for (double p : model.phi_out()) out << ' ' << p;
  out << '\n';
  const RiskFeatureSet& features = model.features();
  for (size_t j = 0; j < features.num_rules(); ++j) {
    const Rule& rule = features.rule(j);
    out << "rule " << (rule.label == RuleClass::kMatching ? 1 : 0) << ' '
        << rule.support << ' ' << rule.match_rate << ' ' << rule.impurity
        << ' ' << features.expectation(j) << ' ' << features.train_support(j)
        << ' ' << model.theta()[j] << ' ' << model.phi()[j] << ' '
        << rule.predicates.size();
    for (const Predicate& p : rule.predicates) {
      out << ' ' << p.metric << ' ' << EscapeName(p.metric_name) << ' '
          << (p.greater ? 1 : 0) << ' ' << p.threshold;
    }
    out << '\n';
  }
  // Explicit end-of-payload record: truncated files are otherwise
  // undetectable when the cut lands on a parseable prefix (a chopped
  // trailing number like "0." still reads as a valid double).
  out << "end\n";
  return out.str();
}

Result<RiskModel> DeserializeRiskModel(const std::string& text,
                                       RiskTrainerOptions* trainer_out) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || Trim(line) != "learnrisk-model v1") {
    return Status::InvalidArgument("not a learnrisk-model v1 payload");
  }

  RiskModelOptions options;
  double alpha_raw = 0.0;
  double beta_raw = 0.0;
  std::vector<double> phi_out;
  std::vector<Rule> rules;
  std::vector<double> expectations;
  std::vector<size_t> supports;
  std::vector<double> theta;
  std::vector<double> phi;
  bool saw_end = false;

  while (std::getline(in, line)) {
    line = Trim(line);
    if (line.empty() || line[0] == '#') continue;
    if (saw_end) {
      return Status::InvalidArgument("record after end marker: " + line);
    }
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "end") {
      saw_end = true;
    } else if (tag == "options") {
      int metric = 0;
      int use_out = 1;
      ls >> options.var_confidence >> metric >> options.rsd_max >>
          options.output_buckets >> use_out;
      if (!ls || metric < 0 || metric > 2 || options.output_buckets == 0) {
        return Status::InvalidArgument("malformed options line");
      }
      options.metric = static_cast<RiskMetric>(metric);
      options.use_classifier_feature = use_out != 0;
    } else if (tag == "trainer") {
      RiskTrainerOptions trainer;
      int use_adam = 1;
      int retired_use_tape = 0;  // read and discarded (see model_io.h)
      ls >> trainer.epochs >> trainer.learning_rate >> trainer.l1 >>
          trainer.l2 >> trainer.max_mislabeled_per_epoch >>
          trainer.max_correct_per_epoch >> trainer.max_rank_pairs >>
          use_adam >> retired_use_tape >> trainer.seed;
      if (!ls) return Status::InvalidArgument("malformed trainer line");
      trainer.use_adam = use_adam != 0;
      if (trainer_out != nullptr) *trainer_out = trainer;
    } else if (tag == "params") {
      ls >> alpha_raw >> beta_raw;
      if (!ls) return Status::InvalidArgument("malformed params line");
    } else if (tag == "phi_out") {
      double v;
      while (ls >> v) phi_out.push_back(v);
    } else if (tag == "rule") {
      Rule rule;
      int label = 0;
      double expectation = 0.0;
      size_t train_support = 0;
      double t = 0.0;
      double p = 0.0;
      size_t npreds = 0;
      ls >> label >> rule.support >> rule.match_rate >> rule.impurity >>
          expectation >> train_support >> t >> p >> npreds;
      if (!ls) return Status::InvalidArgument("malformed rule line");
      rule.label = label ? RuleClass::kMatching : RuleClass::kUnmatching;
      for (size_t k = 0; k < npreds; ++k) {
        Predicate pred;
        int greater = 0;
        ls >> pred.metric >> pred.metric_name >> greater >> pred.threshold;
        if (!ls) return Status::InvalidArgument("malformed predicate");
        pred.greater = greater != 0;
        rule.predicates.push_back(std::move(pred));
      }
      rules.push_back(std::move(rule));
      expectations.push_back(expectation);
      supports.push_back(train_support);
      theta.push_back(t);
      phi.push_back(p);
    } else {
      return Status::InvalidArgument("unknown record tag: " + tag);
    }
  }
  if (!saw_end) {
    return Status::InvalidArgument(
        "truncated model payload: missing end record");
  }
  if (phi_out.empty()) {
    return Status::InvalidArgument("missing phi_out record");
  }
  if (phi_out.size() != options.output_buckets) {
    return Status::InvalidArgument("phi_out length != output_buckets");
  }

  RiskModel model(RiskFeatureSet::FromParts(std::move(rules),
                                            std::move(expectations),
                                            std::move(supports)),
                  options);
  model.ApplyUpdate(theta, phi, alpha_raw, beta_raw, phi_out);
  return model;
}

Status SaveRiskModel(const RiskModel& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  out << SerializeRiskModel(model);
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<RiskModel> LoadRiskModel(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return DeserializeRiskModel(buf.str());
}

}  // namespace learnrisk
