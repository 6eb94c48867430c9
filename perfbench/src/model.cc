// Copyright 2026 The LearnRisk Authors
// Set-up of the benchmark: the DS workload with its paper-style split, and
// the served model fitted the paper's way (Sec. 7.1): metric suite and
// classifier on the training split, one-sided-forest rules from the
// training split, LearnRisk trained to rank the validation split's
// mislabeled pairs first. Also the Ledger and Tracer bodies.

#include <algorithm>
#include <set>
#include <utility>

#include "classifier/mlp.h"
#include "common/random.h"
#include "data/blocking.h"
#include "data/generators.h"
#include "eval/experiment.h"
#include "phases.h"
#include "risk/risk_feature.h"
#include "risk/trainer.h"
#include "rules/one_sided_tree.h"

namespace perfbench {

using namespace learnrisk;  // NOLINT

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kResolve:
      return "resolve";
    case Phase::kIngest:
      return "ingest";
    case Phase::kReview:
      return "review";
  }
  return "?";
}

void Ledger::Op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) Fail(what);
}

void Ledger::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

Tracer::Span::Span(Tracer* tracer, const char* layer) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  SpanRecord span;
  span.layer = layer;
  span.parent = tracer_->stack_.empty() ? -1 : tracer_->stack_.back();
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->stack_.push_back(index_);
  tracer_->spans_[index_].start_ns = NowNs();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns = NowNs();
  tracer_->stack_.pop_back();
}

double Tracer::count(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

std::map<std::string, double> Tracer::SelfMs() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      child_ns[span.parent] += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double dur =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    self[spans_[i].layer] += (dur - child_ns[i]) * 1e-6;
  }
  return self;
}

Result<Dataset> MakeDataset(const Config& config) {
  GeneratorOptions generator;
  generator.scale = config.scale;
  generator.seed = kCorpusSeed;
  Result<Workload> workload = GenerateDataset("DS", generator);
  if (!workload.ok()) return workload.status();
  Dataset ds;
  ds.workload = workload.MoveValueOrDie();
  Rng split_rng(kCorpusSeed);
  Result<WorkloadSplit> split =
      StratifiedSplit(ds.workload, 3, 2, 5, &split_rng);
  if (!split.ok()) return split.status();
  ds.train = std::move(split->train);
  ds.valid = std::move(split->valid);

  Result<std::vector<RecordPair>> candidates = TokenBlocking(
      ds.workload.left(), ds.workload.right(), BlockingConfig{});
  if (!candidates.ok()) return candidates.status();
  std::set<std::pair<size_t, size_t>> fitted;
  for (const std::vector<size_t>* part : {&ds.train, &ds.valid}) {
    for (size_t i : *part) {
      fitted.emplace(ds.workload.pair(i).left, ds.workload.pair(i).right);
    }
  }
  for (const RecordPair& pair : *candidates) {
    if (fitted.count({pair.left, pair.right}) == 0) ds.traffic.push_back(pair);
  }
  if (ds.traffic.empty()) {
    return Status::InvalidArgument("the generated tables have no traffic");
  }
  Rng rng(config.seed);
  rng.Shuffle(&ds.traffic);
  // At least a quarter of the left table stays registered.
  std::vector<size_t> left(ds.workload.left().num_records());
  for (size_t i = 0; i < left.size(); ++i) left[i] = i;
  rng.Shuffle(&left);
  left.resize(std::min(config.arrivals, left.size() * 3 / 4));
  ds.arrivals = std::move(left);
  return ds;
}

Result<ServedModel> FitServedModel(const Dataset& ds) {
  const Workload& workload = ds.workload;
  ServedModel model;
  model.suite = MetricSuite::ForSchema(workload.left().schema());
  model.suite.Fit(workload);

  const Workload train = workload.Subset(ds.train, "train");
  const Workload valid = workload.Subset(ds.valid, "valid");
  const FeatureMatrix train_features = ComputeFeatures(train, model.suite);
  FeatureMatrix valid_features = ComputeFeatures(valid, model.suite);
  const std::vector<uint8_t> train_truth = train.Labels();
  const std::vector<uint8_t> valid_truth = valid.Labels();

  // The classifier sees similarity metrics only; difference metrics feed
  // the risk features (the paper's DeepMatcher setting).
  for (size_t c = 0; c < model.suite.specs().size(); ++c) {
    if (!IsDifferenceMetric(model.suite.specs()[c].kind)) {
      model.classifier_columns.push_back(c);
    }
  }
  MlpOptions mlp;
  mlp.epochs = 10;
  mlp.seed = kCorpusSeed + 1;
  auto classifier = std::make_shared<MlpClassifier>(mlp);
  LEARNRISK_RETURN_NOT_OK(classifier->Train(
      GatherColumns(train_features, model.classifier_columns), train_truth));
  const std::vector<double> valid_probs = classifier->PredictProbaAll(
      GatherColumns(valid_features, model.classifier_columns));
  model.classifier = classifier;

  auto rules = OneSidedForest::Generate(train_features, train_truth, {});
  if (!rules.ok()) return rules.status();
  RiskFeatureSet risk_features = RiskFeatureSet::Build(
      rules.MoveValueOrDie(), train_features, train_truth);
  auto risk = std::make_shared<RiskModel>(risk_features);
  std::vector<uint8_t> machine(valid_probs.size());
  for (size_t i = 0; i < valid_probs.size(); ++i) {
    machine[i] = valid_probs[i] >= 0.5 ? 1 : 0;
  }
  RiskTrainerOptions trainer;
  trainer.epochs = 300;
  trainer.seed = kCorpusSeed + 2;
  LEARNRISK_RETURN_NOT_OK(RiskTrainer(trainer).Train(
      risk.get(), ComputeActivation(risk_features, valid_features, valid_probs),
      MislabelFlags(machine, valid_truth)));
  model.risk = risk;

  valid_features.column_names = model.suite.MetricNames();
  const std::vector<double> valid_risk = risk->Score(
      ComputeActivation(risk_features, valid_features, valid_probs));
  model.baseline = std::make_shared<DriftBaseline>(
      DriftBaseline::FromTraining(valid_features, valid_risk));
  return model;
}

NamespaceSpec MakeSpec(const ServedModel& model,
                       std::shared_ptr<const Table> left,
                       std::shared_ptr<const Table> right) {
  NamespaceSpec spec;
  spec.left = std::move(left);
  spec.right = std::move(right);
  spec.suite = model.suite;
  spec.classifier = model.classifier;
  spec.classifier_columns = model.classifier_columns;
  return spec;
}

RecoverNamespaceSpec MakeRecoverSpec(const ServedModel& model,
                                     const Schema& schema) {
  RecoverNamespaceSpec spec;
  spec.schema = schema;
  spec.suite = model.suite;
  spec.classifier = model.classifier;
  spec.classifier_columns = model.classifier_columns;
  return spec;
}

}  // namespace perfbench
