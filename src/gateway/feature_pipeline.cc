// Copyright 2026 The LearnRisk Authors

#include "gateway/feature_pipeline.h"

#include <utility>

#include "common/parallel.h"
#include "common/timer.h"

namespace learnrisk {

FeaturePipeline::FeaturePipeline(
    MetricSuite suite, std::shared_ptr<const BinaryClassifier> classifier,
    std::vector<size_t> classifier_columns)
    : suite_(std::move(suite)),
      classifier_(std::move(classifier)),
      classifier_columns_(std::move(classifier_columns)),
      metric_names_(suite_.MetricNames()) {}

template <typename EvalRow>
Result<FeaturizedBatch> FeaturePipeline::RunImpl(
    size_t n, const EvalRow& eval_row) const {
  if (classifier_ == nullptr) {
    return Status::FailedPrecondition("feature pipeline has no classifier");
  }
  const size_t num_metrics = suite_.num_metrics();
  if (num_metrics == 0) {
    return Status::FailedPrecondition("feature pipeline has an empty suite");
  }
  for (size_t c : classifier_columns_) {
    if (c >= num_metrics) {
      return Status::InvalidArgument("classifier column out of range");
    }
  }

  FeaturizedBatch batch;
  batch.features = FeatureMatrix(n, num_metrics);
  batch.features.column_names = suite_.MetricNames();
  batch.probs.resize(n);
  const bool gather = !classifier_columns_.empty();
  const size_t classifier_width =
      gather ? classifier_columns_.size() : num_metrics;
  // Two sequential chunk-parallel passes over the same rows, timed
  // separately so the gateway can attribute featurize vs classify latency.
  // Outputs are bit-identical to the previous fused loop: pass 1 writes the
  // exact metric rows pass 2 reads, and neither pass reorders arithmetic.
  Timer timer;
  ParallelForRange(
      n,
      [&](size_t begin, size_t end) {
        // Per-thread scratch: kernel buffers for the prepared metric path;
        // metric values land directly in the output matrix.
        MetricScratch scratch;
        for (size_t i = begin; i < end; ++i) {
          eval_row(i, batch.features.mutable_row(i), &scratch);
        }
      },
      parallelism_);
  batch.featurize_ms = timer.ElapsedMillis();

  timer.Reset();
  ParallelForRange(
      n,
      [&](size_t begin, size_t end) {
        // Per-thread gather buffer for the classifier's input columns.
        std::vector<double> gathered(gather ? classifier_width : 0);
        for (size_t i = begin; i < end; ++i) {
          const double* row = batch.features.row(i);
          const double* classifier_input = row;
          if (gather) {
            for (size_t k = 0; k < classifier_width; ++k) {
              gathered[k] = row[classifier_columns_[k]];
            }
            classifier_input = gathered.data();
          }
          batch.probs[i] =
              classifier_->PredictProba(classifier_input, classifier_width);
        }
      },
      parallelism_);
  batch.classify_ms = timer.ElapsedMillis();
  return batch;
}

Result<FeaturizedBatch> FeaturePipeline::Run(
    const Table& left, const Table& right,
    const std::vector<RecordPair>& pairs) const {
  for (const RecordPair& pair : pairs) {
    if (pair.left >= left.num_records() || pair.right >= right.num_records()) {
      return Status::OutOfRange("record pair index out of table range");
    }
  }
  return RunImpl(pairs.size(),
                 [&](size_t i, double* row, MetricScratch* /*scratch*/) {
                   suite_.EvaluatePairInto(left.record(pairs[i].left),
                                           right.record(pairs[i].right), row);
                 });
}

Result<FeaturizedBatch> FeaturePipeline::RunProbe(
    const Record& probe, const Table& table,
    const std::vector<size_t>& candidates) const {
  if (probe.values.size() != table.schema().num_attributes()) {
    return Status::InvalidArgument(
        "probe record width does not match the table schema");
  }
  for (size_t c : candidates) {
    if (c >= table.num_records()) {
      return Status::OutOfRange("candidate record index out of table range");
    }
  }
  return RunImpl(candidates.size(),
                 [&](size_t i, double* row, MetricScratch* /*scratch*/) {
                   suite_.EvaluatePairInto(probe, table.record(candidates[i]),
                                           row);
                 });
}

Result<FeaturizedBatch> FeaturePipeline::RunPrepared(
    const ShardedSideView& left, const ShardedSideView& right,
    const std::vector<RecordPair>& pairs) const {
  for (const RecordPair& pair : pairs) {
    if (!left.InRange(pair.left) || !right.InRange(pair.right)) {
      return Status::OutOfRange("record pair index out of table range");
    }
  }
  return RunImpl(pairs.size(),
                 [&](size_t i, double* row, MetricScratch* scratch) {
                   suite_.EvaluatePairPreparedInto(
                       left.prepared(pairs[i].left),
                       right.prepared(pairs[i].right), scratch, row);
                 });
}

Result<FeaturizedBatch> FeaturePipeline::RunProbePrepared(
    const PreparedRecord& probe, const ShardedSideView& table,
    const std::vector<size_t>& candidates) const {
  if (probe.values.size() != suite_.schema().num_attributes()) {
    return Status::InvalidArgument(
        "probe record width does not match the pipeline schema");
  }
  for (size_t c : candidates) {
    if (!table.InRange(c)) {
      return Status::OutOfRange("candidate record index out of table range");
    }
  }
  return RunImpl(candidates.size(),
                 [&](size_t i, double* row, MetricScratch* scratch) {
                   suite_.EvaluatePairPreparedInto(
                       probe, table.prepared(candidates[i]), scratch, row);
                 });
}

}  // namespace learnrisk
