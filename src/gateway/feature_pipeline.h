// Copyright 2026 The LearnRisk Authors
// Inline featurization — the middle layer of the request gateway. Evaluates
// the fitted MetricSuite and the frozen classifier on record pairs in one
// chunk-parallel pass: each thread writes metric rows straight into the
// output FeatureMatrix and gathers the classifier's input columns into a
// reused per-thread scratch buffer, so the hot loop allocates no per-pair
// vectors.
//
// Two equivalent paths exist. Run/RunProbe evaluate raw records (the
// reference path: every record-level artifact re-derived per pair).
// RunPrepared/RunProbePrepared evaluate the PreparedRecords a
// ShardedSideView exposes (per-record caches built once, when records enter
// a SideStore) through the suite's prepared kernels with per-thread
// MetricScratch. A lone SideStore converts to a 1-shard view, so one
// prepared entry point serves unsharded and sharded stores alike. Both
// paths are bit-identical to the offline ComputeFeatures + PredictProbaAll
// stages over the same pairs (enforced by tests/prepared_parity_test.cc);
// the prepared path is what the gateway serves from, since blocking emits
// each record in many pairs.

#ifndef LEARNRISK_GATEWAY_FEATURE_PIPELINE_H_
#define LEARNRISK_GATEWAY_FEATURE_PIPELINE_H_

#include <memory>
#include <vector>

#include "classifier/classifier.h"
#include "common/status.h"
#include "data/table.h"
#include "data/workload.h"
#include "gateway/namespace_segments.h"
#include "metrics/metric_suite.h"
#include "metrics/prepared_record.h"

namespace learnrisk {

/// \brief Featurization output for one batch of pairs: the metric rows (the
/// rule-evaluation input) plus the classifier's equivalence probabilities —
/// exactly what a ScoreRequest consumes.
struct FeaturizedBatch {
  FeatureMatrix features;
  std::vector<double> probs;
  /// Wall time of the two internal passes (metric evaluation vs classifier
  /// inference) — the gateway splits its featurize/classify stage telemetry
  /// on these without re-timing the pipeline.
  double featurize_ms = 0.0;
  double classify_ms = 0.0;
};

/// \brief A frozen (suite, classifier) pair evaluating record pairs.
///
/// The pipeline owns a copy of the fitted metric suite and shares ownership
/// of the classifier; both are immutable here, so every Run* method is safe
/// to call concurrently from many request threads.
class FeaturePipeline {
 public:
  FeaturePipeline() = default;

  /// \brief `classifier_columns` lists the metric columns the classifier was
  /// trained on (empty = all columns). The suite must already be fitted.
  FeaturePipeline(MetricSuite suite,
                  std::shared_ptr<const BinaryClassifier> classifier,
                  std::vector<size_t> classifier_columns = {});

  const MetricSuite& suite() const { return suite_; }
  const std::vector<size_t>& classifier_columns() const {
    return classifier_columns_;
  }

  /// \brief Names of the suite's metric columns, cached at construction —
  /// the gateway labels its per-column drift instruments with these without
  /// re-deriving them from the specs per registration or snapshot.
  const std::vector<std::string>& metric_names() const {
    return metric_names_;
  }

  /// \brief Metric rows + classifier probabilities for record pairs indexing
  /// into the two tables — the raw reference path (chunk-parallel, per-pair
  /// re-derivation of record-level artifacts).
  Result<FeaturizedBatch> Run(const Table& left, const Table& right,
                              const std::vector<RecordPair>& pairs) const;

  /// \brief Same pass for one raw probe record against candidate records of
  /// a table (the online single-record path). The probe takes the pair's
  /// left slot.
  Result<FeaturizedBatch> RunProbe(const Record& probe, const Table& table,
                                   const std::vector<size_t>& candidates)
      const;

  /// \brief Prepares one record under the pipeline's suite (for probes and
  /// incremental cache maintenance).
  PreparedRecord Prepare(const Record& record) const {
    return suite_.PrepareRecord(record);
  }

  /// \brief Prepared fast path of Run: pairs carry global record ids into
  /// two views whose stores were prepared under this pipeline's suite.
  /// Bit-identical output to Run on the source tables.
  Result<FeaturizedBatch> RunPrepared(const ShardedSideView& left,
                                      const ShardedSideView& right,
                                      const std::vector<RecordPair>& pairs)
      const;

  /// \brief Prepared fast path of RunProbe: one prepared probe against
  /// candidates given as global record ids into `table`. Bit-identical
  /// output to RunProbe.
  Result<FeaturizedBatch> RunProbePrepared(
      const PreparedRecord& probe, const ShardedSideView& table,
      const std::vector<size_t>& candidates) const;

  /// \brief Caps the worker threads of each internal pass: 0 (default) uses
  /// the shared process pool's full concurrency, 1 evaluates serially on the
  /// calling thread. The shared pool runs one parallel loop at a time, so
  /// gateways serving many concurrent requests set 1 to let requests scale
  /// across threads instead of queueing on the pool (bit-identical output
  /// either way).
  void set_parallelism(size_t parallelism) { parallelism_ = parallelism; }
  size_t parallelism() const { return parallelism_; }

 private:
  /// \brief Shared core: featurize row i via `eval_row(i, out_row, scratch)`,
  /// then gather classifier columns and predict.
  template <typename EvalRow>
  Result<FeaturizedBatch> RunImpl(size_t n, const EvalRow& eval_row) const;

  MetricSuite suite_;
  std::shared_ptr<const BinaryClassifier> classifier_;
  std::vector<size_t> classifier_columns_;
  std::vector<std::string> metric_names_;  ///< suite_.MetricNames(), cached
  size_t parallelism_ = 0;                 ///< see set_parallelism()
};

}  // namespace learnrisk

#endif  // LEARNRISK_GATEWAY_FEATURE_PIPELINE_H_
