// Copyright 2026 The LearnRisk Authors
// Binds similarity / difference metrics to schema attributes, producing the
// per-pair "basic metric" vector the rule learner and classifier consume
// (paper Sec. 5.1: "we have designed 19 basic metrics on the attribute
// values in the DS workload, ...").

#ifndef LEARNRISK_METRICS_METRIC_SUITE_H_
#define LEARNRISK_METRICS_METRIC_SUITE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/table.h"
#include "data/workload.h"
#include "metrics/prepared_record.h"
#include "metrics/similarity.h"
#include "metrics/string_kernels.h"

namespace learnrisk {

/// \brief Identifies one metric function.
enum class MetricKind {
  // similarity
  kEditSim,
  kJaroWinkler,
  kTokenJaccard,
  kNgramJaccard,
  kLcs,
  kCosineTfIdf,
  kMongeElkan,
  kOverlap,
  kContainment,
  kNumericSim,
  kExact,
  // difference
  kNonSubstring,
  kNonPrefix,
  kNonSuffix,
  kAbbrNonSubstring,
  kAbbrNonPrefix,
  kAbbrNonSuffix,
  kDiffCardinality,
  kDistinctEntity,
  kDiffKeyToken,
  kNumericUnequal,
  kNotEqual,
};

/// \brief Short identifier ("lcs", "distinct_entity", ...).
const char* MetricKindToString(MetricKind kind);

/// \brief True for the diff(.,.) metrics of Sec. 5.1.
bool IsDifferenceMetric(MetricKind kind);

/// \brief One metric applied to one attribute.
struct MetricSpec {
  size_t attribute;
  MetricKind kind;
  std::string name;  ///< "title.lcs" — shows up verbatim in rule text
};

/// \brief A fitted collection of per-attribute metrics.
///
/// Construction chooses metrics by attribute semantic type (Fig. 5); Fit()
/// derives the corpus statistics (IDF tables) that CosineTfIdf and
/// DiffKeyToken need. Evaluate* then maps a record pair to its metric vector.
class MetricSuite {
 public:
  /// \brief Default metric selection for a schema. Attributes whose name
  /// contains "description" are treated as long text (token metrics only).
  static MetricSuite ForSchema(const Schema& schema);

  /// \brief A suite from explicit specs (for custom configurations).
  static MetricSuite FromSpecs(const Schema& schema,
                               std::vector<MetricSpec> specs);

  /// \brief Builds IDF tables from both sides of the workload. Must be
  /// called before Evaluate* if the suite contains TF-IDF/key-token metrics.
  void Fit(const Workload& workload);

  size_t num_metrics() const { return specs_.size(); }
  const std::vector<MetricSpec>& specs() const { return specs_; }
  const Schema& schema() const { return schema_; }

  /// \brief Names of all metrics, in column order.
  std::vector<std::string> MetricNames() const;

  /// \brief Value of metric `m` on a record pair. This is the reference
  /// implementation: it re-derives every record-level artifact (tokens,
  /// normalized strings, tf-idf weights) from the raw strings per call.
  double Evaluate(const Record& left, const Record& right, size_t m) const;

  /// \brief Full metric vector for a record pair.
  std::vector<double> EvaluatePair(const Record& left,
                                   const Record& right) const;

  /// \brief Writes the full metric vector into `out` (capacity >=
  /// num_metrics()); the allocation-free reference form.
  void EvaluatePairInto(const Record& left, const Record& right,
                        double* out) const;

  // --- Prepared fast path ---------------------------------------------------
  // The prepared kernels produce bit-identical values to Evaluate* while
  // reusing per-record caches and per-thread scratch; the parity is enforced
  // by tests/prepared_parity_test.cc across all MetricKinds.

  /// \brief Caches every record-level derivation this suite's metrics need
  /// (see PreparedValue). Prepare after Fit(): the cached tf-idf weights and
  /// key-token subsets are derived from the fitted IDF tables, so records
  /// prepared earlier (or under a different suite) must be re-prepared —
  /// evaluating them against this suite is unsupported. The result borrows
  /// `record`'s attribute strings (PreparedValue::raw is a view): the
  /// record must stay alive and unmoved for the prepared record's lifetime.
  PreparedRecord PrepareRecord(const Record& record) const;

  /// \brief Value of metric `m` from two prepared sides; bit-identical to
  /// Evaluate on the records they were prepared from. `scratch` is the
  /// calling thread's reusable kernel buffer.
  double EvaluatePrepared(const PreparedRecord& left,
                          const PreparedRecord& right, size_t m,
                          MetricScratch* scratch) const;

  /// \brief Full metric vector from two prepared sides into `out` (capacity
  /// >= num_metrics()); the hot loop of the prepared featurization path.
  void EvaluatePairPreparedInto(const PreparedRecord& left,
                                const PreparedRecord& right,
                                MetricScratch* scratch, double* out) const;

 private:
  /// \brief PreparedValue fields a metric kind reads (bitmask).
  static uint32_t PrepareNeedsFor(MetricKind kind);
  void RecomputeNeeds();

  Schema schema_;
  std::vector<MetricSpec> specs_;
  // Per-attribute IDF tables (shared_ptr so suites are copyable); only
  // populated for attributes referenced by IDF-based metrics.
  std::vector<std::shared_ptr<IdfTable>> idf_;
  std::vector<double> min_key_idf_;
  std::vector<uint32_t> needs_;  ///< per-attribute PrepareNeeds mask
};

/// \brief Dense row-major pair-by-metric matrix.
class FeatureMatrix {
 public:
  FeatureMatrix() = default;
  FeatureMatrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  double at(size_t r, size_t c) const { return data_[r * cols_ + c]; }
  void set(size_t r, size_t c, double v) { data_[r * cols_ + c] = v; }

  /// \brief Pointer to the start of row r.
  const double* row(size_t r) const { return data_.data() + r * cols_; }

  /// \brief Writable pointer to the start of row r (for passes that fill
  /// rows in place instead of calling set() per cell).
  double* mutable_row(size_t r) { return data_.data() + r * cols_; }

  /// \brief Copies row r into a vector.
  std::vector<double> RowVector(size_t r) const {
    return std::vector<double>(row(r), row(r) + cols_);
  }

  std::vector<std::string> column_names;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// \brief Evaluates the suite on every pair of the workload (parallelized).
/// Runs the prepared fast path: each record referenced by the pairs is
/// prepared once, then pairs evaluate via EvaluatePairPreparedInto —
/// bit-identical to evaluating each pair from the raw strings.
FeatureMatrix ComputeFeatures(const Workload& workload,
                              const MetricSuite& suite);

}  // namespace learnrisk

#endif  // LEARNRISK_METRICS_METRIC_SUITE_H_
