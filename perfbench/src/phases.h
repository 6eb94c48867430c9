// Copyright 2026 The LearnRisk Authors
// The three phases of a benchmark workload (see bench.h) and the set-up
// they share. Every phase drives the public Gateway API and checks its
// answers; with a tracer it also replays each operation through the
// layers' own public functions, timing every call, and requires the
// replay to reproduce the gateway's output exactly.

#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/status.h"
#include "gateway/feature_pipeline.h"
#include "gateway/gateway.h"
#include "gateway/namespace_segments.h"
#include "serve/serving_engine.h"

namespace perfbench {

/// \brief Generates the DS corpus at the configured scale, splits its
/// labeled pairs 3:2:5 (paper Sec. 7.1), and draws the run's traffic order
/// and ingest arrivals from `config.seed` (see Dataset).
learnrisk::Result<Dataset> MakeDataset(const Config& config);

/// \brief Fits the served model on the corpus (deterministic; the caller
/// times it).
learnrisk::Result<ServedModel> FitServedModel(const Dataset& ds);

learnrisk::NamespaceSpec MakeSpec(
    const ServedModel& model, std::shared_ptr<const learnrisk::Table> left,
    std::shared_ptr<const learnrisk::Table> right);
learnrisk::RecoverNamespaceSpec MakeRecoverSpec(
    const ServedModel& model, const learnrisk::Schema& schema);

/// \brief Runs phase rounds against one dataset and model, pooling what
/// they measure into `samples` and their operations into `ledger`.
class Runner {
 public:
  Runner(const Config& config, const Dataset& ds, const ServedModel& model,
         Samples* samples, Ledger* ledger);

  /// \brief One resolve round on `gateway`, whose namespace "resolve" was
  /// registered over the full tables and published at set-up.
  void ResolveRound(learnrisk::Gateway* gateway);
  /// \brief One ingest round: fresh durable namespace, the arrival stream,
  /// `parity_requests` parity Resolves, then close and cold-recover
  /// `config.recoveries` times, repeating the parity Resolves after each.
  void IngestRound(size_t parity_requests);
  /// \brief One review round: fresh review-enabled namespace, then
  /// `config.cycles` resolve -> drain -> label -> retrain cycles.
  void ReviewRound();

  /// \brief Called between a phase's operations (never inside a timed call
  /// or a traced span), so the caller can interleave the phases.
  void set_yield(std::function<void()> yield) { yield_ = std::move(yield); }

 private:
  struct ReviewMirror;

  /// Resolve with timing (when `timed`), the sampled offline-reference
  /// check and, when traced and `left_store` is given, the layer replay
  /// over `left_store` (and `mirror`'s queue and engine, when given).
  /// Returns the response (empty on failure).
  learnrisk::ResolveResponse Resolve(learnrisk::Gateway* gateway,
                                     const std::string& ns, Phase phase,
                                     const std::vector<RecordPair>& pairs,
                                     const learnrisk::Table& left,
                                     const learnrisk::SideStore* left_store,
                                     ReviewMirror* mirror, bool timed);
  /// The traffic batch at request index `i` (wrapping around).
  std::vector<RecordPair> Batch(size_t i) const;
  /// Offline reference: raw FeaturePipeline::Run, then ServingEngine::Score
  /// with `risk_model`; compared bit for bit against `response`.
  bool MatchesReference(const learnrisk::Table& left,
                        const std::vector<RecordPair>& pairs,
                        const learnrisk::RiskModel& risk_model,
                        const learnrisk::ScoreResponse& response) const;
  /// Runs the phase's deferred offline-reference checks. Phases call it
  /// where they pause anyway, so the reference work never sits between two
  /// of their timed requests (where it would leave the pool idle and shape
  /// the tail).
  void FlushChecks(Phase phase);
  void Yield() const {
    if (yield_) yield_();
  }
  /// Traced run only: times the layer probes on one batch (per-column
  /// kernels, the pool's chunks, the classifier alone) and checks they
  /// reproduce the pipeline's own features and probabilities.
  void ProbeLayers(const learnrisk::SideStore& left_store,
                   const std::vector<RecordPair>& pairs,
                   const learnrisk::FeaturizedBatch& batch, Phase phase);
  Tracer* tracer(Phase phase) {
    return config_.trace ? &samples_->tracers[static_cast<int>(phase)]
                         : nullptr;
  }

  const Config& config_;
  const Dataset& ds_;
  const ServedModel& model_;
  Samples* samples_;
  Ledger* ledger_;
  learnrisk::FeaturePipeline pipeline_;
  /// Full-table prepared stores for the traced replay (built once).
  learnrisk::SideStore left_store_;
  learnrisk::SideStore right_store_;
  /// The set-up model, served by the replay and the offline reference.
  learnrisk::ServingEngine engine_;
  size_t resolve_cursor_ = 0;  ///< next traffic batch of the resolve phase
  size_t resolves_seen_ = 0;   ///< drives the sampled reference check
  size_t probes_seen_ = 0;
  /// Deferred checks per phase: what failed, and the check.
  std::vector<std::pair<std::string, std::function<bool()>>>
      pending_checks_[3];
  std::function<void()> yield_;
  /// Round 0 of the review phase: the final model's risk on the first
  /// batch, which every later round must reproduce exactly.
  std::vector<double> review_final_risk_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_
