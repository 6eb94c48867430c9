// Copyright 2026 The LearnRisk Authors
// Request-scoped decision traces — the per-request pillar of the
// observability subsystem. Where src/obs/metrics.h aggregates (how fast is
// the gateway overall), a RequestTrace answers the question the paper cares
// about for ONE request: which stages it crossed and what they cost, how
// many candidates blocking produced, which model version scored it, and —
// for its riskiest pairs — which rules fired and what the ScorerSnapshot
// explanation says. Traces are captured by the gateway into a TraceBuffer
// (obs/trace_buffer.h) under head sampling plus slow/high-risk tail
// capture, retrieved via Gateway::RecentTraces(), and serialized for tools
// by ExportTracesJson. Schema and capture semantics: docs/TRACING.md.

#ifndef LEARNRISK_OBS_TRACE_H_
#define LEARNRISK_OBS_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace learnrisk {

/// \brief One named stage measurement inside a request trace. `stage` is
/// expected to be a string literal ("block", "featurize", ...).
struct TraceStageSpan {
  const char* stage = "";
  double ms = 0.0;
};

/// \brief One weighted rule contribution inside a traced decision's
/// explanation — a plain copy of the serving layer's RiskContribution so
/// traces stay self-contained (no dependency on src/risk from src/obs).
struct TraceContribution {
  std::string description;  ///< human-readable rule text
  double weight = 0.0;      ///< learned rule weight
  double expectation = 0.0; ///< rule's risk expectation
  double rsd = 0.0;         ///< rule's risk standard deviation
};

/// \brief One scored pair selected into a trace (top-k by risk score),
/// with the evidence behind its score: the classifier probability, the
/// machine label, the indices of the risk rules that activated on its
/// feature row, and the frozen-model explanation of the heaviest rules.
struct TracedDecision {
  /// Record indices in the namespace's left/right tables. For probe
  /// (ResolveRecord) traces `left` is -1: the probe record has no index.
  int64_t left = -1;
  int64_t right = -1;
  double risk = 0.0;
  double classifier_prob = 0.0;
  bool machine_label = false;
  std::vector<uint32_t> active_rules;  ///< rule indices that fired
  std::vector<TraceContribution> explanation;
};

/// \brief A completed request's trace: id, API, namespace, model version,
/// stage spans (a copy of the request's stage list, which also feeds
/// StageTiming and the stage histograms), candidate/pair counts, and the
/// top-k riskiest decisions.
/// Immutable once published to the TraceBuffer — scrapers share it by
/// shared_ptr<const RequestTrace> and never see a partially built trace.
struct RequestTrace {
  uint64_t request_id = 0;    ///< gateway-wide, monotonically assigned
  const char* api = "";       ///< "resolve" | "resolve_record" | "add_record"
  std::string ns;             ///< namespace the request hit
  uint64_t model_version = 0; ///< scorer version that served it (0 = none)
  uint64_t start_ns = 0;      ///< steady-clock ns at request start
  uint64_t total_ns = 0;      ///< end-to-end wall time
  size_t candidates = 0;      ///< pairs produced by the blocking stage
  size_t pairs_scored = 0;    ///< pairs actually scored
  double max_risk = 0.0;      ///< highest risk score in the response
  bool head_sampled = false;  ///< captured by 1-in-N head sampling
  bool slow = false;          ///< captured because total exceeded slow_request_ms
  bool high_risk = false;     ///< captured because max_risk crossed threshold
  std::vector<TraceStageSpan> stages;   ///< in execution order
  std::vector<TracedDecision> top_risky;
};

/// \brief Serializes traces as a JSON document `{"traces": [...]}` with one
/// trace object per line, ordered by (start_ns, request_id) so timestamps
/// are monotone regardless of capture interleaving. The one-object-per-line
/// layout is load-bearing: tools/check_metrics_format.sh validates schema
/// keys, request-id uniqueness, and timestamp monotonicity line-by-line.
std::string ExportTracesJson(
    const std::vector<std::shared_ptr<const RequestTrace>>& traces);

}  // namespace learnrisk

#endif  // LEARNRISK_OBS_TRACE_H_
