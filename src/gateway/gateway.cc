// Copyright 2026 The LearnRisk Authors

#include "gateway/gateway.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <tuple>
#include <utility>

#include "common/timer.h"
#include "risk/model_io.h"

namespace learnrisk {
namespace {

// Stage names (metric label and trace span), indexed by Gateway::Stage.
constexpr const char* kStageNames[] = {
    "block", "shard_merge", "featurize", "classify",
    "risk",  "review",      "wal_append", "publish"};

// The StageTiming field each stage fills, indexed by Gateway::Stage.
constexpr double StageTiming::*kStageTimingFields[] = {
    &StageTiming::blocking_ms,   &StageTiming::shard_merge_ms,
    &StageTiming::featurize_ms,  &StageTiming::classify_ms,
    &StageTiming::score_ms,      &StageTiming::review_ms,
    &StageTiming::wal_append_ms, &StageTiming::publish_ms};

// Read API names (metric label and trace api), indexed by Gateway::Api.
constexpr const char* kApiNames[] = {"resolve", "resolve_record"};

// Feeds a millisecond measurement that was already taken for StageTiming
// into a nanosecond histogram — one clock reading backing both views.
void RecordMs(LatencyHistogram* histogram, double ms) {
  if (histogram == nullptr) return;
  histogram->Record(ms <= 0.0 ? 0 : static_cast<uint64_t>(ms * 1e6));
}

uint64_t Nanos(std::chrono::steady_clock::duration d) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

// The blocking index of every pinned shard snapshot, in shard order.
template <typename Snapshots>
std::vector<const BlockingIndex*> ShardIndexes(const Snapshots& snaps) {
  std::vector<const BlockingIndex*> indexes;
  indexes.reserve(snaps.size());
  for (const auto& snap : snaps) indexes.push_back(&snap->index);
  return indexes;
}

// --- Sharded durable layout (docs/DURABILITY.md "Sharded namespaces") ------
// An unsharded namespace keeps the original layout (<dir>/<ns>/MANIFEST...).
// A sharded one marks the namespace directory with a SHARDS meta file and
// keeps one full NamespaceLog per shard under <dir>/<ns>/shards/s<k>/, so
// every per-shard WAL/checkpoint/manifest keeps the exact single-namespace
// protocol. The SHARDS file is written (tmp + rename) before any shard log
// exists; the sharded state counts as committed only once every shard's
// manifest is committed — anything less is registration debris.

constexpr char kShardsFileName[] = "SHARDS";
constexpr char kShardsHeader[] = "learnrisk-namespace-shards v1";

std::string ShardsFilePath(const DurabilityOptions& options,
                           const std::string& ns) {
  return options.dir + "/" + ns + "/" + kShardsFileName;
}

// Durability options addressing the per-shard logs of one namespace: shard
// k's log is namespace "s<k>" under <dir>/<ns>/shards.
DurabilityOptions ShardDurability(const DurabilityOptions& options,
                                  const std::string& ns) {
  DurabilityOptions shard = options;
  shard.dir = options.dir + "/" + ns + "/shards";
  return shard;
}

std::string ShardLogName(size_t shard) {
  return "s" + std::to_string(shard);
}

Status WriteShardsFile(const std::string& path, size_t num_shards) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return Status::IOError("cannot open '" + tmp + "'");
    out << kShardsHeader << "\n" << num_shards << "\n";
    out.flush();
    if (!out) return Status::IOError("error writing '" + tmp + "'");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("cannot commit '" + path + "': " + ec.message());
  }
  return Status::OK();
}

// Shard count recorded for a namespace; 0 = no SHARDS file (unsharded /
// legacy layout). The file is rename-committed, so a corrupt one is real
// damage, not a torn write.
Result<size_t> ReadShardsFile(const std::string& path) {
  if (!std::filesystem::exists(path)) return size_t{0};
  std::ifstream in(path);
  std::string header;
  size_t num_shards = 0;
  if (!in || !std::getline(in, header) || header != kShardsHeader ||
      !(in >> num_shards) || num_shards < 2) {
    return Status::IOError("corrupt shard meta file '" + path + "'");
  }
  return num_shards;
}

// The records shard `shard` of `num_shards` owns, in local-index order
// (the ShardedId layout, with table indices as global ids).
Result<Table> ShardSubTable(const Table& src, size_t shard,
                            size_t num_shards) {
  Table sub(src.schema());
  for (ShardedId at{shard, 0}; at.Global(num_shards) < src.num_records();
       ++at.local) {
    const size_t i = at.Global(num_shards);
    LEARNRISK_RETURN_NOT_OK(sub.Append(src.record(i), src.entity_id(i)));
  }
  return sub;
}

// The checks RegisterNamespace and RecoverNamespace both make on the
// code-side half of a spec, in this order; `spec_kind` names the spec in
// the messages.
Status CheckPipelineSpec(const std::string& spec_kind,
                         const MetricSuite& suite,
                         const BinaryClassifier* classifier,
                         const std::vector<size_t>& classifier_columns,
                         const BlockingConfig& blocking,
                         const Schema& schema) {
  if (suite.num_metrics() == 0) {
    return Status::InvalidArgument(spec_kind + " has an empty metric suite");
  }
  if (classifier == nullptr) {
    return Status::InvalidArgument(spec_kind + " has no classifier");
  }
  for (size_t c : classifier_columns) {
    if (c >= suite.num_metrics()) {
      return Status::InvalidArgument("classifier column out of range");
    }
  }
  if (blocking.key_attribute >= schema.num_attributes()) {
    return Status::InvalidArgument("blocking key attribute out of range");
  }
  return Status::OK();
}

// The min(k, n) riskiest indices, risk descending, ties broken by original
// order. One of these per request feeds BOTH trace capture and the review
// enqueue, so the decisions are scanned once however many consumers want
// the top of the ranking.
std::vector<size_t> TopRiskIndices(const std::vector<double>& risk,
                                   size_t k) {
  std::vector<size_t> order(risk.size());
  std::iota(order.begin(), order.end(), size_t{0});
  k = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&risk](size_t a, size_t b) {
                      if (risk[a] != risk[b]) return risk[a] > risk[b];
                      return a < b;
                    });
  order.resize(k);
  return order;
}

}  // namespace

// --- Per-request stage list --------------------------------------------------
// Every stage is timed exactly once, into a fixed-capacity list (recording
// never allocates). Finish() — at the end of the request, or from the
// destructor on an early error return — derives the request's views from
// that list in one place: the StageTiming fields, one sample per crossed
// stage in the namespace's stage histograms, and the request-latency
// sample. A captured trace copies the same list, so no two views can
// disagree on what a stage cost.
class Gateway::RequestStages {
 public:
  using Clock = std::chrono::steady_clock;
  static_assert(std::size(kStageNames) == kNumStages);
  static_assert(std::size(kStageTimingFields) == kNumStages);
  static_assert(std::size(kApiNames) == kNumApis);

  /// \brief Times one stage from construction to Stop() or scope exit.
  class Span {
   public:
    Span(RequestStages& stages, Stage stage)
        : stages_(&stages), stage_(stage), start_(Clock::now()) {}
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { Stop(); }

    /// \brief Ends the span now (idempotent).
    void Stop() {
      if (stages_ == nullptr) return;
      stages_->Add(stage_,
                   static_cast<double>(Nanos(Clock::now() - start_)) / 1e6);
      stages_ = nullptr;
    }

   private:
    RequestStages* stages_;
    Stage stage_;
    Clock::time_point start_;
  };

  /// `request_latency` may be null (AddRecord has no latency histogram);
  /// `timing` receives the stage fields at Finish().
  RequestStages(const NamespaceMetrics& metrics,
                LatencyHistogram* request_latency, StageTiming* timing)
      : metrics_(metrics),
        request_latency_(request_latency),
        timing_(timing),
        start_(Clock::now()) {}
  RequestStages(const RequestStages&) = delete;
  RequestStages& operator=(const RequestStages&) = delete;
  ~RequestStages() { Finish(); }

  /// \brief Records a stage measured elsewhere (the pipeline's featurize
  /// and classify, the shard merge).
  void Add(Stage stage, double ms) {
    if (size_ < entries_.size()) entries_[size_++] = Entry{stage, ms};
  }

  /// \brief Ends the request (idempotent) and feeds every view of the
  /// list.
  void Finish() {
    if (finished_) return;
    finished_ = true;
    total_ns_ = Nanos(Clock::now() - start_);
    if (request_latency_ != nullptr) request_latency_->Record(total_ns_);
    for (size_t i = 0; i < size_; ++i) {
      const Entry& entry = entries_[i];
      RecordMs(metrics_.stage_latency[entry.stage], entry.ms);
      timing_->*kStageTimingFields[entry.stage] = entry.ms;
    }
  }

  /// \brief Steady-clock ns at request start (trace timestamps: monotone
  /// within the process, never wall-clock).
  uint64_t start_ns() const { return Nanos(start_.time_since_epoch()); }
  uint64_t total_ns() const { return total_ns_; }

  /// \brief The list as trace spans, in execution order.
  std::vector<TraceStageSpan> TraceSpans() const {
    std::vector<TraceStageSpan> spans;
    spans.reserve(size_);
    for (size_t i = 0; i < size_; ++i) {
      spans.push_back(
          TraceStageSpan{kStageNames[entries_[i].stage], entries_[i].ms});
    }
    return spans;
  }

 private:
  struct Entry {
    Stage stage;
    double ms;
  };

  const NamespaceMetrics& metrics_;
  LatencyHistogram* request_latency_;
  StageTiming* timing_;
  Clock::time_point start_;
  std::array<Entry, kNumStages> entries_;
  size_t size_ = 0;
  bool finished_ = false;
  uint64_t total_ns_ = 0;
};

Gateway::Gateway(GatewayOptions options)
    : options_(std::move(options)), registry_(options_.registry) {
  if (options_.trace.enabled) {
    traces_ = std::make_unique<TraceBuffer>(options_.trace.buffer_capacity);
  }
  if (!options_.enable_metrics) return;
  if (traces_ != nullptr) {
    metric_registry_.GaugeCallback(
        "learnrisk_gateway_traces_captured", {},
        "Request traces captured into the audit ring (head + tail)",
        [this]() { return static_cast<int64_t>(traces_->pushed()); });
    metric_registry_.GaugeCallback(
        "learnrisk_gateway_traces_dropped", {},
        "Captured traces overwritten before a scrape (ring overflow)",
        [this]() { return static_cast<int64_t>(traces_->dropped()); });
  }
  // Gateway-wide instruments: the registry's LRU counters, the engine-level
  // serving counters (shared by every engine the registry creates), and the
  // snapshot-time gauges over registry state.
  ModelRegistryMetrics registry_metrics;
  registry_metrics.publishes =
      metric_registry_.Counter("learnrisk_registry_publishes_total", {},
                               "Successful model publishes via the registry");
  registry_metrics.engine_hits = metric_registry_.Counter(
      "learnrisk_registry_engine_hits_total", {},
      "Engine lookups served by a resident engine");
  registry_metrics.engine_reloads = metric_registry_.Counter(
      "learnrisk_registry_engine_reloads_total", {},
      "Spilled engine snapshots reloaded from disk");
  registry_metrics.spills =
      metric_registry_.Counter("learnrisk_registry_spills_total", {},
                               "Eviction model files written to the spill dir");
  registry_metrics.evictions =
      metric_registry_.Counter("learnrisk_registry_evictions_total", {},
                               "Resident engines dropped after a spill");
  registry_metrics.pinned_engine_waits = metric_registry_.Counter(
      "learnrisk_registry_pinned_engine_waits_total", {},
      "Eviction rounds left over cap because every candidate was pinned");
  ServingEngineMetrics engine_metrics;
  engine_metrics.publishes =
      metric_registry_.Counter("learnrisk_serving_publishes_total", {},
                               "Scorer snapshot swaps installed by engines");
  engine_metrics.score_batches =
      metric_registry_.Counter("learnrisk_serving_score_batches_total", {},
                               "Successful ServingEngine::Score calls");
  engine_metrics.scored_pairs =
      metric_registry_.Counter("learnrisk_serving_scored_pairs_total", {},
                               "Pairs scored across those batches");
  engine_metrics.score_ns = metric_registry_.Latency(
      "learnrisk_serving_score_latency_seconds", {},
      "Per-batch ServingEngine::Score wall time (all outcomes)");
  registry_.set_metrics(registry_metrics, engine_metrics);
  metric_registry_.GaugeCallback(
      "learnrisk_registry_resident_engines", {},
      "Namespaces whose engine snapshot is currently in memory",
      [this]() { return static_cast<int64_t>(registry_.resident_count()); });
  metric_registry_.GaugeCallback(
      "learnrisk_registry_namespaces", {},
      "Namespaces known to the model registry", [this]() {
        return static_cast<int64_t>(registry_.Namespaces().size());
      });
}

learnrisk::MetricsSnapshot Gateway::MetricsSnapshot() const {
  return metric_registry_.Snapshot();
}

Gateway::NamespaceMetrics Gateway::CreateNamespaceMetrics(
    const std::string& ns, const std::vector<std::string>& metric_names) {
  NamespaceMetrics m;
  const MetricLabels ns_labels = {{"namespace", ns}};
  if (options_.drift.enabled) {
    m.feature_values.reserve(metric_names.size());
    for (const std::string& column : metric_names) {
      // Label keys sorted ("column" < "namespace") like every other family.
      m.feature_values.push_back(metric_registry_.Values(
          "learnrisk_gateway_feature_value",
          {{"column", column}, {"namespace", ns}},
          "Distribution of served feature values per metric column"));
    }
  }
  for (size_t stage = 0; stage < kNumStages; ++stage) {
    if (stage == kReviewStage && !options_.review.enabled) continue;
    m.stage_latency[stage] = metric_registry_.Latency(
        "learnrisk_gateway_stage_latency_seconds",
        {{"namespace", ns}, {"stage", kStageNames[stage]}},
        "Per-stage wall time of gateway requests (StageTiming's twin)");
  }
  if (options_.review.enabled) {
    m.review_enqueued = metric_registry_.Counter(
        "learnrisk_gateway_review_enqueued_total", ns_labels,
        "Review offers admitted into the queue");
    m.review_merged = metric_registry_.Counter(
        "learnrisk_gateway_review_merged_total", ns_labels,
        "Review offers deduplicated onto an already-queued or labeled pair");
    m.review_dropped = metric_registry_.Counter(
        "learnrisk_gateway_review_dropped_total", ns_labels,
        "Review offers dropped at queue capacity (displacements show in "
        "ReviewStats)");
    m.review_drained = metric_registry_.Counter(
        "learnrisk_gateway_review_drained_total", ns_labels,
        "Review items handed to a reviewer via DrainReview");
    m.review_labels = metric_registry_.Counter(
        "learnrisk_gateway_review_labels_total", ns_labels,
        "Human labels accepted via SubmitReviewLabel");
    m.review_retrains = metric_registry_.Counter(
        "learnrisk_gateway_review_retrains_total", ns_labels,
        "Successful retrain-and-publish cycles from review labels");
    m.review_log_failures = metric_registry_.Counter(
        "learnrisk_gateway_review_log_failures_total", ns_labels,
        "Review-WAL append failures absorbed by a fail-open enqueue "
        "(request served, offer skipped)");
    m.review_replay_misses = metric_registry_.Counter(
        "learnrisk_gateway_review_replay_misses_total", ns_labels,
        "Recovery-replay review events whose pair was not found "
        "(duplicate frames from ambiguously-failed appends; tolerated)");
    m.retrain_latency = metric_registry_.Latency(
        "learnrisk_gateway_retrain_latency_seconds", ns_labels,
        "Incremental retrain wall time (labels to tuned model)");
    m.retrain_publish_latency = metric_registry_.Latency(
        "learnrisk_gateway_retrain_publish_latency_seconds", ns_labels,
        "Retrained-model publish wall time (baseline, hot-swap, checkpoint)");
  }
  for (size_t api = 0; api < kNumApis; ++api) {
    const MetricLabels api_labels = {{"api", kApiNames[api]},
                                     {"namespace", ns}};
    m.request_latency[api] = metric_registry_.Latency(
        "learnrisk_gateway_request_latency_seconds", api_labels,
        "End-to-end gateway request wall time (all outcomes)");
    m.requests[api] = metric_registry_.Counter(
        "learnrisk_gateway_requests_total", api_labels,
        "Successfully answered gateway requests");
  }
  m.pairs_scored =
      metric_registry_.Counter("learnrisk_gateway_pairs_scored_total",
                               ns_labels, "Candidate pairs risk-scored");
  m.records_added = metric_registry_.Counter(
      "learnrisk_gateway_records_added_total", ns_labels,
      "Records appended online via AddRecord");
  m.recoveries = metric_registry_.Counter(
      "learnrisk_gateway_recoveries_total", ns_labels,
      "Successful RecoverNamespace calls");
  m.recovered_wal_entries = metric_registry_.Counter(
      "learnrisk_gateway_recovered_wal_entries_total", ns_labels,
      "WAL tail entries replayed during recovery");
  m.recovered_wal_bytes_discarded = metric_registry_.Counter(
      "learnrisk_gateway_recovered_wal_bytes_discarded_total", ns_labels,
      "Torn or corrupt WAL tail bytes truncated during recovery");
  m.checkpoint_latency = metric_registry_.Latency(
      "learnrisk_gateway_checkpoint_latency_seconds", ns_labels,
      "Full checkpoint wall time (segments, model, manifest swap)");
  m.recover_latency = metric_registry_.Latency(
      "learnrisk_gateway_recover_latency_seconds", ns_labels,
      "Full namespace recovery wall time (load, replay, rebuild)");
  m.risk_scores =
      metric_registry_.Values("learnrisk_gateway_risk_score", ns_labels,
                              "Distribution of served risk scores");
  m.durability.wal_appends = metric_registry_.Counter(
      "learnrisk_gateway_wal_appends_total", ns_labels,
      "Acknowledged WAL record appends");
  m.durability.wal_append_bytes = metric_registry_.Counter(
      "learnrisk_gateway_wal_append_bytes_total", ns_labels,
      "WAL frame bytes written");
  m.durability.wal_fsyncs = metric_registry_.Counter(
      "learnrisk_gateway_wal_fsyncs_total", ns_labels,
      "fsync calls on the active WAL (fsync_appends mode)");
  m.durability.checkpoints = metric_registry_.Counter(
      "learnrisk_gateway_checkpoints_total", ns_labels,
      "Committed checkpoints (manifest swapped)");
  m.durability.checkpoint_bytes = metric_registry_.Counter(
      "learnrisk_gateway_checkpoint_bytes_total", ns_labels,
      "Checkpoint segment bytes written");
  m.durability.checkpoint_records = metric_registry_.Counter(
      "learnrisk_gateway_checkpoint_records_total", ns_labels,
      "Records across written checkpoint segments");
  return m;
}

void Gateway::RegisterStateGauges(
    const std::string& ns, const std::shared_ptr<NamespaceState>& state) {
  std::weak_ptr<NamespaceState> weak = state;
  // Record-count gauges report the namespace total (sum over shards);
  // sharded namespaces additionally expose a per-shard family below, kept
  // separate so Prometheus sums over either family stay correct.
  auto records_gauge = [weak](BlockingSide side) {
    return [weak, side]() -> int64_t {
      const std::shared_ptr<NamespaceState> s = weak.lock();
      if (s == nullptr) return 0;
      int64_t total = 0;
      for (const auto& shard : s->shards) {
        total += static_cast<int64_t>(
            LoadShardSnapshot(*shard)->index.num_records(side));
      }
      return total;
    };
  };
  metric_registry_.GaugeCallback(
      "learnrisk_gateway_records", {{"namespace", ns}, {"side", "left"}},
      "Records visible in the namespace's current snapshot",
      records_gauge(BlockingSide::kLeft));
  if (!state->dedup) {
    metric_registry_.GaugeCallback(
        "learnrisk_gateway_records", {{"namespace", ns}, {"side", "right"}},
        "Records visible in the namespace's current snapshot",
        records_gauge(BlockingSide::kRight));
  }
  if (state->num_shards > 1) {
    auto shard_records_gauge = [weak](size_t shard_idx, BlockingSide side) {
      return [weak, shard_idx, side]() -> int64_t {
        const std::shared_ptr<NamespaceState> s = weak.lock();
        if (s == nullptr || shard_idx >= s->shards.size()) return 0;
        return static_cast<int64_t>(
            LoadShardSnapshot(*s->shards[shard_idx])
                ->index.num_records(side));
      };
    };
    for (size_t k = 0; k < state->num_shards; ++k) {
      const std::string shard_label = std::to_string(k);
      metric_registry_.GaugeCallback(
          "learnrisk_gateway_shard_records",
          {{"namespace", ns}, {"shard", shard_label}, {"side", "left"}},
          "Records visible in one shard's current snapshot",
          shard_records_gauge(k, BlockingSide::kLeft));
      if (!state->dedup) {
        metric_registry_.GaugeCallback(
            "learnrisk_gateway_shard_records",
            {{"namespace", ns}, {"shard", shard_label}, {"side", "right"}},
            "Records visible in one shard's current snapshot",
            shard_records_gauge(k, BlockingSide::kRight));
      }
    }
  }
  if (state->review != nullptr) {
    metric_registry_.GaugeCallback(
        "learnrisk_gateway_review_queue_depth", {{"namespace", ns}},
        "Resident (drainable) pairs in the namespace's review queue",
        [weak]() -> int64_t {
          const std::shared_ptr<NamespaceState> s = weak.lock();
          return s == nullptr ? 0
                              : static_cast<int64_t>(s->review->depth());
        });
    metric_registry_.GaugeCallback(
        "learnrisk_gateway_review_outstanding", {{"namespace", ns}},
        "Drained review pairs awaiting a label",
        [weak]() -> int64_t {
          const std::shared_ptr<NamespaceState> s = weak.lock();
          return s == nullptr
                     ? 0
                     : static_cast<int64_t>(s->review->outstanding());
        });
  }
  if (state->shards[0]->log != nullptr) {
    metric_registry_.GaugeCallback(
        "learnrisk_gateway_wal_entries_since_checkpoint",
        {{"namespace", ns}},
        "WAL entries appended since the namespace's last checkpoint "
        "(sharded: summed over the per-shard WALs)",
        [weak]() -> int64_t {
          const std::shared_ptr<NamespaceState> s = weak.lock();
          if (s == nullptr) return 0;
          int64_t total = 0;
          for (const auto& shard : s->shards) {
            std::lock_guard<std::mutex> writer(shard->writer_mu);
            if (shard->log != nullptr) {
              total += static_cast<int64_t>(
                  shard->log->wal_entries_since_checkpoint());
            }
          }
          return total;
        });
  }
  if (!state->metrics.feature_values.empty()) {
    // Per-column drift divergence, computed at snapshot time from the live
    // feature histograms vs the baseline the last Publish supplied. Reads 0
    // until a model is published with a baseline (docs/TRACING.md).
    const char* psi_help =
        "PSI (micro-units) of the live distribution vs the published model's "
        "training baseline";
    const std::vector<std::string>& columns = state->pipeline.metric_names();
    const size_t num_columns =
        std::min(columns.size(), state->metrics.feature_values.size());
    for (size_t c = 0; c < num_columns; ++c) {
      metric_registry_.GaugeCallback(
          "learnrisk_gateway_drift_psi_micros",
          {{"column", columns[c]}, {"namespace", ns}}, psi_help,
          [weak, c]() -> int64_t {
            const std::shared_ptr<NamespaceState> s = weak.lock();
            if (s == nullptr) return 0;
            const std::shared_ptr<const DriftBaseline> baseline =
                std::atomic_load_explicit(&s->drift_baseline,
                                          std::memory_order_acquire);
            if (baseline == nullptr || c >= baseline->columns().size() ||
                c >= s->metrics.feature_values.size()) {
              return 0;
            }
            return PsiMicros(baseline->columns()[c],
                             s->metrics.feature_values[c]->Snapshot());
          });
    }
    if (state->metrics.risk_scores != nullptr) {
      metric_registry_.GaugeCallback(
          "learnrisk_gateway_drift_psi_micros",
          {{"column", "risk_score"}, {"namespace", ns}}, psi_help,
          [weak]() -> int64_t {
            const std::shared_ptr<NamespaceState> s = weak.lock();
            if (s == nullptr) return 0;
            const std::shared_ptr<const DriftBaseline> baseline =
                std::atomic_load_explicit(&s->drift_baseline,
                                          std::memory_order_acquire);
            if (baseline == nullptr || !baseline->has_risk() ||
                s->metrics.risk_scores == nullptr) {
              return 0;
            }
            return PsiMicros(baseline->risk(),
                             s->metrics.risk_scores->Snapshot());
          });
    }
    const double alert_psi = options_.drift.alert_psi;
    metric_registry_.GaugeCallback(
        "learnrisk_gateway_drift_columns_alerted", {{"namespace", ns}},
        "Metric columns whose PSI vs the training baseline is at or above "
        "DriftOptions::alert_psi",
        [weak, alert_psi]() -> int64_t {
          const std::shared_ptr<NamespaceState> s = weak.lock();
          if (s == nullptr) return 0;
          const std::shared_ptr<const DriftBaseline> baseline =
              std::atomic_load_explicit(&s->drift_baseline,
                                        std::memory_order_acquire);
          if (baseline == nullptr) return 0;
          int64_t alerted = 0;
          const size_t n = std::min(baseline->columns().size(),
                                    s->metrics.feature_values.size());
          for (size_t c = 0; c < n; ++c) {
            if (Psi(baseline->columns()[c],
                    s->metrics.feature_values[c]->Snapshot()) >= alert_psi) {
              ++alerted;
            }
          }
          return alerted;
        });
  }
}

Status Gateway::AddBaseShard(NamespaceState& state, const Table& left,
                             const Table& right,
                             const BlockingConfig& blocking) {
  const Table& target = state.dedup ? left : right;
  Result<BlockingIndex> index = BlockingIndex::Build(left, target, blocking);
  if (!index.ok()) return index.status();
  // The base snapshot owns segment copies of the sub-tables, so AddRecord
  // can grow the namespace online without touching the caller's tables.
  auto snapshot = std::make_shared<NamespaceSnapshot>();
  snapshot->index = index.MoveValueOrDie();
  snapshot->left = SideStore::Build(left, state.pipeline.suite());
  if (!state.dedup) {
    snapshot->right = SideStore::Build(right, state.pipeline.suite());
  }
  auto shard = std::make_unique<Shard>();
  // The first snapshot is published before the state becomes visible in
  // the namespace map; no reader can observe a null snapshot.
  shard->snapshot = std::move(snapshot);
  state.shards.push_back(std::move(shard));
  state.routed_left.push_back(left.num_records());
  state.routed_right.push_back(state.dedup ? 0 : right.num_records());
  return Status::OK();
}

Status Gateway::RegisterNamespace(const std::string& ns, NamespaceSpec spec) {
  if (!ModelRegistry::ValidNamespace(ns)) {
    return Status::InvalidArgument("invalid namespace '" + ns + "'");
  }
  if (spec.left == nullptr) {
    return Status::InvalidArgument("namespace spec has no left table");
  }
  const bool dedup = spec.right == nullptr || spec.right == spec.left;
  if (!dedup && !spec.left->schema().Equals(spec.right->schema())) {
    return Status::InvalidArgument(
        "left and right tables have different schemas");
  }
  LEARNRISK_RETURN_NOT_OK(CheckPipelineSpec(
      "namespace spec", spec.suite, spec.classifier.get(),
      spec.classifier_columns, spec.blocking, spec.left->schema()));
  if (HasNamespace(ns)) {
    // Checked again at the emplace below (the build is lock-free and could
    // race another registration); this early exit just avoids building the
    // base segments and the blocking index for a name that's taken.
    return Status::FailedPrecondition("namespace '" + ns +
                                      "' already registered");
  }

  const size_t num_shards = std::max<size_t>(spec.shards, 1);
  auto state = std::make_shared<NamespaceState>();
  state->dedup = dedup;
  state->num_shards = num_shards;
  state->schema = spec.left->schema();
  state->pipeline =
      FeaturePipeline(std::move(spec.suite), std::move(spec.classifier),
                      std::move(spec.classifier_columns));
  state->pipeline.set_parallelism(options_.request_parallelism);

  // Split the base tables round-robin by global id (record i -> shard
  // i % S at local index i / S, so global ids equal the table indices
  // exactly — the invariant every cross-shard merge relies on). S == 1
  // skips the copy and builds straight from the spec's tables.
  std::vector<Table> left_parts;
  std::vector<Table> right_parts;
  if (num_shards > 1) {
    for (size_t k = 0; k < num_shards; ++k) {
      Result<Table> left_part = ShardSubTable(*spec.left, k, num_shards);
      if (!left_part.ok()) return left_part.status();
      left_parts.push_back(left_part.MoveValueOrDie());
      if (!dedup) {
        Result<Table> right_part = ShardSubTable(*spec.right, k, num_shards);
        if (!right_part.ok()) return right_part.status();
        right_parts.push_back(right_part.MoveValueOrDie());
      }
    }
  }
  auto shard_left = [&](size_t k) -> const Table& {
    return num_shards == 1 ? *spec.left : left_parts[k];
  };
  auto shard_right = [&](size_t k) -> const Table& {
    if (dedup) return shard_left(k);
    return num_shards == 1 ? *spec.right : right_parts[k];
  };

  for (size_t k = 0; k < num_shards; ++k) {
    LEARNRISK_RETURN_NOT_OK(
        AddBaseShard(*state, shard_left(k), shard_right(k), spec.blocking));
  }
  // Instruments are get-or-create, so a registration that loses the emplace
  // race below simply shares the winner's instruments — nothing leaks.
  if (options_.enable_metrics) {
    state->metrics = CreateNamespaceMetrics(ns, state->pipeline.metric_names());
  }
  if (options_.review.enabled) {
    state->review =
        std::make_shared<ReviewQueue>(options_.review.queue_capacity);
  }

  if (!options_.durability.dir.empty()) {
    // Durable registration: commit the base tables as checkpoint 1 before
    // the namespace serves anything, so a crash at any later point can
    // recover at least the registered state. Fails (leaving the gateway
    // unchanged) if committed durable state for the name already exists —
    // that state must be recovered, not silently overwritten. The sharded
    // and unsharded layouts guard against each other: an unsharded
    // registration refuses to clobber committed sharded state and vice
    // versa.
    Result<size_t> prior_shards =
        ReadShardsFile(ShardsFilePath(options_.durability, ns));
    if (!prior_shards.ok()) return prior_shards.status();
    if (num_shards > 1 && NamespaceLog::Exists(options_.durability.dir, ns)) {
      return Status::FailedPrecondition(
          "durable state already exists for namespace '" + ns +
          "'; recover it instead of re-registering");
    }
    // A SHARDS file with every shard manifest committed is a complete
    // sharded namespace; anything less is debris from an interrupted
    // registration (a crash before the last manifest commit means the
    // registration was never acknowledged) and is cleared below.
    const DurabilityOptions shard_opts =
        ShardDurability(options_.durability, ns);
    size_t committed = 0;
    while (committed < *prior_shards &&
           NamespaceLog::Exists(shard_opts.dir, ShardLogName(committed))) {
      ++committed;
    }
    if (*prior_shards > 0 && committed == *prior_shards) {
      return Status::FailedPrecondition(
          "sharded durable state already exists for namespace '" + ns +
          "'; recover it instead of re-registering");
    }
    if (num_shards == 1) {
      // Sharded debris: NamespaceLog::Create clears the whole namespace
      // directory (no legacy MANIFEST exists).
      Result<std::unique_ptr<NamespaceLog>> log =
          NamespaceLog::Create(options_.durability, ns);
      if (!log.ok()) return log.status();
      state->shards[0]->log = log.MoveValueOrDie();
      state->shards[0]->log->set_metrics(state->metrics.durability);
      TraceSpan span(state->metrics.checkpoint_latency);
      LEARNRISK_RETURN_NOT_OK(state->shards[0]->log->WriteCheckpoint(
          *spec.left, dedup ? nullptr : spec.right.get(), 0, nullptr));
    } else {
      if (*prior_shards > 0) {
        std::error_code ec;
        std::filesystem::remove_all(shard_opts.dir, ec);
        std::filesystem::remove(ShardsFilePath(options_.durability, ns), ec);
      }
      {
        std::error_code ec;
        std::filesystem::create_directories(options_.durability.dir + "/" + ns,
                                            ec);
        if (ec) {
          return Status::IOError("cannot create namespace directory for '" +
                                 ns + "': " + ec.message());
        }
      }
      // The SHARDS marker lands before any shard log so recovery (and the
      // debris detection above) always knows the intended layout.
      LEARNRISK_RETURN_NOT_OK(WriteShardsFile(
          ShardsFilePath(options_.durability, ns), num_shards));
      for (size_t k = 0; k < num_shards; ++k) {
        Result<std::unique_ptr<NamespaceLog>> log =
            NamespaceLog::Create(shard_opts, ShardLogName(k));
        if (!log.ok()) return log.status();
        Shard& shard = *state->shards[k];
        shard.log = log.MoveValueOrDie();
        shard.log->set_metrics(state->metrics.durability);
        TraceSpan span(state->metrics.checkpoint_latency);
        LEARNRISK_RETURN_NOT_OK(shard.log->WriteCheckpoint(
            shard_left(k), dedup ? nullptr : &shard_right(k), 0, nullptr));
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!namespaces_.emplace(ns, state).second) {
      return Status::FailedPrecondition("namespace '" + ns +
                                        "' already registered");
    }
  }
  if (options_.enable_metrics) RegisterStateGauges(ns, state);
  return Status::OK();
}

bool Gateway::HasNamespace(const std::string& ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  return namespaces_.count(ns) > 0;
}

std::vector<std::string> Gateway::Namespaces() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(namespaces_.size());
  for (const auto& [ns, state] : namespaces_) names.push_back(ns);
  return names;
}

Result<uint64_t> Gateway::Publish(
    const std::string& ns, RiskModel model,
    std::shared_ptr<const DriftBaseline> drift_baseline) {
  Result<std::shared_ptr<NamespaceState>> state = State(ns);
  if (!state.ok()) return state.status();
  Result<uint64_t> version =
      registry_.Publish(ns, std::move(model), drift_baseline);
  if (version.ok() && drift_baseline != nullptr) {
    // Cache the baseline on the namespace so the drift gauge callbacks read
    // it with one atomic load — never through registry_.Engine(), whose
    // spill-reload can do IO a metrics scrape must not wait on.
    std::atomic_store_explicit(&(*state)->drift_baseline,
                               std::move(drift_baseline),
                               std::memory_order_release);
  }
  return version;
}

std::vector<std::shared_ptr<const RequestTrace>> Gateway::RecentTraces()
    const {
  if (traces_ == nullptr) return {};
  return traces_->Snapshot();
}

Result<std::shared_ptr<Gateway::NamespaceState>> Gateway::State(
    const std::string& ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = namespaces_.find(ns);
  if (it == namespaces_.end()) {
    return Status::NotFound("unknown namespace '" + ns + "'");
  }
  return it->second;
}

std::shared_ptr<const Gateway::NamespaceSnapshot> Gateway::LoadShardSnapshot(
    const Shard& shard) {
  return std::atomic_load_explicit(&shard.snapshot,
                                   std::memory_order_acquire);
}

std::vector<std::shared_ptr<const Gateway::NamespaceSnapshot>>
Gateway::PinSnapshots(const NamespaceState& state) {
  std::vector<std::shared_ptr<const NamespaceSnapshot>> snaps;
  snaps.reserve(state.shards.size());
  for (const auto& shard : state.shards) {
    snaps.push_back(LoadShardSnapshot(*shard));
  }
  return snaps;
}

size_t Gateway::RouteShard(NamespaceState& state, BlockingSide side) {
  if (state.shards.size() == 1) return 0;
  std::lock_guard<std::mutex> lock(state.route_mu);
  // Least-loaded shard, lowest index on ties. For sequential adds this
  // reproduces the unsharded global id sequence exactly: after n records a
  // side's counts are the balanced split of n, and the minimum sits at
  // shard n % S — precisely where global id n lives.
  std::vector<size_t>& counts =
      (state.dedup || side == BlockingSide::kLeft) ? state.routed_left
                                                   : state.routed_right;
  size_t best = 0;
  for (size_t k = 1; k < counts.size(); ++k) {
    if (counts[k] < counts[best]) best = k;
  }
  ++counts[best];
  return best;
}

void Gateway::MaybeCaptureTrace(
    const char* api, const std::string& ns, uint64_t request_id,
    const RequestStages& stages, const PairKeys& keys,
    const FeaturizedBatch* batch, const ScoreResponse* scores,
    const std::shared_ptr<const ScorerSnapshot>& scorer,
    const std::vector<size_t>& top_risk) {
  const uint64_t total_ns = stages.total_ns();
  const TraceOptions& t = options_.trace;
  const bool head_sampled =
      t.sample_every > 0 && request_id % t.sample_every == 0;
  const bool slow = t.slow_request_ms > 0.0 &&
                    static_cast<double>(total_ns) >= t.slow_request_ms * 1e6;
  // The ranking is risk-descending: its head is the request's maximum.
  const double max_risk =
      top_risk.empty() ? 0.0 : std::max(0.0, scores->risk[top_risk[0]]);
  const bool high_risk = t.high_risk_threshold >= 0.0 && !top_risk.empty() &&
                         max_risk >= t.high_risk_threshold;
  if (!head_sampled && !slow && !high_risk) return;

  // From here on the request is captured and allocation is fine — capture
  // is off the common path by construction (1-in-N plus tail triggers).
  auto trace = std::make_shared<RequestTrace>();
  trace->request_id = request_id;
  trace->api = api;
  trace->ns = ns;
  trace->model_version = scores != nullptr ? scores->model_version : 0;
  trace->start_ns = stages.start_ns();
  trace->total_ns = total_ns;
  trace->candidates = keys.size();
  trace->pairs_scored = scores != nullptr ? scores->risk.size() : 0;
  trace->max_risk = max_risk;
  trace->head_sampled = head_sampled;
  trace->slow = slow;
  trace->high_risk = high_risk;
  trace->stages = stages.TraceSpans();

  if (!top_risk.empty()) {
    // Top-k riskiest pairs, ties broken by original order: the head of the
    // request's shared ranking.
    const size_t k = std::min(t.top_k, top_risk.size());
    // The scorer may be one publish newer than the one that produced
    // `scores` (hot-swap mid-request); re-validate its column needs before
    // reading feature rows through its compiled plan.
    const bool can_explain =
        scorer != nullptr &&
        batch->features.cols() >= scorer->compiled().min_feature_columns();
    trace->top_risky.reserve(k);
    for (size_t rank = 0; rank < k; ++rank) {
      const size_t idx = top_risk[rank];
      TracedDecision decision;
      if (idx < keys.size()) {
        decision.left = keys.left(idx);
        decision.right = keys.right(idx);
      }
      decision.risk = scores->risk[idx];
      decision.classifier_prob =
          idx < batch->probs.size() ? batch->probs[idx] : 0.0;
      decision.machine_label = idx < scores->machine_label.size() &&
                               scores->machine_label[idx] != 0;
      if (can_explain) {
        decision.active_rules =
            scorer->compiled().ActiveRules(batch->features.row(idx));
        const std::vector<RiskContribution> contributions = scorer->Explain(
            decision.active_rules.data(), decision.active_rules.size(),
            decision.classifier_prob, t.top_k);
        decision.explanation.reserve(contributions.size());
        for (const RiskContribution& c : contributions) {
          decision.explanation.push_back(TraceContribution{
              c.description, c.weight, c.expectation, c.rsd});
        }
      }
      trace->top_risky.push_back(std::move(decision));
    }
  }
  traces_->Push(std::move(trace));
}

Status Gateway::EnqueueReview(NamespaceState& s, const FeaturizedBatch& batch,
                              const ScoreResponse& scores,
                              uint64_t request_id,
                              const std::vector<size_t>& top_risk,
                              const PairKeys& keys) {
  const ReviewOptions& r = options_.review;
  // Build the offer batch from the shared ranking: top-budget decisions at
  // or above the risk floor (the order is risk-descending, so the first
  // decision below the floor ends the scan).
  std::vector<ReviewItem> items;
  const size_t budget = std::min(r.per_request_budget, top_risk.size());
  items.reserve(budget);
  for (size_t rank = 0; rank < budget; ++rank) {
    const size_t idx = top_risk[rank];
    if (scores.risk[idx] < r.min_risk) break;
    if (idx >= keys.size()) continue;
    ReviewItem item;
    item.left = keys.left(idx);
    item.right = keys.right(idx);
    item.risk = scores.risk[idx];
    item.classifier_prob = idx < batch.probs.size() ? batch.probs[idx] : 0.0;
    item.machine_label =
        idx < scores.machine_label.size() && scores.machine_label[idx] != 0
            ? 1
            : 0;
    item.model_version = scores.model_version;
    item.request_id = request_id;
    const double* row = batch.features.row(idx);
    item.features.assign(row, row + batch.features.cols());
    items.push_back(std::move(item));
  }
  if (items.empty()) return Status::OK();

  // Review mutations serialize on shard 0's writer mutex so the WAL order
  // below equals the apply order; replay then reconstructs the same queue.
  Shard& shard0 = *s.shards[0];
  std::lock_guard<std::mutex> writer(shard0.writer_mu);
  for (ReviewItem& item : items) {
    if (shard0.log != nullptr) {
      // Write-ahead, one item at a time: an offer is applied if and only if
      // its frame is durably appended, so the applied queue never runs
      // ahead of (or behind) the WAL — a crash or IO error mid-batch leaves
      // a durable, applied prefix and replay reconstructs exactly it.
      ReviewWalEvent event;
      event.kind = ReviewWalEvent::Kind::kOffer;
      event.item = item;
      const Status append = shard0.log->AppendReview(event);
      if (!append.ok()) {
        // The offer is feedback-loop observability, not the serving answer:
        // by default (fail_open) absorb the IO error — count it, skip the
        // request's remaining offers — rather than failing the resolve.
        if (!r.fail_open) return append;
        if (s.metrics.review_log_failures != nullptr) {
          s.metrics.review_log_failures->Add(1);
        }
        return Status::OK();
      }
    }
    switch (s.review->Offer(std::move(item))) {
      case ReviewQueue::Offered::kAdmitted:
        if (s.metrics.review_enqueued != nullptr) {
          s.metrics.review_enqueued->Add(1);
        }
        break;
      case ReviewQueue::Offered::kMerged:
        if (s.metrics.review_merged != nullptr) s.metrics.review_merged->Add(1);
        break;
      case ReviewQueue::Offered::kDropped:
        if (s.metrics.review_dropped != nullptr) {
          s.metrics.review_dropped->Add(1);
        }
        break;
    }
  }
  return Status::OK();
}

Result<std::vector<ReviewItem>> Gateway::DrainReview(const std::string& ns,
                                                     size_t max_items) {
  Result<std::shared_ptr<NamespaceState>> state = State(ns);
  if (!state.ok()) return state.status();
  NamespaceState& s = **state;
  if (s.review == nullptr) {
    return Status::FailedPrecondition("review is not enabled on this gateway");
  }
  Shard& shard0 = *s.shards[0];
  std::lock_guard<std::mutex> writer(shard0.writer_mu);
  if (shard0.log != nullptr) {
    // Write-ahead: log every drain frame *before* mutating the queue. The
    // writer mutex keeps other review mutations out, so the peek below is
    // exactly what DrainTop will remove. An append failure mid-batch then
    // leaves the queue untouched — no item is stranded outstanding with a
    // reviewer who never received it — and replaying any durably-logged
    // frames of the failed batch just re-drains resident pairs that the
    // post-replay requeue returns to the queue.
    const std::vector<ReviewItem> peeked = s.review->PeekTop(max_items);
    for (const ReviewItem& item : peeked) {
      ReviewWalEvent event;
      event.kind = ReviewWalEvent::Kind::kDrain;
      event.item.left = item.left;
      event.item.right = item.right;
      LEARNRISK_RETURN_NOT_OK(shard0.log->AppendReview(event));
    }
  }
  std::vector<ReviewItem> items = s.review->DrainTop(max_items);
  if (s.metrics.review_drained != nullptr && !items.empty()) {
    s.metrics.review_drained->Add(items.size());
  }
  return items;
}

Status Gateway::SubmitReviewLabel(const std::string& ns, int64_t left,
                                  int64_t right, uint8_t truth) {
  Result<std::shared_ptr<NamespaceState>> state = State(ns);
  if (!state.ok()) return state.status();
  NamespaceState& s = **state;
  if (s.review == nullptr) {
    return Status::FailedPrecondition("review is not enabled on this gateway");
  }
  Shard& shard0 = *s.shards[0];
  std::lock_guard<std::mutex> writer(shard0.writer_mu);
  // Validate first so the NotFound path never writes a frame, then log,
  // then apply: the label mutates the in-memory queue only once it is
  // durable, so an append failure leaves the pair still labelable (the
  // caller can retry) and an acked label is never lost across a crash
  // (tests/gateway_crash_recovery_test.cc). The writer mutex holds off
  // every other review mutation between the check and the apply.
  if (!s.review->CanLabel(left, right)) {
    return Status::NotFound("pair (" + std::to_string(left) + ", " +
                            std::to_string(right) +
                            ") is not awaiting a review label");
  }
  if (shard0.log != nullptr) {
    ReviewWalEvent event;
    event.kind = ReviewWalEvent::Kind::kLabel;
    event.item.left = left;
    event.item.right = right;
    event.truth = truth;
    LEARNRISK_RETURN_NOT_OK(shard0.log->AppendReview(event));
  }
  if (!s.review->Label(left, right, truth)) {
    return Status::Internal("review label for (" + std::to_string(left) +
                            ", " + std::to_string(right) +
                            ") validated but failed to apply");
  }
  if (s.metrics.review_labels != nullptr) s.metrics.review_labels->Add(1);
  return Status::OK();
}

Result<ReviewRetrainResult> Gateway::RetrainFromReview(
    const std::string& ns, const ReviewRetrainOptions& options) {
  Result<std::shared_ptr<NamespaceState>> state = State(ns);
  if (!state.ok()) return state.status();
  NamespaceState& s = **state;
  if (s.review == nullptr) {
    return Status::FailedPrecondition("review is not enabled on this gateway");
  }
  const std::vector<LabeledReview> labels = s.review->Labeled();
  if (labels.size() < std::max<size_t>(options.min_labels, 1)) {
    return Status::FailedPrecondition(
        "namespace '" + ns + "' holds " + std::to_string(labels.size()) +
        " review labels; RetrainFromReview needs at least " +
        std::to_string(options.min_labels));
  }
  // Seed from the serving snapshot: the retrain is incremental, tuning the
  // live parameters rather than refitting from the prior.
  Result<std::shared_ptr<ServingEngine>> engine = registry_.Engine(ns);
  if (!engine.ok()) {
    if (engine.status().IsNotFound()) {
      return Status::FailedPrecondition("no model published for namespace '" +
                                        ns + "'");
    }
    return engine.status();
  }
  const auto [serving_version, serving_snap] = (*engine)->VersionedSnapshot();
  if (serving_snap == nullptr) {
    return Status::FailedPrecondition("no model published for namespace '" +
                                      ns + "'");
  }

  ReviewRetrainResult result;
  Timer train_timer;
  Result<IncrementalRetrainOutput> retrained =
      RetrainFromLabels(serving_snap->model(), labels, options.retrain);
  if (!retrained.ok()) return retrained.status();
  result.train_ms = train_timer.ElapsedMillis();
  RecordMs(s.metrics.retrain_latency, result.train_ms);
  result.labels_used = retrained->labels_used;
  result.mislabeled = retrained->mislabeled;
  result.loss_history = std::move(retrained->loss_history);

  Timer publish_timer;
  std::shared_ptr<const DriftBaseline> baseline;
  if (options.refresh_drift_baseline) {
    // The label batch's feature rows are the freshest labeled sample of the
    // live distribution — they become the new drift reference, scored by
    // the *retrained* model.
    retrained->features.column_names = s.pipeline.metric_names();
    baseline = std::make_shared<DriftBaseline>(DriftBaseline::FromTraining(
        retrained->features, retrained->risk_scores));
  }
  Result<uint64_t> version =
      Publish(ns, std::move(retrained->model), std::move(baseline));
  if (!version.ok()) return version.status();
  result.model_version = *version;
  if (options.checkpoint && !options_.durability.dir.empty()) {
    // Commit the new version to the manifest so a crash after this call
    // recovers the retrained model, not the one it replaced.
    LEARNRISK_RETURN_NOT_OK(Checkpoint(ns));
  }
  result.publish_ms = publish_timer.ElapsedMillis();
  RecordMs(s.metrics.retrain_publish_latency, result.publish_ms);
  if (s.metrics.review_retrains != nullptr) s.metrics.review_retrains->Add(1);
  (void)serving_version;
  return result;
}

Result<ReviewQueueStats> Gateway::ReviewStats(const std::string& ns) const {
  Result<std::shared_ptr<NamespaceState>> state = State(ns);
  if (!state.ok()) return state.status();
  if ((*state)->review == nullptr) {
    return Status::FailedPrecondition("review is not enabled on this gateway");
  }
  return (*state)->review->Stats();
}

Result<ResolveResponse> Gateway::Resolve(const std::string& ns,
                                         const ResolveRequest& request) {
  Result<std::shared_ptr<NamespaceState>> state = State(ns);
  if (!state.ok()) return state.status();
  if (request.block_all && !request.pairs.empty()) {
    return Status::InvalidArgument(
        "ResolveRequest has both explicit pairs and block_all");
  }
  if (!request.block_all && request.pairs.empty()) {
    return Status::InvalidArgument(
        "empty ResolveRequest: provide pairs or set block_all");
  }

  NamespaceState& s = **state;
  // One acquire load per shard pins the whole request to a frozen view;
  // writers publish successors without ever touching it.
  const std::vector<std::shared_ptr<const NamespaceSnapshot>> snaps =
      PinSnapshots(s);
  ResolveResponse response;
  response.request_id = NextRequestId();
  response.timing.request_id = response.request_id;
  RequestStages stages(s.metrics, s.metrics.request_latency[kResolveApi],
                       &response.timing);
  {
    RequestStages::Span block(stages, kBlockStage);
    if (!request.block_all) {
      response.pairs = request.pairs;
    } else {
      double merge_ms = 0.0;
      response.pairs =
          BlockingIndex::AllCandidates(ShardIndexes(snaps), &merge_ms);
      if (snaps.size() > 1) {
        block.Stop();
        // The merge phase is a sub-span of the blocking stage (already
        // inside blocking_ms), surfaced separately so shard overhead is
        // attributable. With one shard there is nothing to merge, so none is
        // recorded.
        stages.Add(kShardMergeStage, merge_ms);
      }
    }
  }
  LEARNRISK_RETURN_NOT_OK(ScoreCandidates(
      kResolveApi, ns, s, snaps, {&response.pairs, nullptr}, nullptr, 0.0,
      request.explain_top_k, response.request_id, stages, &response.scores));
  return response;
}

Result<ProbeResponse> Gateway::ResolveRecord(const std::string& ns,
                                             const Record& probe,
                                             size_t explain_top_k) {
  Result<std::shared_ptr<NamespaceState>> state = State(ns);
  if (!state.ok()) return state.status();
  NamespaceState& s = **state;
  if (probe.values.size() != s.schema.num_attributes()) {
    return Status::InvalidArgument(
        "probe record width does not match the namespace schema");
  }
  const std::vector<std::shared_ptr<const NamespaceSnapshot>> snaps =
      PinSnapshots(s);
  ProbeResponse response;
  response.request_id = NextRequestId();
  response.timing.request_id = response.request_id;
  RequestStages stages(s.metrics, s.metrics.request_latency[kResolveRecordApi],
                       &response.timing);
  const BlockingSide target =
      s.dedup ? BlockingSide::kLeft : BlockingSide::kRight;
  {
    RequestStages::Span block(stages, kBlockStage);
    double merge_ms = 0.0;
    response.candidates =
        BlockingIndex::Candidates(ShardIndexes(snaps), probe, target,
                                  &merge_ms);
    if (snaps.size() > 1) {
      block.Stop();
      stages.Add(kShardMergeStage, merge_ms);
    }
  }
  // Probe preparation counts toward the featurize stage: it is the same
  // per-record work the prepared cache amortizes for stored records.
  Timer timer;
  const PreparedRecord prepared_probe = s.pipeline.Prepare(probe);
  const double prepare_ms = timer.ElapsedMillis();
  LEARNRISK_RETURN_NOT_OK(ScoreCandidates(
      kResolveRecordApi, ns, s, snaps, {nullptr, &response.candidates},
      &prepared_probe, prepare_ms, explain_top_k, response.request_id, stages,
      &response.scores));
  return response;
}

Status Gateway::ScoreCandidates(
    Api api, const std::string& ns, NamespaceState& s,
    const std::vector<std::shared_ptr<const NamespaceSnapshot>>& snaps,
    const PairKeys& keys, const PreparedRecord* probe, double prepare_ms,
    size_t explain_top_k, uint64_t request_id, RequestStages& stages,
    ScoreResponse* scores) {
  auto side_view = [&](BlockingSide side) {
    std::vector<const SideStore*> stores;
    stores.reserve(snaps.size());
    for (const auto& snap : snaps) {
      stores.push_back(side == BlockingSide::kLeft ? &snap->left
                                                   : &s.right_store(*snap));
    }
    return ShardedSideView(std::move(stores));
  };
  const ShardedSideView right_view = side_view(BlockingSide::kRight);
  Result<FeaturizedBatch> batch =
      probe != nullptr
          ? s.pipeline.RunProbePrepared(*probe, right_view, *keys.candidates)
          : s.pipeline.RunPrepared(side_view(BlockingSide::kLeft), right_view,
                                   *keys.pairs);
  if (!batch.ok()) return batch.status();
  stages.Add(kFeaturizeStage, prepare_ms + batch->featurize_ms);
  stages.Add(kClassifyStage, batch->classify_ms);

  Result<std::shared_ptr<ServingEngine>> engine = registry_.Engine(ns);
  if (!engine.ok()) {
    // A registered namespace is only unknown to the registry before its
    // first publish; surface that as a precondition, not a lookup miss.
    if (engine.status().IsNotFound()) {
      return Status::FailedPrecondition("no model published for namespace '" +
                                        ns + "'");
    }
    return engine.status();
  }
  ScoreRequest request;
  request.metric_features = &batch->features;
  request.classifier_probs = batch->probs;
  request.explain_top_k = explain_top_k;
  RequestStages::Span risk(stages, kRiskStage);
  Result<ScoreResponse> scored = (*engine)->Score(request);
  risk.Stop();
  if (!scored.ok()) return scored.status();
  *scores = scored.MoveValueOrDie();
  const bool tracing = traces_ != nullptr;
  // Best-effort for trace explanations: a publish landing mid-request can
  // make this snapshot one version newer than the one that scored; trace
  // capture re-validates column bounds before reading it.
  const std::shared_ptr<const ScorerSnapshot> scorer =
      tracing ? (*engine)->snapshot() : nullptr;
  if (s.metrics.pairs_scored != nullptr) {
    s.metrics.pairs_scored->Add(scores->risk.size());
  }
  if (s.metrics.risk_scores != nullptr) {
    for (double value : scores->risk) s.metrics.risk_scores->Record(value);
  }
  if (!s.metrics.feature_values.empty()) {
    ObserveFeatures(batch->features, s.metrics.feature_values);
  }

  // One shared top-k pass over the decisions serves both the review
  // enqueue and the trace capture below (which reads the maximum risk off
  // its head, so it ranks at least one).
  const bool reviewing =
      s.review != nullptr && options_.review.per_request_budget > 0;
  std::vector<size_t> top_risk;
  if ((reviewing || tracing) && !scores->risk.empty()) {
    const size_t k = std::max(
        reviewing ? options_.review.per_request_budget : size_t{0},
        tracing ? std::max<size_t>(options_.trace.top_k, 1) : size_t{0});
    top_risk = TopRiskIndices(scores->risk, k);
  }
  if (reviewing) {
    RequestStages::Span review(stages, kReviewStage);
    LEARNRISK_RETURN_NOT_OK(
        EnqueueReview(s, *batch, *scores, request_id, top_risk, keys));
  }
  stages.Finish();
  if (s.metrics.requests[api] != nullptr) s.metrics.requests[api]->Add(1);
  if (tracing) {
    MaybeCaptureTrace(kApiNames[api], ns, request_id, stages, keys, &*batch,
                      scores, scorer, top_risk);
  }
  return Status::OK();
}

Status Gateway::AddRecord(const std::string& ns, BlockingSide side,
                          Record record, int64_t entity_id,
                          StageTiming* timing) {
  StageTiming local_timing;
  if (timing == nullptr) timing = &local_timing;
  *timing = StageTiming{};
  Result<std::shared_ptr<NamespaceState>> state = State(ns);
  if (!state.ok()) return state.status();
  NamespaceState& s = **state;
  if (record.values.size() != s.schema.num_attributes()) {
    return Status::InvalidArgument(
        "record width does not match the namespace schema");
  }
  timing->request_id = NextRequestId();
  // AddRecord has no latency histogram of its own; a trace's total is the
  // sum of its measured stages plus the bookkeeping around them.
  RequestStages stages(s.metrics, nullptr, timing);
  // Route to the owning shard (always shard 0 when unsharded), then
  // serialize only with that shard's writers; readers keep serving the
  // current snapshots throughout, and writers to sibling shards proceed in
  // parallel. The successor snapshot shares every existing segment —
  // building it touches only the new tail.
  Shard& shard = *s.shards[RouteShard(s, side)];
  std::lock_guard<std::mutex> writer(shard.writer_mu);
  if (shard.log != nullptr) {
    // Write-ahead: the record hits the WAL (flushed) before any reader can
    // see it, so every acknowledged AddRecord survives a crash. A crash
    // after this append but before the return below leaves a durable but
    // unacknowledged record — recovery may legitimately hold one more
    // record than the caller saw acknowledged.
    WalEntry entry;
    entry.side = side;
    entry.entity_id = entity_id;
    entry.record = record;
    RequestStages::Span wal_append(stages, kWalAppendStage);
    LEARNRISK_RETURN_NOT_OK(shard.log->Append(entry));
  }
  RequestStages::Span publish(stages, kPublishStage);
  const std::shared_ptr<const NamespaceSnapshot> cur = LoadShardSnapshot(shard);
  auto next = std::make_shared<NamespaceSnapshot>();
  next->index = cur->index;  // shares posting segments
  LEARNRISK_RETURN_NOT_OK(next->index.AddRecord(side, record, entity_id));
  const bool to_left = s.dedup || side == BlockingSide::kLeft;
  next->left = to_left ? cur->left.WithAppended(std::move(record), entity_id,
                                                s.pipeline.suite())
                       : cur->left;
  if (!s.dedup) {
    next->right = to_left ? cur->right
                          : cur->right.WithAppended(std::move(record),
                                                    entity_id,
                                                    s.pipeline.suite());
  }
  // Single publication point: readers see the shard fully without the
  // record (old snapshot) or fully with it (this one), never in between.
  std::atomic_store_explicit(&shard.snapshot,
                             std::shared_ptr<const NamespaceSnapshot>(next),
                             std::memory_order_release);
  publish.Stop();
  if (s.metrics.records_added != nullptr) s.metrics.records_added->Add(1);
  stages.Finish();
  if (traces_ != nullptr) {
    MaybeCaptureTrace("add_record", ns, timing->request_id, stages, {},
                      nullptr, nullptr, nullptr, {});
  }
  if (shard.log != nullptr &&
      options_.durability.wal_checkpoint_threshold > 0 &&
      shard.log->wal_entries_since_checkpoint() >=
          options_.durability.wal_checkpoint_threshold) {
    // The record is already published and durable; a checkpoint failure
    // here fails the call without retracting it (the WAL still covers it).
    // The threshold applies per shard — each shard's WAL/checkpoint cycle
    // is independent.
    LEARNRISK_RETURN_NOT_OK(CheckpointLocked(ns, s, shard));
  }
  return Status::OK();
}

Status Gateway::CheckpointLocked(const std::string& ns, NamespaceState& s,
                                 Shard& shard) {
  TraceSpan span(s.metrics.checkpoint_latency);
  // Materialize the shard's current snapshot under its writer_mu: no new
  // record can land between the tables written to disk and the WAL the
  // checkpoint resets, so checkpoint + empty WAL is exactly the published
  // shard state.
  const std::shared_ptr<const NamespaceSnapshot> snap =
      LoadShardSnapshot(shard);
  const Table left = snap->left.Materialize(s.schema);
  Table right;
  if (!s.dedup) right = snap->right.Materialize(s.schema);

  uint64_t model_version = 0;
  std::shared_ptr<const ScorerSnapshot> model_snap;
  Result<std::shared_ptr<ServingEngine>> engine = registry_.Engine(ns);
  if (engine.ok()) {
    // One consistent read: the saved model file is exactly the version the
    // manifest records, even if a publish lands mid-checkpoint. Every shard
    // checkpoint saves the model it observed; sharded recovery re-publishes
    // the newest version any shard recorded.
    std::tie(model_version, model_snap) = (*engine)->VersionedSnapshot();
  } else if (!engine.status().IsNotFound()) {
    return engine.status();
  }
  NamespaceLog::ModelSaver saver;
  if (model_version > 0 && model_snap != nullptr) {
    saver = [model_snap](const std::string& path) {
      return SaveRiskModel(model_snap->model(), path);
    };
  } else {
    model_version = 0;
  }
  // Review state is namespace-level and rides on shard 0's log. Its
  // mutations all serialize on shard 0's writer_mu — held here — so the
  // snapshot is exactly the state whose WAL events the checkpoint retires.
  ReviewQueue::CheckpointState review_state;
  const ReviewQueue::CheckpointState* review = nullptr;
  if (s.review != nullptr && &shard == s.shards[0].get()) {
    review_state = s.review->Snapshot();
    review = &review_state;
  }
  return shard.log->WriteCheckpoint(left, s.dedup ? nullptr : &right,
                                    model_version, saver, review);
}

Status Gateway::Checkpoint(const std::string& ns) {
  Result<std::shared_ptr<NamespaceState>> state = State(ns);
  if (!state.ok()) return state.status();
  NamespaceState& s = **state;
  // Shard by shard: each commit is atomic on its own manifest, and writers
  // to shards not currently checkpointing proceed untouched.
  for (const auto& shard : s.shards) {
    std::lock_guard<std::mutex> writer(shard->writer_mu);
    if (shard->log == nullptr) {
      return Status::FailedPrecondition(
          "durability is not enabled for namespace '" + ns + "'");
    }
    LEARNRISK_RETURN_NOT_OK(CheckpointLocked(ns, s, *shard));
  }
  return Status::OK();
}

Status Gateway::RecoverNamespace(const std::string& ns,
                                 RecoverNamespaceSpec spec) {
  if (options_.durability.dir.empty()) {
    return Status::FailedPrecondition(
        "durability is not enabled on this gateway");
  }
  if (!ModelRegistry::ValidNamespace(ns)) {
    return Status::InvalidArgument("invalid namespace '" + ns + "'");
  }
  LEARNRISK_RETURN_NOT_OK(CheckPipelineSpec(
      "recover spec", spec.suite, spec.classifier.get(),
      spec.classifier_columns, spec.blocking, spec.schema));
  if (HasNamespace(ns)) {
    return Status::FailedPrecondition("namespace '" + ns +
                                      "' already registered");
  }

  Timer recover_timer;
  // The SHARDS meta file decides the layout: absent = the original
  // single-log namespace, present = one full NamespaceLog per shard.
  Result<size_t> shards_meta =
      ReadShardsFile(ShardsFilePath(options_.durability, ns));
  if (!shards_meta.ok()) return shards_meta.status();
  const size_t num_shards = std::max<size_t>(*shards_meta, 1);

  // Recover every shard's log up front (shard 0 is the whole namespace in
  // the unsharded layout), then rebuild the snapshots from the recovered
  // tables through AddBaseShard, the builder registration uses for a
  // spec's sub-tables — same base-segment bulk load, so every query output
  // is bit-identical to a gateway that added the same records and never
  // crashed.
  const DurabilityOptions shard_opts =
      ShardDurability(options_.durability, ns);
  std::vector<RecoveredNamespace> recovered(num_shards);
  std::vector<std::unique_ptr<NamespaceLog>> logs;
  for (size_t k = 0; k < num_shards; ++k) {
    Result<std::unique_ptr<NamespaceLog>> log =
        *shards_meta == 0
            ? NamespaceLog::Recover(options_.durability, ns, spec.schema,
                                    &recovered[k])
            : NamespaceLog::Recover(shard_opts, ShardLogName(k), spec.schema,
                                    &recovered[k]);
    if (!log.ok()) return log.status();
    if (k > 0 && recovered[k].dedup != recovered[0].dedup) {
      return Status::InvalidArgument(
          "shard manifests of namespace '" + ns +
          "' disagree on dedup semantics");
    }
    logs.push_back(log.MoveValueOrDie());
  }

  auto state = std::make_shared<NamespaceState>();
  state->dedup = recovered[0].dedup;
  state->num_shards = num_shards;
  state->schema = spec.schema;
  state->pipeline =
      FeaturePipeline(std::move(spec.suite), std::move(spec.classifier),
                      std::move(spec.classifier_columns));
  state->pipeline.set_parallelism(options_.request_parallelism);
  for (size_t k = 0; k < num_shards; ++k) {
    // Routing is seeded at the recovered per-shard sizes; the least-loaded
    // argmin naturally refills shards that recovered uneven.
    LEARNRISK_RETURN_NOT_OK(AddBaseShard(*state, recovered[k].left,
                                         recovered[k].right, spec.blocking));
    state->shards[k]->log = std::move(logs[k]);
  }
  if (options_.enable_metrics) {
    state->metrics = CreateNamespaceMetrics(ns, state->pipeline.metric_names());
    for (const auto& shard : state->shards) {
      shard->log->set_metrics(state->metrics.durability);
    }
  }
  if (options_.review.enabled) {
    // Rebuild the review queue: seed the checkpointed state (shard 0 owns
    // it) with resident and outstanding items in their original stages —
    // outstanding items do not occupy resident capacity, so replay runs
    // against the exact occupancy the live queue had — then replay the
    // WAL's review events in log order. Offers replay without the capacity
    // drop (OfferReplay): a durably-logged offer is always admitted or
    // merged, so every logged drain/label that follows finds its pair and
    // no acked label can be lost to a replay-time displacement. A
    // drain/label that still misses (a duplicate frame from an
    // ambiguously-failed append) is tolerated and counted. Finally,
    // still-outstanding items fold back into the queue: their reviewer died
    // with the process, and re-draining beats losing them.
    state->review =
        std::make_shared<ReviewQueue>(options_.review.queue_capacity);
    state->review->Seed(std::move(recovered[0].review_queued),
                        std::move(recovered[0].review_outstanding),
                        std::move(recovered[0].review_labeled));
    size_t replay_misses = 0;
    for (ReviewWalEvent& event : recovered[0].review_events) {
      switch (event.kind) {
        case ReviewWalEvent::Kind::kOffer:
          state->review->OfferReplay(std::move(event.item));
          break;
        case ReviewWalEvent::Kind::kDrain:
          if (!state->review->MarkDrained(event.item.left, event.item.right)) {
            ++replay_misses;
          }
          break;
        case ReviewWalEvent::Kind::kLabel:
          if (!state->review->Label(event.item.left, event.item.right,
                                    event.truth)) {
            ++replay_misses;
          }
          break;
      }
    }
    state->review->RequeueOutstanding();
    if (replay_misses > 0 && state->metrics.review_replay_misses != nullptr) {
      state->metrics.review_replay_misses->Add(replay_misses);
    }
  }

  // Re-publish the newest checkpointed model any shard recorded, under its
  // recorded version: seeding the floor at version - 1 makes the publish
  // below yield exactly that version, so scores keep reporting the same
  // model_version across the restart. (A publish landing mid-checkpoint can
  // leave shards one version apart; the newest wins.)
  size_t model_shard = 0;
  for (size_t k = 1; k < num_shards; ++k) {
    if (recovered[k].model_version > recovered[model_shard].model_version) {
      model_shard = k;
    }
  }
  if (recovered[model_shard].model_version > 0) {
    Result<RiskModel> model = LoadRiskModel(recovered[model_shard].model_path);
    if (!model.ok()) return model.status();
    registry_.EnsureVersionAtLeast(ns,
                                   recovered[model_shard].model_version - 1);
    Result<uint64_t> published = registry_.Publish(ns, model.MoveValueOrDie());
    if (!published.ok()) return published.status();
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!namespaces_.emplace(ns, state).second) {
      return Status::FailedPrecondition("namespace '" + ns +
                                        "' already registered");
    }
  }
  if (options_.enable_metrics) {
    RegisterStateGauges(ns, state);
    RecordMs(state->metrics.recover_latency, recover_timer.ElapsedMillis());
    state->metrics.recoveries->Add(1);
    for (const RecoveredNamespace& rec : recovered) {
      state->metrics.recovered_wal_entries->Add(rec.wal_entries_replayed);
      state->metrics.recovered_wal_bytes_discarded->Add(
          rec.wal_bytes_discarded);
    }
  }
  return Status::OK();
}

Result<size_t> Gateway::WalEntriesSinceCheckpoint(const std::string& ns) {
  Result<std::shared_ptr<NamespaceState>> state = State(ns);
  if (!state.ok()) return state.status();
  NamespaceState& s = **state;
  size_t total = 0;
  for (const auto& shard : s.shards) {
    std::lock_guard<std::mutex> writer(shard->writer_mu);
    if (shard->log == nullptr) {
      return Status::FailedPrecondition(
          "durability is not enabled for namespace '" + ns + "'");
    }
    total += shard->log->wal_entries_since_checkpoint();
  }
  return total;
}

Result<size_t> Gateway::NumRecords(const std::string& ns,
                                   BlockingSide side) const {
  Result<std::shared_ptr<NamespaceState>> state = State(ns);
  if (!state.ok()) return state.status();
  size_t total = 0;
  for (const auto& shard : (*state)->shards) {
    total += LoadShardSnapshot(*shard)->index.num_records(side);
  }
  return total;
}

}  // namespace learnrisk
