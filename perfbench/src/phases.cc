// Copyright 2026 The LearnRisk Authors
// Phase rounds of the benchmark (phases.h). Gateway calls are timed one by
// one around the public API; everything else a round does — building
// inputs, the offline reference, the traced layer replay — happens outside
// those timings.

#include "phases.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <utility>

#include "active/incremental_retrain.h"
#include "common/parallel.h"
#include "eval/experiment.h"
#include "eval/roc.h"
#include "gateway/blocking_index.h"
#include "gateway/durability.h"
#include "review/review_queue.h"

namespace perfbench {

using namespace learnrisk;  // NOLINT
namespace fs = std::filesystem;

namespace {

double MsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-6;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(const FeatureMatrix& a, const FeatureMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t r = 0; r < a.rows(); ++r) {
    if (std::memcmp(a.row(r), b.row(r), a.cols() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

bool SameScores(const ScoreResponse& a, const ScoreResponse& b) {
  return a.model_version == b.model_version && SameBits(a.risk, b.risk) &&
         a.machine_label == b.machine_label;
}

/// The gateway's review-offer order: the k riskiest indices, risk
/// descending, ties by position.
std::vector<size_t> TopRisk(const std::vector<double>& risk, size_t k) {
  std::vector<size_t> order(risk.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  k = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<ptrdiff_t>(k),
                    order.end(), [&risk](size_t a, size_t b) {
                      if (risk[a] != risk[b]) return risk[a] > risk[b];
                      return a < b;
                    });
  order.resize(k);
  return order;
}

uint8_t Truth(const Table& left, const Table& right, int64_t l, int64_t r) {
  const int64_t entity = left.entity_id(static_cast<size_t>(l));
  return entity >= 0 && entity == right.entity_id(static_cast<size_t>(r));
}

std::string Describe(const char* op, const Status& status) {
  return std::string(op) + ": " + status.ToString();
}

}  // namespace

/// The traced review replay's own queue and engine, mirroring the
/// gateway's: identical offers must drain identically and retrain into
/// the identical model.
struct Runner::ReviewMirror {
  explicit ReviewMirror(size_t capacity) : queue(capacity) {}
  ReviewQueue queue;
  ServingEngine engine;
};

Runner::Runner(const Config& config, const Dataset& ds,
               const ServedModel& model, Samples* samples, Ledger* ledger)
    : config_(config),
      ds_(ds),
      model_(model),
      samples_(samples),
      ledger_(ledger),
      pipeline_(model.suite, model.classifier, model.classifier_columns) {
  engine_.Publish(*model.risk, model.baseline);
  if (config.trace) {
    left_store_ = SideStore::Build(ds.workload.left(), model.suite);
    right_store_ = SideStore::Build(ds.workload.right(), model.suite);
  }
}

std::vector<RecordPair> Runner::Batch(size_t i) const {
  const std::vector<RecordPair>& traffic = ds_.traffic;
  std::vector<RecordPair> pairs;
  pairs.reserve(config_.batch_pairs);
  const size_t start = (i * config_.batch_pairs) % traffic.size();
  for (size_t k = 0; k < config_.batch_pairs; ++k) {
    pairs.push_back(traffic[(start + k) % traffic.size()]);
  }
  return pairs;
}

bool Runner::MatchesReference(const Table& left,
                              const std::vector<RecordPair>& pairs,
                              const RiskModel& risk_model,
                              const ScoreResponse& response) const {
  Result<FeaturizedBatch> batch =
      pipeline_.Run(left, ds_.workload.right(), pairs);
  if (!batch.ok()) return false;
  ServingEngine reference;
  reference.Publish(risk_model);
  ScoreRequest request;
  request.metric_features = &batch->features;
  request.classifier_probs = batch->probs;
  Result<ScoreResponse> scored = reference.Score(request);
  return scored.ok() && SameBits(scored->risk, response.risk) &&
         scored->machine_label == response.machine_label;
}

ResolveResponse Runner::Resolve(Gateway* gateway, const std::string& ns,
                                Phase phase,
                                const std::vector<RecordPair>& pairs,
                                const Table& left,
                                const SideStore* left_store,
                                ReviewMirror* mirror, bool timed) {
  const int p = static_cast<int>(phase);
  ResolveRequest request;
  request.pairs = pairs;
  const OpClock clock;
  Result<ResolveResponse> response = gateway->Resolve(ns, request);
  const OpTime time = clock.Elapsed();
  const double ms = time.wall_ms;
  ledger_->Op(response.ok(), Describe("Resolve", response.status()));
  if (!response.ok()) return {};
  if (timed) {
    samples_->resolve[p].Add(time);
    samples_->resolve_pairs[p] += pairs.size();
  }

  if (++resolves_seen_ % config_.check_every == 0) {
    Result<std::shared_ptr<ServingEngine>> served =
        gateway->registry().Engine(ns);
    std::shared_ptr<const ScorerSnapshot> scorer =
        served.ok() ? (*served)->snapshot() : nullptr;
    pending_checks_[p].emplace_back(
        "Resolve differs from the offline reference",
        [this, &left, pairs, scorer, scores = response->scores] {
          return scorer != nullptr &&
                 MatchesReference(left, pairs, scorer->model(), scores);
        });
  }

  Tracer* tr = tracer(phase);
  if (tr == nullptr || left_store == nullptr) return response.MoveValueOrDie();
  samples_->untraced_ms[p] += ms;
  const std::shared_ptr<const ScorerSnapshot> scorer =
      mirror != nullptr ? mirror->engine.snapshot() : engine_.snapshot();
  const size_t n = pairs.size();
  FeaturizedBatch batch;
  CsrActivation activation;
  std::vector<double> risk(n);
  std::vector<uint8_t> label(n);
  bool ok = true;
  {
    Tracer::Span root(tr, "request.resolve");
    {
      Tracer::Span span(tr, "featurize");
      Result<FeaturizedBatch> featurized =
          pipeline_.RunPrepared(*left_store, right_store_, pairs);
      ok = featurized.ok();
      if (ok) batch = featurized.MoveValueOrDie();
    }
    if (ok) {
      {
        Tracer::Span span(tr, "rules");
        activation = scorer->compiled().EvaluateCsr(batch.features);
      }
      {
        Tracer::Span span(tr, "score");
        scorer->ScoreBatch(activation, batch.probs, risk.data(), label.data());
      }
    }
    if (ok && mirror != nullptr) {
      Tracer::Span span(tr, "review.offer");
      const ReviewOptions defaults;
      for (size_t idx : TopRisk(risk, defaults.per_request_budget)) {
        if (risk[idx] < defaults.min_risk) break;
        ReviewItem item;
        item.left = static_cast<int64_t>(pairs[idx].left);
        item.right = static_cast<int64_t>(pairs[idx].right);
        item.risk = risk[idx];
        item.classifier_prob = batch.probs[idx];
        item.machine_label = label[idx];
        item.model_version = response->scores.model_version;
        item.request_id = response->request_id;
        const double* row = batch.features.row(idx);
        item.features.assign(row, row + batch.features.cols());
        mirror->queue.Offer(std::move(item));
        tr->Count("review.offers", 1);
      }
    }
  }
  tr->Count("featurize.pairs", static_cast<double>(n));
  tr->Count("rules.pairs", static_cast<double>(n));
  tr->Count("rules.active", static_cast<double>(activation.rule.size()));
  if (!ok || !SameBits(risk, response->scores.risk) ||
      label != response->scores.machine_label) {
    ledger_->Fail("traced Resolve replay differs from the gateway");
  }
  const size_t replays = static_cast<size_t>(tr->count("resolve.replays"));
  tr->Count("resolve.replays", 1);
  if (ok && replays % config_.probe_layers_every == 0) {
    ProbeLayers(*left_store, pairs, batch, phase);
  }
  samples_->traced_ms[p] += clock.WallMs();
  return response.MoveValueOrDie();
}

void Runner::ProbeLayers(const SideStore& left_store,
                         const std::vector<RecordPair>& pairs,
                         const FeaturizedBatch& batch, Phase phase) {
  Tracer* tr = tracer(phase);
  const MetricSuite& suite = model_.suite;
  const size_t n = pairs.size();
  const size_t m = suite.num_metrics();
  const std::vector<std::string>& names = pipeline_.metric_names();

  // Each metric column's prepared kernel alone, serially on this thread.
  MetricScratch scratch;
  volatile double sink = 0.0;
  for (size_t c = 0; c < m; ++c) {
    double acc = 0.0;
    const uint64_t start = NowNs();
    for (const RecordPair& pair : pairs) {
      acc += suite.EvaluatePrepared(left_store.prepared(pair.left),
                                    right_store_.prepared(pair.right), c,
                                    &scratch);
    }
    tr->Count("kernel_ns." + names[c], static_cast<double>(NowNs() - start));
    sink = sink + acc;
  }
  tr->Count("kernel.pairs", static_cast<double>(n));

  // The pipeline's metric pass through the shared pool, chunk-timed: how
  // long the first chunk waited, how busy the pool's threads were, and how
  // uneven the chunks ran.
  FeatureMatrix features(n, m);
  std::mutex mu;
  std::vector<std::pair<uint64_t, uint64_t>> chunks;
  const uint64_t call = NowNs();
  ParallelForRange(n, [&](size_t begin, size_t end) {
    const uint64_t chunk_start = NowNs();
    MetricScratch local;
    for (size_t i = begin; i < end; ++i) {
      suite.EvaluatePairPreparedInto(left_store.prepared(pairs[i].left),
                                     right_store_.prepared(pairs[i].right),
                                     &local, features.mutable_row(i));
    }
    const uint64_t chunk_end = NowNs();
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(chunk_start, chunk_end);
  });
  const uint64_t done = NowNs();
  if (chunks.size() > 1) {
    uint64_t first = chunks[0].first;
    double busy = 0.0;
    double longest = 0.0;
    for (const auto& chunk : chunks) {
      first = std::min(first, chunk.first);
      const double d = static_cast<double>(chunk.second - chunk.first);
      busy += d;
      longest = std::max(longest, d);
    }
    const double wall = static_cast<double>(done - call);
    tr->Count("pool.calls", 1);
    tr->Count("pool.wait_ns", static_cast<double>(first - call));
    tr->Count("pool.busy_share",
              busy / (static_cast<double>(ParallelConcurrency()) * wall));
    tr->Count("pool.chunk_imbalance",
              longest / (busy / static_cast<double>(chunks.size())));
  }
  if (!SameBits(features, batch.features)) {
    ledger_->Fail("pool metric pass differs from FeaturePipeline");
  }

  // The classifier alone over the same rows.
  const uint64_t start = NowNs();
  const std::vector<double> probs = model_.classifier->PredictProbaAll(
      GatherColumns(features, model_.classifier_columns));
  tr->Count("classify_ns", static_cast<double>(NowNs() - start));
  tr->Count("classify.pairs", static_cast<double>(n));
  if (!SameBits(probs, batch.probs)) {
    ledger_->Fail("PredictProbaAll differs from FeaturePipeline");
  }
}

void Runner::FlushChecks(Phase phase) {
  auto& pending = pending_checks_[static_cast<int>(phase)];
  for (const auto& [what, check] : pending) {
    if (!check()) ledger_->Fail(what);
  }
  pending.clear();
}

void Runner::ResolveRound(Gateway* gateway) {
  // One untimed request first: the round starts after a pause (set-up, the
  // previous round's checks, another phase) that left the pool idle.
  Resolve(gateway, "resolve", Phase::kResolve, Batch(resolve_cursor_++),
          ds_.workload.left(), nullptr, nullptr, false);
  for (size_t i = 0; i < config_.resolve_round; ++i) {
    Yield();
    Resolve(gateway, "resolve", Phase::kResolve, Batch(resolve_cursor_++),
            ds_.workload.left(), &left_store_, nullptr, true);
  }
  FlushChecks(Phase::kResolve);
  ++samples_->rounds[static_cast<int>(Phase::kResolve)];
}

void Runner::IngestRound(size_t parity_requests) {
  constexpr int p = static_cast<int>(Phase::kIngest);
  Tracer* tr = tracer(Phase::kIngest);
  const Table& full_left = ds_.workload.left();
  const Table& right = ds_.workload.right();
  const Schema& schema = full_left.schema();
  // The stream: left records held back from registration (drawn from the
  // seed), so every arrival is one the namespace has never seen. Namespace
  // ids run over the registered records in table order, then the arrivals
  // in stream order.
  const size_t held = ds_.arrivals.size();
  const size_t base = full_left.num_records() - held;
  std::vector<bool> arriving(full_left.num_records(), false);
  for (size_t i : ds_.arrivals) arriving[i] = true;
  auto base_left = std::make_shared<Table>(schema);
  for (size_t i = 0; i < full_left.num_records(); ++i) {
    if (!arriving[i]) {
      base_left->Append(full_left.record(i), full_left.entity_id(i));
    }
  }
  Table grown = *base_left;

  const std::string dir = config_.work_dir + "/ingest";
  const std::string replay_dir = config_.work_dir + "/ingest-replay";
  fs::remove_all(dir);
  fs::remove_all(replay_dir);
  GatewayOptions options;
  options.durability.dir = dir;
  options.durability.fsync_appends = false;
  auto gateway = std::make_unique<Gateway>(options);
  ledger_->Op(gateway
                  ->RegisterNamespace("ingest", MakeSpec(model_, base_left,
                                                         ds_.workload
                                                             .right_ptr()))
                  .ok(),
              "RegisterNamespace(ingest)");
  ledger_->Op(gateway->Publish("ingest", *model_.risk, model_.baseline).ok(),
              "Publish(ingest)");
  ledger_->Op(gateway->Checkpoint("ingest").ok(), "Checkpoint(ingest)");

  // The benchmark's own index: every probe's candidates must equal it.
  Result<BlockingIndex> index =
      BlockingIndex::Build(*base_left, right, BlockingConfig{});
  if (!index.ok()) {
    ledger_->Fail("BlockingIndex::Build failed");
    return;
  }
  // Traced replay state: the segment store, index and WAL the gateway's
  // AddRecord maintains, rebuilt from the layers' public functions.
  SideStore left_store;
  std::unique_ptr<NamespaceLog> log;
  DurabilityOptions replay_durability;
  replay_durability.dir = replay_dir;
  if (tr != nullptr) {
    left_store = SideStore::Build(*base_left, model_.suite);
    Result<std::unique_ptr<NamespaceLog>> created =
        NamespaceLog::Create(replay_durability, "ingest");
    if (!created.ok() ||
        !(*created)->WriteCheckpoint(*base_left, &right, 0, nullptr).ok()) {
      ledger_->Fail("replay NamespaceLog set-up failed");
      return;
    }
    log = created.MoveValueOrDie();
  }

  std::vector<RecordPair> verify;
  const size_t tenth = std::max<size_t>(held / 10, 1);
  for (size_t k = 0; k < held; ++k) {
    Yield();
    const uint64_t arrival_start = NowNs();
    const size_t id = base + k;  // namespace id of this arrival
    const Record& record = full_left.record(ds_.arrivals[k]);
    const int64_t entity = full_left.entity_id(ds_.arrivals[k]);
    if (k % config_.probe_every == 0) {
      const OpClock clock;
      Result<ProbeResponse> probe = gateway->ResolveRecord("ingest", record);
      const OpTime time = clock.Elapsed();
      const double ms = time.wall_ms;
      ledger_->Op(probe.ok(), Describe("ResolveRecord", probe.status()));
      std::vector<size_t> expected;
      ScoreResponse replayed;
      {
        Tracer::Span root(tr, "request.probe");
        PreparedRecord prepared;
        if (tr != nullptr) {
          Tracer::Span span(tr, "metrics.prepare");
          prepared = pipeline_.Prepare(record);
        }
        {
          Tracer::Span span(tr, "blocking.probe");
          expected = index->Candidates(record, BlockingSide::kRight);
        }
        if (tr != nullptr && probe.ok()) {
          FeaturizedBatch batch;
          {
            Tracer::Span span(tr, "featurize.probe");
            Result<FeaturizedBatch> featurized =
                pipeline_.RunProbePrepared(prepared, right_store_, expected);
            if (featurized.ok()) batch = featurized.MoveValueOrDie();
          }
          const std::shared_ptr<const ScorerSnapshot> scorer =
              engine_.snapshot();
          CsrActivation activation;
          {
            Tracer::Span span(tr, "rules");
            activation = scorer->compiled().EvaluateCsr(batch.features);
          }
          replayed.risk.resize(expected.size());
          replayed.machine_label.resize(expected.size());
          {
            Tracer::Span span(tr, "score");
            scorer->ScoreBatch(activation, batch.probs, replayed.risk.data(),
                               replayed.machine_label.data());
          }
          tr->Count("rules.pairs", static_cast<double>(expected.size()));
          tr->Count("rules.active",
                    static_cast<double>(activation.rule.size()));
        }
      }
      if (probe.ok()) {
        samples_->probe.Add(time);
        if (probe->candidates != expected) {
          ledger_->Fail("probe candidates differ from BlockingIndex");
        }
        if (tr != nullptr) {
          samples_->untraced_ms[p] += ms;
          tr->Count("metrics.prepared", 1);
          tr->Count("blocking.probes", 1);
          tr->Count("blocking.candidates",
                    static_cast<double>(expected.size()));
          tr->Count("featurize.probe_pairs",
                    static_cast<double>(expected.size()));
          if (!SameBits(replayed.risk, probe->scores.risk) ||
              replayed.machine_label != probe->scores.machine_label) {
            ledger_->Fail("traced probe replay differs from the gateway");
          }
        }
        if (++probes_seen_ % config_.check_every == 0) {
          pending_checks_[p].emplace_back(
              "probe differs from the offline reference",
              [this, &right, record, candidates = probe->candidates,
               risk = probe->scores.risk] {
                Result<FeaturizedBatch> raw =
                    pipeline_.RunProbe(record, right, candidates);
                if (!raw.ok()) return false;
                ScoreRequest request;
                request.metric_features = &raw->features;
                request.classifier_probs = raw->probs;
                Result<ScoreResponse> reference = engine_.Score(request);
                return reference.ok() && SameBits(reference->risk, risk);
              });
        }
        for (size_t candidate : expected) {
          const bool match =
              entity >= 0 && entity == right.entity_id(candidate);
          verify.push_back({id, candidate, match});
        }
      }
    }

    const OpClock clock;
    const Status added =
        gateway->AddRecord("ingest", BlockingSide::kLeft, record, entity);
    const OpTime time = clock.Elapsed();
    const double ms = time.wall_ms;
    ledger_->Op(added.ok(), Describe("AddRecord", added));
    if (added.ok()) samples_->append.Add(time);
    grown.Append(record, entity);
    {
      Tracer::Span root(tr, "request.append");
      if (tr != nullptr) {
        {
          Tracer::Span span(tr, "wal.append");
          WalEntry entry;
          entry.side = BlockingSide::kLeft;
          entry.entity_id = entity;
          entry.record = record;
          if (!log->Append(entry).ok()) ledger_->Fail("replay WAL append");
        }
        const uint64_t segment_start = NowNs();
        {
          Tracer::Span span(tr, "segments.append");
          left_store = left_store.WithAppended(record, entity, model_.suite);
        }
        const double segment_us =
            static_cast<double>(NowNs() - segment_start) * 1e-3;
        if (k < tenth) tr->Count("segments.first_tenth_us", segment_us);
        if (k >= held - tenth) tr->Count("segments.last_tenth_us", segment_us);
      }
      Tracer::Span span(tr, "blocking.add");
      if (!index->AddRecord(BlockingSide::kLeft, record, entity).ok()) {
        ledger_->Fail("BlockingIndex::AddRecord failed");
      }
    }
    if (tr != nullptr && added.ok()) {
      samples_->untraced_ms[p] += ms;
      samples_->traced_ms[p] += MsSince(arrival_start);
      tr->Count("blocking.adds", 1);
    }
  }
  if (tr != nullptr) {
    tr->Count("segments.tenth_appends", static_cast<double>(tenth));
    tr->Count("segments.count_end",
              static_cast<double>(left_store.segment_count()));
    tr->Count("segments.contiguous_end",
              left_store.contiguous_prepared() != nullptr ? 1.0 : 0.0);
    tr->Count("wal.records", static_cast<double>(held));
    for (const auto& file : fs::directory_iterator(replay_dir + "/ingest")) {
      const std::string name = file.path().filename().string();
      if (name.rfind("wal_", 0) == 0) {
        tr->Count("wal.bytes", static_cast<double>(file.file_size()));
      }
    }
  }

  FlushChecks(Phase::kIngest);
  Yield();

  // Parity Resolves on the grown namespace: they must read the same before
  // the restart and after every cold recovery.
  if (verify.empty()) verify = Batch(0);
  std::vector<std::vector<RecordPair>> requests(
      std::max<size_t>(parity_requests, 1));
  for (size_t v = 0; v < requests.size(); ++v) {
    for (size_t k = 0; k < config_.batch_pairs; ++k) {
      requests[v].push_back(
          verify[(v * config_.batch_pairs + k) % verify.size()]);
    }
  }
  std::vector<ScoreResponse> before;
  for (const auto& pairs : requests) {
    before.push_back(Resolve(gateway.get(), "ingest", Phase::kIngest, pairs,
                             grown, tr != nullptr ? &left_store : nullptr,
                             nullptr, true)
                         .scores);
  }
  FlushChecks(Phase::kIngest);
  gateway.reset();  // closes the namespace and its WAL

  for (size_t r = 0; r < config_.recoveries; ++r) {
    Yield();
    auto recovered = std::make_unique<Gateway>(options);
    const OpClock clock;
    const Status status =
        recovered->RecoverNamespace("ingest", MakeRecoverSpec(model_, schema));
    const OpTime time = clock.Elapsed();
    ledger_->Op(status.ok(), Describe("RecoverNamespace", status));
    if (!status.ok()) continue;
    samples_->recover.Add(time);
    Result<size_t> records =
        recovered->NumRecords("ingest", BlockingSide::kLeft);
    if (!records.ok() || *records != full_left.num_records()) {
      ledger_->Fail("recovered namespace lost or gained appends");
    }
    for (size_t v = 0; v < requests.size(); ++v) {
      const ResolveResponse after =
          Resolve(recovered.get(), "ingest", Phase::kIngest, requests[v],
                  grown, tr != nullptr ? &left_store : nullptr, nullptr, true);
      if (!SameScores(after.scores, before[v])) {
        ledger_->Fail("Resolve after recovery differs from before");
      }
    }
    FlushChecks(Phase::kIngest);
  }
  if (tr != nullptr) {
    log.reset();
    RecoveredNamespace state;
    const uint64_t start = NowNs();
    Result<std::unique_ptr<NamespaceLog>> recovered =
        NamespaceLog::Recover(replay_durability, "ingest", schema, &state);
    tr->Count("recover.ns", static_cast<double>(NowNs() - start));
    if (!recovered.ok() ||
        state.left.num_records() != full_left.num_records()) {
      ledger_->Fail("replay NamespaceLog::Recover lost appends");
    }
    tr->Count("recover.entries",
              static_cast<double>(state.checkpoint_records +
                                  state.wal_entries_replayed));
  }
  fs::remove_all(dir);
  fs::remove_all(replay_dir);
  ++samples_->rounds[p];
}

void Runner::ReviewRound() {
  constexpr int p = static_cast<int>(Phase::kReview);
  Tracer* tr = tracer(Phase::kReview);
  const Table& left = ds_.workload.left();
  const Table& right = ds_.workload.right();
  GatewayOptions options;
  options.review.enabled = true;
  Gateway gateway(options);
  ledger_->Op(gateway
                  .RegisterNamespace("review",
                                     MakeSpec(model_, ds_.workload.left_ptr(),
                                              ds_.workload.right_ptr()))
                  .ok(),
              "RegisterNamespace(review)");
  ledger_->Op(gateway.Publish("review", *model_.risk, model_.baseline).ok(),
              "Publish(review)");
  std::unique_ptr<ReviewMirror> mirror;
  if (tr != nullptr) {
    mirror = std::make_unique<ReviewMirror>(options.review.queue_capacity);
    mirror->engine.Publish(*model_.risk, model_.baseline);
  }
  const SideStore* store = tr != nullptr ? &left_store_ : nullptr;
  const bool first_round = samples_->rounds[p] == 0;

  std::vector<RecordPair> scored;
  size_t request = 0;
  for (size_t c = 0; c < config_.cycles; ++c) {
    size_t cycle_pairs = 0;
    for (size_t b = 0; b < config_.batches_per_cycle; ++b) {
      Yield();
      const std::vector<RecordPair> pairs = Batch(request++);
      Resolve(&gateway, "review", Phase::kReview, pairs, left, store,
              mirror.get(), true);
      cycle_pairs += pairs.size();
      if (first_round) scored.insert(scored.end(), pairs.begin(), pairs.end());
    }
    FlushChecks(Phase::kReview);
    Yield();
    // The label budget is a share of the pairs scored, so the loop spends
    // comparable human effort at every scale.
    const size_t budget = std::max<size_t>(
        2, static_cast<size_t>(std::ceil(config_.label_fraction *
                                         static_cast<double>(cycle_pairs))));
    double cycle_ms = 0.0;
    const uint64_t cycle_start = NowNs();
    uint64_t start = cycle_start;
    Result<std::vector<ReviewItem>> drained =
        gateway.DrainReview("review", budget);
    cycle_ms += MsSince(start);
    ledger_->Op(drained.ok(), Describe("DrainReview", drained.status()));
    std::vector<ReviewItem> items;
    if (drained.ok()) items = drained.MoveValueOrDie();
    for (const ReviewItem& item : items) {
      const uint8_t truth = Truth(left, right, item.left, item.right);
      start = NowNs();
      const Status labeled =
          gateway.SubmitReviewLabel("review", item.left, item.right, truth);
      cycle_ms += MsSince(start);
      ledger_->Op(labeled.ok(), Describe("SubmitReviewLabel", labeled));
    }
    const OpClock clock;
    Result<ReviewRetrainResult> retrained = gateway.RetrainFromReview("review");
    const OpTime retrain_time = clock.Elapsed();
    cycle_ms += retrain_time.wall_ms;
    ledger_->Op(retrained.ok(),
                Describe("RetrainFromReview", retrained.status()));
    if (retrained.ok()) samples_->retrain.Add(retrain_time);

    if (tr == nullptr) continue;
    samples_->untraced_ms[p] += cycle_ms;
    Tracer::Span root(tr, "request.review");
    std::vector<ReviewItem> mine;
    {
      Tracer::Span span(tr, "review.drain");
      mine = mirror->queue.DrainTop(budget);
    }
    bool same = mine.size() == items.size();
    for (size_t i = 0; same && i < mine.size(); ++i) {
      same = mine[i].left == items[i].left && mine[i].right == items[i].right;
    }
    if (!same) ledger_->Fail("traced review drain differs from the gateway");
    {
      Tracer::Span span(tr, "review.label");
      for (const ReviewItem& item : mine) {
        mirror->queue.Label(item.left, item.right,
                            Truth(left, right, item.left, item.right));
      }
    }
    Result<IncrementalRetrainOutput> output =
        Status::Internal("retrain not run");
    const IncrementalRetrainOptions retrain_options;
    {
      Tracer::Span span(tr, "retrain.train");
      output = RetrainFromLabels(mirror->engine.snapshot()->model(),
                                 mirror->queue.Labeled(), retrain_options);
    }
    if (!output.ok()) {
      ledger_->Fail("traced RetrainFromLabels failed");
      continue;
    }
    {
      Tracer::Span span(tr, "engine.publish");
      output->features.column_names = pipeline_.metric_names();
      auto baseline = std::make_shared<DriftBaseline>(
          DriftBaseline::FromTraining(output->features, output->risk_scores));
      mirror->engine.Publish(std::move(output->model), std::move(baseline));
    }
    samples_->traced_ms[p] += MsSince(cycle_start);
    tr->Count("review.drains", 1);
    tr->Count("review.labels", static_cast<double>(mine.size()));
    tr->Count("retrain.runs", 1);
    tr->Count("retrain.epochs",
              static_cast<double>(retrain_options.trainer.epochs));
  }

  Yield();
  // The final model: every round must serve it identically, and its risk
  // ranks the round's mislabeled pairs (risk_auroc).
  const ResolveResponse last = Resolve(&gateway, "review", Phase::kReview,
                                       Batch(0), left, store, mirror.get(),
                                       false);
  if (first_round) {
    review_final_risk_ = last.scores.risk;
    std::vector<double> risk;
    std::vector<uint8_t> mislabeled;
    for (size_t i = 0; i < scored.size(); i += config_.batch_pairs) {
      const size_t end = std::min(scored.size(), i + config_.batch_pairs);
      const std::vector<RecordPair> pairs(
          scored.begin() + static_cast<ptrdiff_t>(i),
          scored.begin() + static_cast<ptrdiff_t>(end));
      const ResolveResponse response = Resolve(
          &gateway, "review", Phase::kReview, pairs, left, nullptr, nullptr,
          false);
      for (size_t k = 0; k < response.scores.risk.size(); ++k) {
        risk.push_back(response.scores.risk[k]);
        mislabeled.push_back(response.scores.machine_label[k] !=
                             (pairs[k].is_equivalent ? 1 : 0));
      }
    }
    samples_->risk_auroc = Auroc(risk, mislabeled);
    samples_->auroc_pairs = risk.size();
    samples_->auroc_mislabeled = static_cast<size_t>(
        std::count(mislabeled.begin(), mislabeled.end(), uint8_t{1}));
  } else if (!SameBits(last.scores.risk, review_final_risk_)) {
    ledger_->Fail("review round served a different final model");
  }
  FlushChecks(Phase::kReview);
  if (mirror != nullptr) {
    const ReviewQueueStats stats = mirror->queue.Stats();
    tr->Count("review.offered", static_cast<double>(stats.offered));
    tr->Count("review.merged", static_cast<double>(stats.merged));
  }
  ++samples_->rounds[p];
}

}  // namespace perfbench
