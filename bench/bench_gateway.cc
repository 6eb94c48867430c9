// Copyright 2026 The LearnRisk Authors
//
// Request-gateway bench: end-to-end throughput of Gateway::Resolve on a
// generated DS workload — raw tables in, risk scores out — with the
// per-stage breakdown (blocking / featurize / classify / score) the
// gateway's StageTiming reports, p50/p99 per-request latency over fixed-size
// explicit-pair batches, a side-by-side raw vs prepared featurization
// comparison (FeaturePipeline::Run vs RunPrepared on the same candidate
// pairs, plus the one-time SideStore build cost), and a mixed
// read/write scenario: a concurrent AddRecord writer at ~5% of operation
// volume while the reader re-runs the batched requests — under the
// snapshot storage model, reader p99 must stay in the read-only ballpark
// instead of spiking behind writer locks. An observability section measures
// the telemetry subsystem's overhead (metrics off vs on, same traffic),
// reads p50/p99 back out of the gateway's own latency histograms, and dumps
// two Prometheus snapshots for tools/check_metrics_format.sh. Prints a
// table and writes BENCH_gateway.json so later PRs have an end-to-end
// serving perf trajectory.
//
// Env knobs:
//   LEARNRISK_BENCH_SCALE   dataset scale                (default 0.05)
//   LEARNRISK_BENCH_BATCH   explicit-pair request size   (default 256)
//   LEARNRISK_BENCH_RULES   risk-model rules             (default 64)
//   LEARNRISK_SEED          master seed                  (default 7)

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "classifier/logistic.h"
#include "common/random.h"
#include "common/timer.h"
#include "data/generators.h"
#include "gateway/gateway.h"
#include "obs/drift.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "risk/risk_feature.h"

namespace {

using namespace learnrisk;  // NOLINT

constexpr double kMinRunSeconds = 0.4;

double PairsPerSec(size_t pairs, double ms) {
  return ms > 0.0 ? static_cast<double>(pairs) / (ms / 1e3) : 0.0;
}

}  // namespace

int main() {
  bench::PrintBanner(
      "Request gateway: raw tables -> risk scores, per-stage breakdown");

  const double scale = bench::EnvDouble("LEARNRISK_BENCH_SCALE", 0.05);
  const size_t batch_size = bench::EnvSize("LEARNRISK_BENCH_BATCH", 256);
  const size_t num_rules = bench::EnvSize("LEARNRISK_BENCH_RULES", 64);
  const uint64_t seed = bench::Seed();

  GeneratorOptions generator;
  generator.scale = scale;
  generator.seed = seed;
  Result<Workload> workload = GenerateDataset("DS", generator);
  if (!workload.ok()) {
    std::fprintf(stderr, "generate failed: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }

  MetricSuite suite = MetricSuite::ForSchema(workload->left().schema());
  suite.Fit(*workload);
  const size_t num_metrics = suite.num_metrics();
  const FeatureMatrix features = ComputeFeatures(*workload, suite);
  LogisticOptions logistic;
  logistic.epochs = 60;
  logistic.seed = seed;
  auto classifier = std::make_shared<LogisticClassifier>(logistic);
  if (!classifier->Train(features, workload->Labels()).ok()) {
    std::fprintf(stderr, "classifier training failed\n");
    return 1;
  }

  Gateway gateway;
  NamespaceSpec spec;
  spec.left = workload->left_ptr();
  spec.right = workload->right_ptr();
  spec.suite = suite;
  spec.classifier = classifier;
  Status registered = gateway.RegisterNamespace("ds", std::move(spec));
  if (!registered.ok()) {
    std::fprintf(stderr, "register failed: %s\n",
                 registered.ToString().c_str());
    return 1;
  }
  const auto published = gateway.Publish(
      "ds", bench::MakeSyntheticRuleModel(num_rules, num_metrics, seed + 1));
  if (!published.ok()) {
    std::fprintf(stderr, "publish failed: %s\n",
                 published.status().ToString().c_str());
    return 1;
  }

  // --- Full-block end to end: one request = the whole candidate set. ------
  ResolveRequest block_all;
  block_all.block_all = true;
  size_t candidate_pairs = 0;
  size_t total_pairs = 0;
  StageTiming stage_sum;
  double total_ms = 0.0;
  {
    const auto warm = gateway.Resolve("ds", block_all);  // warm-up
    if (!warm.ok()) {
      std::fprintf(stderr, "resolve failed: %s\n",
                   warm.status().ToString().c_str());
      return 1;
    }
    candidate_pairs = warm->pairs.size();
    Timer timer;
    do {
      const auto response = gateway.Resolve("ds", block_all);
      if (!response.ok()) return 1;
      total_pairs += response->pairs.size();
      stage_sum.blocking_ms += response->timing.blocking_ms;
      stage_sum.featurize_ms += response->timing.featurize_ms;
      stage_sum.classify_ms += response->timing.classify_ms;
      stage_sum.score_ms += response->timing.score_ms;
    } while (timer.ElapsedSeconds() < kMinRunSeconds);
    total_ms = timer.ElapsedMillis();
  }
  const double end_to_end = PairsPerSec(total_pairs, total_ms);
  const double blocking_rate = PairsPerSec(total_pairs, stage_sum.blocking_ms);
  const double featurize_rate =
      PairsPerSec(total_pairs, stage_sum.featurize_ms);
  const double classify_rate =
      PairsPerSec(total_pairs, stage_sum.classify_ms);
  const double score_rate = PairsPerSec(total_pairs, stage_sum.score_ms);

  std::printf("workload: DS scale=%.2f, %zu x %zu records, %zu candidate "
              "pairs, %zu metrics, %zu rules\n\n",
              scale, workload->left().num_records(),
              workload->right().num_records(), candidate_pairs, num_metrics,
              num_rules);
  std::printf("full-block resolve (end-to-end %16.0f pairs/s):\n", end_to_end);
  std::printf("  %-12s %16s %10s\n", "stage", "pairs/s", "share");
  const double stage_total_ms = stage_sum.blocking_ms +
                                stage_sum.featurize_ms +
                                stage_sum.classify_ms + stage_sum.score_ms;
  std::printf("  %-12s %16.0f %9.1f%%\n", "blocking", blocking_rate,
              100.0 * stage_sum.blocking_ms / stage_total_ms);
  std::printf("  %-12s %16.0f %9.1f%%\n", "featurize", featurize_rate,
              100.0 * stage_sum.featurize_ms / stage_total_ms);
  std::printf("  %-12s %16.0f %9.1f%%\n", "classify", classify_rate,
              100.0 * stage_sum.classify_ms / stage_total_ms);
  std::printf("  %-12s %16.0f %9.1f%%\n", "score", score_rate,
              100.0 * stage_sum.score_ms / stage_total_ms);

  // --- Featurization, raw vs prepared, on the same candidate pairs. -------
  double featurize_raw_rate = 0.0;
  double featurize_prepared_rate = 0.0;
  double prepare_tables_ms = 0.0;
  {
    const auto full = gateway.Resolve("ds", block_all);
    if (!full.ok()) return 1;
    const std::vector<RecordPair>& pairs = full->pairs;
    const FeaturePipeline pipeline(suite, classifier);

    Timer prepare_timer;
    const SideStore left_prepared = SideStore::Build(workload->left(), suite);
    const SideStore right_prepared =
        SideStore::Build(workload->right(), suite);
    prepare_tables_ms = prepare_timer.ElapsedMillis();

    auto measure = [&](auto&& run) {
      size_t pairs_done = 0;
      Timer timer;
      do {
        if (!run().ok()) std::exit(1);
        pairs_done += pairs.size();
      } while (timer.ElapsedSeconds() < kMinRunSeconds);
      return PairsPerSec(pairs_done, timer.ElapsedMillis());
    };
    featurize_raw_rate = measure([&] {
      return pipeline.Run(workload->left(), workload->right(), pairs);
    });
    featurize_prepared_rate = measure([&] {
      return pipeline.RunPrepared(left_prepared, right_prepared, pairs);
    });
    std::printf("\nfeaturize only (%zu pairs):\n", pairs.size());
    std::printf("  %-12s %16.0f pairs/s\n", "raw", featurize_raw_rate);
    std::printf("  %-12s %16.0f pairs/s (%.2fx; one-time prepare %.2f ms)\n",
                "prepared", featurize_prepared_rate,
                featurize_raw_rate > 0.0
                    ? featurize_prepared_rate / featurize_raw_rate
                    : 0.0,
                prepare_tables_ms);
  }

  // --- Batched requests: per-request latency distribution. ----------------
  std::vector<ResolveRequest> batches;
  {
    const auto full = gateway.Resolve("ds", block_all);
    if (!full.ok()) return 1;
    for (size_t begin = 0; begin < full->pairs.size(); begin += batch_size) {
      const size_t end = std::min(begin + batch_size, full->pairs.size());
      ResolveRequest request;
      request.pairs.assign(full->pairs.begin() + static_cast<ptrdiff_t>(begin),
                           full->pairs.begin() + static_cast<ptrdiff_t>(end));
      batches.push_back(std::move(request));
    }
  }
  std::vector<double> latencies_ms;
  size_t batched_pairs = 0;
  double batched_ms = 0.0;
  {
    Timer run_timer;
    do {
      for (const ResolveRequest& request : batches) {
        Timer request_timer;
        const auto response = gateway.Resolve("ds", request);
        latencies_ms.push_back(request_timer.ElapsedMillis());
        if (!response.ok()) return 1;
        batched_pairs += response->pairs.size();
      }
    } while (run_timer.ElapsedSeconds() < kMinRunSeconds);
    batched_ms = run_timer.ElapsedMillis();
  }
  const double batched_rate = PairsPerSec(batched_pairs, batched_ms);
  const double p50 = bench::Percentile(latencies_ms, 0.5);
  const double p99 = bench::Percentile(latencies_ms, 0.99);
  std::printf("\nbatched resolve (batch=%zu): %16.0f pairs/s, p50 %.3f ms, "
              "p99 %.3f ms\n",
              batch_size, batched_rate, p50, p99);

  // --- Mixed read/write: a concurrent AddRecord writer at ~5% of ops. -----
  // The reader replays the same explicit-pair batches while a writer thread
  // appends copies of right-side records (entity unknown, like production
  // traffic). Readers run on atomically-loaded namespace snapshots, so
  // their latency must not spike behind the writer; compare read p99 here
  // against the read-only p99 above. (Run after the read-only sections:
  // the appended records grow the namespace.)
  std::vector<double> mixed_latencies_ms;
  std::atomic<size_t> mixed_requests{0};
  std::atomic<size_t> mixed_writes{0};
  std::atomic<bool> mixed_stop{false};
  {
    std::thread writer([&]() {
      size_t next = 0;
      const Table& source = workload->right();
      while (!mixed_stop.load(std::memory_order_relaxed)) {
        // Pace writes to one per 19 reader requests (~5% of operations).
        if (mixed_writes.load(std::memory_order_relaxed) * 19 <
            mixed_requests.load(std::memory_order_relaxed)) {
          const auto added = gateway.AddRecord(
              "ds", BlockingSide::kRight,
              source.record(next++ % source.num_records()), -1);
          if (!added.ok()) std::exit(1);
          mixed_writes.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
    bool mixed_failed = false;
    Timer run_timer;
    do {
      for (const ResolveRequest& request : batches) {
        Timer request_timer;
        const auto response = gateway.Resolve("ds", request);
        mixed_latencies_ms.push_back(request_timer.ElapsedMillis());
        if (!response.ok()) {
          mixed_failed = true;
          break;
        }
        mixed_requests.fetch_add(1, std::memory_order_relaxed);
      }
    } while (!mixed_failed && run_timer.ElapsedSeconds() < kMinRunSeconds);
    // Always stop and join the writer before leaving the block: returning
    // with a joinable std::thread would terminate the process.
    mixed_stop.store(true);
    writer.join();
    if (mixed_failed) return 1;
  }
  const double mixed_p50 = bench::Percentile(mixed_latencies_ms, 0.5);
  const double mixed_p99 = bench::Percentile(mixed_latencies_ms, 0.99);
  const double write_share =
      static_cast<double>(mixed_writes.load()) /
      static_cast<double>(mixed_writes.load() + mixed_requests.load());
  std::printf("mixed 95/5 read/write (batch=%zu, %zu writes, %.1f%% of "
              "ops): read p50 %.3f ms, p99 %.3f ms (%.2fx read-only p99)\n",
              batch_size, mixed_writes.load(), 100.0 * write_share, mixed_p50,
              mixed_p99, p99 > 0.0 ? mixed_p99 / p99 : 0.0);

  // --- Durability: WAL append cost and recovery time. ---------------------
  // Two fresh gateways over the same base tables — one in-memory, one with
  // the write-ahead log on — take the same append stream and the same
  // interleaved 95/5 read/write mix, so any delta is the WAL's fsync-free
  // append on the write path. Then the durable namespace is recovered from
  // disk at several (record count, WAL length) points: a long WAL tail, a
  // fresh checkpoint (no tail), and a longer tail over a bigger base.
  const std::string wal_dir = "bench_gateway_wal";
  std::filesystem::remove_all(wal_dir);
  const size_t wal_adds = bench::EnvSize("LEARNRISK_BENCH_ADDS", 2000);
  auto make_gateway = [&](bool durable) {
    GatewayOptions options;
    if (durable) options.durability.dir = wal_dir;
    auto fresh = std::make_unique<Gateway>(options);
    NamespaceSpec fresh_spec;
    fresh_spec.left = workload->left_ptr();
    fresh_spec.right = workload->right_ptr();
    fresh_spec.suite = suite;
    fresh_spec.classifier = classifier;
    if (!fresh->RegisterNamespace("ds", std::move(fresh_spec)).ok() ||
        !fresh
             ->Publish("ds", bench::MakeSyntheticRuleModel(
                                 num_rules, num_metrics, seed + 1))
             .ok()) {
      std::fprintf(stderr, "durability bench setup failed\n");
      std::exit(1);
    }
    return fresh;
  };
  auto add_at = [&](Gateway* target, size_t i) {
    const Table& source = workload->right();
    const auto added =
        target->AddRecord("ds", BlockingSide::kRight,
                          source.record(i % source.num_records()), -1);
    if (!added.ok()) {
      std::fprintf(stderr, "durability bench add failed: %s\n",
                   added.ToString().c_str());
      std::exit(1);
    }
  };
  auto add_rate = [&](Gateway* target) {
    Timer timer;
    for (size_t i = 0; i < wal_adds; ++i) add_at(target, i);
    const double ms = timer.ElapsedMillis();
    return ms > 0.0 ? static_cast<double>(wal_adds) / (ms / 1e3) : 0.0;
  };
  auto memory_gateway = make_gateway(false);
  auto durable_gateway = make_gateway(true);
  const double memory_adds_per_sec = add_rate(memory_gateway.get());
  const double durable_adds_per_sec = add_rate(durable_gateway.get());
  {
    // Durable appends must report where the write-path time went: the WAL
    // append and the snapshot publish stages of StageTiming are the contract
    // (docs/OBSERVABILITY.md); fail loudly if instrumentation regresses.
    StageTiming add_timing;
    const auto timed = durable_gateway->AddRecord(
        "ds", BlockingSide::kRight, workload->right().record(0), -1,
        &add_timing);
    if (!timed.ok() || add_timing.wal_append_ms <= 0.0 ||
        add_timing.publish_ms <= 0.0) {
      std::fprintf(stderr,
                   "durable AddRecord left StageTiming durability stages "
                   "empty (wal_append %.6f ms, publish %.6f ms)\n",
                   add_timing.wal_append_ms, add_timing.publish_ms);
      return 1;
    }
  }
  const double wal_append_overhead =
      durable_adds_per_sec > 0.0
          ? memory_adds_per_sec / durable_adds_per_sec - 1.0
          : 0.0;
  std::printf("\ndurability (%zu appends):\n", wal_adds);
  std::printf("  %-20s %12.0f adds/s\n", "AddRecord, memory",
              memory_adds_per_sec);
  std::printf("  %-20s %12.0f adds/s (WAL overhead %.1f%%)\n",
              "AddRecord, durable", durable_adds_per_sec,
              100.0 * wal_append_overhead);

  // Interleaved 95/5 mix (19 reads, then 1 write, single thread): the
  // deterministic ops ratio isolates the WAL's per-write cost from reader
  // scheduling noise.
  struct MixedCost {
    double read_p99_ms = 0.0;
    double write_p50_ms = 0.0;
  };
  constexpr size_t kMixedWrites = 40;
  // Cycles alternate between the two gateways so clock/cache drift over the
  // run lands on both sides equally; a fixed write count (not wall clock)
  // sizes the sample, and the median write latency is robust to the
  // occasional O(n) binary-counter merge.
  MixedCost memory_mixed;
  MixedCost durable_mixed;
  {
    Gateway* targets[2] = {memory_gateway.get(), durable_gateway.get()};
    std::vector<double> reads_ms[2];
    std::vector<double> writes_ms[2];
    size_t batch_index = 0;
    size_t add_index[2] = {0, 0};
    while (writes_ms[0].size() < kMixedWrites) {
      for (int g = 0; g < 2; ++g) {
        for (size_t r = 0; r < 19; ++r) {
          const ResolveRequest& request =
              batches[batch_index++ % batches.size()];
          Timer request_timer;
          if (!targets[g]->Resolve("ds", request).ok()) std::exit(1);
          reads_ms[g].push_back(request_timer.ElapsedMillis());
        }
        Timer write_timer;
        add_at(targets[g], add_index[g]++);
        writes_ms[g].push_back(write_timer.ElapsedMillis());
      }
    }
    memory_mixed.read_p99_ms = bench::Percentile(reads_ms[0], 0.99);
    memory_mixed.write_p50_ms = bench::Percentile(writes_ms[0], 0.5);
    durable_mixed.read_p99_ms = bench::Percentile(reads_ms[1], 0.99);
    durable_mixed.write_p50_ms = bench::Percentile(writes_ms[1], 0.5);
  }
  const double mixed_write_overhead =
      memory_mixed.write_p50_ms > 0.0
          ? durable_mixed.write_p50_ms / memory_mixed.write_p50_ms - 1.0
          : 0.0;
  std::printf("  mixed 95/5: write p50 %.3f ms memory, %.3f ms durable "
              "(overhead %.1f%%); read p99 %.3f / %.3f ms\n",
              memory_mixed.write_p50_ms, durable_mixed.write_p50_ms,
              100.0 * mixed_write_overhead, memory_mixed.read_p99_ms,
              durable_mixed.read_p99_ms);

  // Recovery: rebuild the namespace from disk. Three points — WAL-tail
  // replay, a fresh checkpoint, and a longer tail over the checkpointed
  // base — each timed on a cold Gateway.
  struct RecoveryPoint {
    size_t records = 0;
    size_t wal_entries = 0;
    double ms = 0.0;
  };
  std::vector<RecoveryPoint> recovery_points;
  auto recover_spec = [&]() {
    RecoverNamespaceSpec spec;
    spec.schema = workload->left().schema();
    spec.suite = suite;
    spec.classifier = classifier;
    return spec;
  };
  auto time_recovery = [&]() {
    GatewayOptions options;
    options.durability.dir = wal_dir;
    auto cold = std::make_unique<Gateway>(options);
    Timer timer;
    const Status recovered = cold->RecoverNamespace("ds", recover_spec());
    const double ms = timer.ElapsedMillis();
    if (!recovered.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   recovered.ToString().c_str());
      std::exit(1);
    }
    RecoveryPoint point;
    point.records = *cold->NumRecords("ds", BlockingSide::kLeft) +
                    *cold->NumRecords("ds", BlockingSide::kRight);
    point.wal_entries = *cold->WalEntriesSinceCheckpoint("ds");
    point.ms = ms;
    recovery_points.push_back(point);
    return cold;
  };
  durable_gateway.reset();  // close the WAL before recovering the directory
  auto recovered_one = time_recovery();  // long WAL tail
  if (!recovered_one->Checkpoint("ds").ok()) {
    std::fprintf(stderr, "checkpoint failed\n");
    return 1;
  }
  recovered_one.reset();
  auto recovered_two = time_recovery();  // fresh checkpoint, empty tail
  for (size_t i = 0; i < wal_adds; ++i) add_at(recovered_two.get(), i);
  recovered_two.reset();
  time_recovery().reset();  // longer tail over the bigger checkpointed base
  for (const RecoveryPoint& point : recovery_points) {
    std::printf("  recover %zu records (%zu WAL entries): %.2f ms\n",
                point.records, point.wal_entries, point.ms);
  }
  std::filesystem::remove_all(wal_dir);

  // --- Observability: instrumentation overhead and metrics export. --------
  // Two fresh in-memory gateways over the same namespace take the same
  // full-block resolve stream, one with telemetry off (every instrument
  // pointer null) and one with the default instrumented configuration. The
  // delta is the total cost of the sharded counters, histograms, and trace
  // spans on the hot path. The instrumented gateway's own request-latency
  // histogram is then read back (p50/p99 from the log buckets) and two
  // Prometheus snapshots are dumped for tools/check_metrics_format.sh.
  double uninstrumented_pairs_per_sec = 0.0;
  double instrumented_pairs_per_sec = 0.0;
  double metrics_overhead = 0.0;
  double hist_p50_ms = 0.0;
  double hist_p99_ms = 0.0;
  {
    auto fresh_gateway = [&](bool enable_metrics) {
      GatewayOptions options;
      options.enable_metrics = enable_metrics;
      auto fresh = std::make_unique<Gateway>(options);
      NamespaceSpec fresh_spec;
      fresh_spec.left = workload->left_ptr();
      fresh_spec.right = workload->right_ptr();
      fresh_spec.suite = suite;
      fresh_spec.classifier = classifier;
      if (!fresh->RegisterNamespace("ds", std::move(fresh_spec)).ok() ||
          !fresh
               ->Publish("ds", bench::MakeSyntheticRuleModel(
                                   num_rules, num_metrics, seed + 1))
               .ok()) {
        std::fprintf(stderr, "observability bench setup failed\n");
        std::exit(1);
      }
      return fresh;
    };
    auto plain = fresh_gateway(false);
    auto instrumented = fresh_gateway(true);
    // Alternate single full-block requests between the two gateways so
    // clock/cache drift over the run lands on both sides equally — the
    // per-request instrumentation cost is far below sequential-run noise.
    // Large scales can fit only a couple of requests in the time budget,
    // so force a minimum round count and use the median per-round on/off
    // latency ratio: one preempted request then shifts one ratio, not the
    // whole comparison.
    Gateway* targets[2] = {plain.get(), instrumented.get()};
    double side_ms[2] = {0.0, 0.0};
    size_t side_pairs[2] = {0, 0};
    for (int g = 0; g < 2; ++g) {  // warm-up
      if (!targets[g]->Resolve("ds", block_all).ok()) std::exit(1);
    }
    const double overhead_run_ms = 2.5 * kMinRunSeconds * 1e3;
    constexpr int kMinOverheadRounds = 12;
    std::vector<double> round_ratio;
    while (static_cast<int>(round_ratio.size()) < kMinOverheadRounds ||
           side_ms[0] + side_ms[1] < overhead_run_ms) {
      double round_ms[2] = {0.0, 0.0};
      for (int g = 0; g < 2; ++g) {
        Timer timer;
        const auto response = targets[g]->Resolve("ds", block_all);
        if (!response.ok()) std::exit(1);
        round_ms[g] = timer.ElapsedMillis();
        side_ms[g] += round_ms[g];
        side_pairs[g] += response->pairs.size();
      }
      if (round_ms[0] > 0.0) round_ratio.push_back(round_ms[1] / round_ms[0]);
    }
    uninstrumented_pairs_per_sec = PairsPerSec(side_pairs[0], side_ms[0]);
    instrumented_pairs_per_sec = PairsPerSec(side_pairs[1], side_ms[1]);
    std::sort(round_ratio.begin(), round_ratio.end());
    metrics_overhead =
        round_ratio.empty()
            ? 0.0
            : round_ratio[round_ratio.size() / 2] - 1.0;

    const MetricsSnapshot first = instrumented->MetricsSnapshot();
    const HistogramSnapshot* request_latency =
        first.FindHistogram("learnrisk_gateway_request_latency_seconds",
                            {{"api", "resolve"}, {"namespace", "ds"}});
    if (request_latency == nullptr || request_latency->count == 0) {
      std::fprintf(stderr, "instrumented gateway reported no request "
                           "latency histogram\n");
      return 1;
    }
    // Quantiles come out in the histogram's raw unit (ns); scale to ms.
    hist_p50_ms = static_cast<double>(request_latency->Quantile(0.5)) *
                  request_latency->scale * 1e3;
    hist_p99_ms = static_cast<double>(request_latency->Quantile(0.99)) *
                  request_latency->scale * 1e3;
    std::printf("\nobservability:\n");
    std::printf("  %-24s %12.0f pairs/s\n", "full block, metrics off",
                uninstrumented_pairs_per_sec);
    std::printf("  %-24s %12.0f pairs/s (overhead %.2f%%)\n",
                "full block, metrics on", instrumented_pairs_per_sec,
                100.0 * metrics_overhead);
    std::printf("  request latency from histogram: p50 %.3f ms, p99 %.3f "
                "ms over %llu requests\n",
                hist_p50_ms, hist_p99_ms,
                static_cast<unsigned long long>(request_latency->count));

    // Two snapshots with traffic in between: the format checker verifies
    // exposition syntax on both and counter monotonicity across them.
    FILE* prom = std::fopen("gateway_metrics_1.prom", "w");
    if (prom != nullptr) {
      const std::string text = ExportPrometheusText(first);
      std::fwrite(text.data(), 1, text.size(), prom);
      std::fclose(prom);
    }
    for (int i = 0; i < 3; ++i) {
      if (!instrumented->Resolve("ds", block_all).ok()) return 1;
    }
    prom = std::fopen("gateway_metrics_2.prom", "w");
    if (prom != nullptr) {
      const std::string text =
          ExportPrometheusText(instrumented->MetricsSnapshot());
      std::fwrite(text.data(), 1, text.size(), prom);
      std::fclose(prom);
    }
    std::printf("  wrote gateway_metrics_1.prom, gateway_metrics_2.prom\n");
  }

  // --- Decision observability: tracing + drift on top of metrics. ---------
  // Same alternating full-block protocol as above, but the baseline side
  // already has metrics on; the delta is the cost of request-scoped tracing
  // (id assignment, stage span sinks, 1-in-64 capture) plus drift
  // monitoring (per-column feature histograms + a published training
  // baseline). Then a third gateway takes a single-threaded 95/5
  // read/write mix with the tail triggers armed (slow = read-only p50, so
  // roughly half the requests qualify; high-risk = 0.9) and its audit ring
  // is dumped as gateway_traces.json for tools/check_metrics_format.sh.
  double metrics_only_pairs_per_sec = 0.0;
  double decision_pairs_per_sec = 0.0;
  double decision_overhead = 0.0;
  int64_t max_drift_psi_micros = 0;
  int64_t exemplar_captured = 0;
  int64_t exemplar_dropped = 0;
  size_t exemplar_resident = 0;
  size_t exemplar_head = 0;
  size_t exemplar_slow = 0;
  size_t exemplar_high_risk = 0;
  {
    auto fresh_gateway = [&](const GatewayOptions& options,
                             std::shared_ptr<const DriftBaseline> baseline) {
      auto fresh = std::make_unique<Gateway>(options);
      NamespaceSpec fresh_spec;
      fresh_spec.left = workload->left_ptr();
      fresh_spec.right = workload->right_ptr();
      fresh_spec.suite = suite;
      fresh_spec.classifier = classifier;
      if (!fresh->RegisterNamespace("ds", std::move(fresh_spec)).ok() ||
          !fresh
               ->Publish("ds",
                         bench::MakeSyntheticRuleModel(num_rules, num_metrics,
                                                       seed + 1),
                         std::move(baseline))
               .ok()) {
        std::fprintf(stderr, "decision observability bench setup failed\n");
        std::exit(1);
      }
      return fresh;
    };
    const auto training_baseline = std::make_shared<const DriftBaseline>(
        DriftBaseline::FromTraining(features));
    GatewayOptions metrics_only;
    metrics_only.trace.enabled = false;
    metrics_only.drift.enabled = false;
    auto plain = fresh_gateway(metrics_only, nullptr);
    auto traced = fresh_gateway(GatewayOptions{}, training_baseline);

    Gateway* targets[2] = {plain.get(), traced.get()};
    double side_ms[2] = {0.0, 0.0};
    size_t side_pairs[2] = {0, 0};
    for (int g = 0; g < 2; ++g) {  // warm-up
      if (!targets[g]->Resolve("ds", block_all).ok()) std::exit(1);
    }
    // At large scales a single full-block request can eat the whole time
    // budget, leaving the off-vs-on comparison as a one-sample coin flip.
    // Force enough alternation rounds to average over scheduler noise, and
    // take the *median* per-round traced/plain latency ratio — one
    // preempted request then shifts one ratio instead of the whole total.
    const double overhead_run_ms = 2.5 * kMinRunSeconds * 1e3;
    constexpr int kMinOverheadRounds = 12;
    std::vector<double> round_ratio;
    while (static_cast<int>(round_ratio.size()) < kMinOverheadRounds ||
           side_ms[0] + side_ms[1] < overhead_run_ms) {
      double round_ms[2] = {0.0, 0.0};
      for (int g = 0; g < 2; ++g) {
        Timer timer;
        const auto response = targets[g]->Resolve("ds", block_all);
        if (!response.ok()) std::exit(1);
        round_ms[g] = timer.ElapsedMillis();
        side_ms[g] += round_ms[g];
        side_pairs[g] += response->pairs.size();
      }
      if (round_ms[0] > 0.0) round_ratio.push_back(round_ms[1] / round_ms[0]);
    }
    metrics_only_pairs_per_sec = PairsPerSec(side_pairs[0], side_ms[0]);
    decision_pairs_per_sec = PairsPerSec(side_pairs[1], side_ms[1]);
    std::sort(round_ratio.begin(), round_ratio.end());
    decision_overhead =
        round_ratio.empty()
            ? 0.0
            : round_ratio[round_ratio.size() / 2] - 1.0;
    for (const GaugeSnapshot& gauge : traced->MetricsSnapshot().gauges) {
      if (gauge.name == "learnrisk_gateway_drift_psi_micros") {
        max_drift_psi_micros = std::max(max_drift_psi_micros, gauge.value);
      }
    }

    GatewayOptions exemplar_options;
    exemplar_options.trace.sample_every = 32;
    exemplar_options.trace.slow_request_ms = p50;
    exemplar_options.trace.high_risk_threshold = 0.9;
    auto exemplar = fresh_gateway(exemplar_options, training_baseline);
    size_t batch_index = 0;
    size_t add_index = 0;
    size_t reads = 0;
    while (reads < 190) {
      for (size_t r = 0; r < 19; ++r, ++reads) {
        const ResolveRequest& request =
            batches[batch_index++ % batches.size()];
        if (!exemplar->Resolve("ds", request).ok()) std::exit(1);
      }
      add_at(exemplar.get(), add_index++);
    }
    const auto exemplar_traces = exemplar->RecentTraces();
    exemplar_resident = exemplar_traces.size();
    for (const auto& trace : exemplar_traces) {
      if (trace->head_sampled) ++exemplar_head;
      if (trace->slow) ++exemplar_slow;
      if (trace->high_risk) ++exemplar_high_risk;
    }
    const MetricsSnapshot exemplar_snap = exemplar->MetricsSnapshot();
    const GaugeSnapshot* captured =
        exemplar_snap.FindGauge("learnrisk_gateway_traces_captured");
    const GaugeSnapshot* dropped =
        exemplar_snap.FindGauge("learnrisk_gateway_traces_dropped");
    exemplar_captured = captured != nullptr ? captured->value : 0;
    exemplar_dropped = dropped != nullptr ? dropped->value : 0;
    if (exemplar_captured <= 0 || exemplar_resident == 0) {
      std::fprintf(stderr, "exemplar run captured no traces (thresholds "
                           "armed, %zu requests)\n",
                   reads);
      return 1;
    }
    FILE* trace_file = std::fopen("gateway_traces.json", "w");
    if (trace_file != nullptr) {
      const std::string text = ExportTracesJson(exemplar_traces);
      std::fwrite(text.data(), 1, text.size(), trace_file);
      std::fclose(trace_file);
    }

    std::printf("\ndecision observability:\n");
    std::printf("  %-28s %12.0f pairs/s\n", "full block, metrics only",
                metrics_only_pairs_per_sec);
    std::printf("  %-28s %12.0f pairs/s (overhead %.2f%%)\n",
                "full block, +tracing +drift", decision_pairs_per_sec,
                100.0 * decision_overhead);
    std::printf("  drift gauges armed: max PSI %.4f across columns\n",
                static_cast<double>(max_drift_psi_micros) / 1e6);
    std::printf("  exemplar mix: %lld captured (%zu resident: %zu head, %zu "
                "slow, %zu high-risk), %lld overwritten\n",
                static_cast<long long>(exemplar_captured), exemplar_resident,
                exemplar_head, exemplar_slow, exemplar_high_risk,
                static_cast<long long>(exemplar_dropped));
    std::printf("  wrote gateway_traces.json\n");
  }

  FILE* json = std::fopen("BENCH_gateway.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"scale\": %.3f,\n"
                 "  \"records_left\": %zu,\n"
                 "  \"records_right\": %zu,\n"
                 "  \"candidate_pairs\": %zu,\n"
                 "  \"metric_columns\": %zu,\n"
                 "  \"rules\": %zu,\n",
                 scale, workload->left().num_records(),
                 workload->right().num_records(), candidate_pairs, num_metrics,
                 num_rules);
    std::fprintf(json,
                 "  \"full_block\": {\n"
                 "    \"end_to_end_pairs_per_sec\": %.1f,\n"
                 "    \"blocking_pairs_per_sec\": %.1f,\n"
                 "    \"featurize_pairs_per_sec\": %.1f,\n"
                 "    \"classify_pairs_per_sec\": %.1f,\n"
                 "    \"score_pairs_per_sec\": %.1f\n"
                 "  },\n",
                 end_to_end, blocking_rate, featurize_rate, classify_rate,
                 score_rate);
    std::fprintf(json,
                 "  \"featurize\": {\n"
                 "    \"raw_pairs_per_sec\": %.1f,\n"
                 "    \"prepared_pairs_per_sec\": %.1f,\n"
                 "    \"prepared_speedup\": %.2f,\n"
                 "    \"prepare_tables_ms\": %.3f\n"
                 "  },\n",
                 featurize_raw_rate, featurize_prepared_rate,
                 featurize_raw_rate > 0.0
                     ? featurize_prepared_rate / featurize_raw_rate
                     : 0.0,
                 prepare_tables_ms);
    std::fprintf(json,
                 "  \"batched\": {\n"
                 "    \"batch\": %zu,\n"
                 "    \"pairs_per_sec\": %.1f,\n"
                 "    \"request_p50_ms\": %.4f,\n"
                 "    \"request_p99_ms\": %.4f\n"
                 "  },\n",
                 batch_size, batched_rate, p50, p99);
    std::fprintf(json,
                 "  \"mixed_read_write\": {\n"
                 "    \"write_ops_share\": %.4f,\n"
                 "    \"writes\": %zu,\n"
                 "    \"read_p50_ms\": %.4f,\n"
                 "    \"read_p99_ms\": %.4f,\n"
                 "    \"readonly_p99_ms\": %.4f,\n"
                 "    \"p99_vs_readonly\": %.3f\n"
                 "  },\n",
                 write_share, mixed_writes.load(), mixed_p50, mixed_p99, p99,
                 p99 > 0.0 ? mixed_p99 / p99 : 0.0);
    std::fprintf(json,
                 "  \"durability\": {\n"
                 "    \"adds\": %zu,\n"
                 "    \"memory_adds_per_sec\": %.1f,\n"
                 "    \"durable_adds_per_sec\": %.1f,\n"
                 "    \"wal_append_overhead\": %.4f,\n"
                 "    \"mixed_write_p50_ms_memory\": %.4f,\n"
                 "    \"mixed_write_p50_ms_durable\": %.4f,\n"
                 "    \"mixed_write_overhead\": %.4f,\n"
                 "    \"mixed_read_p99_ms_memory\": %.4f,\n"
                 "    \"mixed_read_p99_ms_durable\": %.4f,\n"
                 "    \"recovery\": [",
                 wal_adds, memory_adds_per_sec, durable_adds_per_sec,
                 wal_append_overhead, memory_mixed.write_p50_ms,
                 durable_mixed.write_p50_ms, mixed_write_overhead,
                 memory_mixed.read_p99_ms, durable_mixed.read_p99_ms);
    for (size_t i = 0; i < recovery_points.size(); ++i) {
      std::fprintf(json,
                   "%s\n      {\"records\": %zu, \"wal_entries\": %zu, "
                   "\"ms\": %.3f}",
                   i == 0 ? "" : ",", recovery_points[i].records,
                   recovery_points[i].wal_entries, recovery_points[i].ms);
    }
    std::fprintf(json, "\n    ]\n  },\n");
    std::fprintf(json,
                 "  \"observability\": {\n"
                 "    \"uninstrumented_pairs_per_sec\": %.1f,\n"
                 "    \"instrumented_pairs_per_sec\": %.1f,\n"
                 "    \"metrics_overhead\": %.4f,\n"
                 "    \"histogram_request_p50_ms\": %.4f,\n"
                 "    \"histogram_request_p99_ms\": %.4f\n"
                 "  },\n",
                 uninstrumented_pairs_per_sec, instrumented_pairs_per_sec,
                 metrics_overhead, hist_p50_ms, hist_p99_ms);
    std::fprintf(json,
                 "  \"decision_observability\": {\n"
                 "    \"metrics_only_pairs_per_sec\": %.1f,\n"
                 "    \"tracing_drift_pairs_per_sec\": %.1f,\n"
                 "    \"tracing_drift_overhead\": %.4f,\n"
                 "    \"max_drift_psi_micros\": %lld,\n"
                 "    \"exemplar_captured\": %lld,\n"
                 "    \"exemplar_dropped\": %lld,\n"
                 "    \"exemplar_resident\": %zu,\n"
                 "    \"exemplar_head_sampled\": %zu,\n"
                 "    \"exemplar_slow\": %zu,\n"
                 "    \"exemplar_high_risk\": %zu\n"
                 "  }\n}\n",
                 metrics_only_pairs_per_sec, decision_pairs_per_sec,
                 decision_overhead,
                 static_cast<long long>(max_drift_psi_micros),
                 static_cast<long long>(exemplar_captured),
                 static_cast<long long>(exemplar_dropped), exemplar_resident,
                 exemplar_head, exemplar_slow, exemplar_high_risk);
    std::fclose(json);
    std::printf("\n  wrote BENCH_gateway.json\n");
  }
  return 0;
}
