// Copyright 2026 The LearnRisk Authors
// The repository benchmark binary (perfbench/README.md). One run:
//
//   perfbench --workload <resolve_batch|ingest_probe|review_retrain>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--git-sha <sha>] [--smoke]
//
// sets up the served model a few times (setup_s is the median), runs the
// workload's own phase in rounds until `--seconds` have passed and its tail
// percentiles have the samples they need, interleaved with fixed rounds of
// the other phases, and prints a table, a machine descriptor line and,
// last, the result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same operations also run through the traced layer replay and the
// metrics are the per-layer ones. Exits 1 when an operation failed or an
// output check did not hold.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/parallel.h"
#include "interleave.h"
#include "phases.h"
#include "stats.h"

namespace perfbench {
namespace {

using namespace learnrisk;  // NOLINT

/// The traced replay must account for the gateway's time within this
/// share: |1 - layer self time / untraced gateway time| on the workload's
/// own phase.
constexpr double kReconcileTolerance = 0.25;
/// A run never measures longer than this, whatever its sample targets.
constexpr double kMaxMeasureSeconds = 120.0;

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string better;
  std::string note;
};

double SafeDiv(double a, double b) { return b > 0.0 ? a / b : 0.0; }

double SumMs(const std::vector<double>& xs) {
  double total = 0.0;
  for (double x : xs) total += x;
  return total;
}

bool ParseArgs(int argc, char** argv, Config* config, std::string* git_sha) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* name) -> const char* {
      if (arg != name || i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (const char* v = value("--workload")) {
      config->workload = v;
    } else if (const char* v = value("--seed")) {
      config->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds")) {
      config->seconds = std::atof(v);
    } else if (const char* v = value("--trace")) {
      config->trace = std::string(v) == "1";
    } else if (const char* v = value("--work-dir")) {
      config->work_dir = v;
    } else if (const char* v = value("--git-sha")) {
      *git_sha = v;
    } else if (arg == "--smoke") {
      config->smoke = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
      return false;
    }
  }
  if (config->workload == "resolve_batch") {
    config->primary = Phase::kResolve;
  } else if (config->workload == "ingest_probe") {
    config->primary = Phase::kIngest;
  } else if (config->workload == "review_retrain") {
    config->primary = Phase::kReview;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", config->workload.c_str());
    return false;
  }
  if (config->smoke) {
    config->scale = 0.05;
    config->batch_pairs = 300;
    config->resolve_round = 6;
    config->arrivals = 40;
    config->probe_every = 2;
    config->recoveries = 2;
    config->verify_requests = 3;
    config->cycles = 2;
    config->batches_per_cycle = 3;
    config->setup_reps = 2;
    config->companion_review_rounds = 1;
    config->check_every = 3;
    config->min_tail_samples = 0;
    config->probe_layers_every = 2;
  }
  if (config->work_dir.empty()) {
    config->work_dir = ".bench_build/work-" + std::to_string(getpid());
  }
  return config->seconds > 0.0;
}

/// Tail samples the primary phase has gathered so far.
size_t TailSamples(const Config& config, const Samples& samples) {
  switch (config.primary) {
    case Phase::kResolve:
      return samples.resolve[0].size();
    case Phase::kIngest:
      return std::min(samples.resolve[1].size(), samples.probe.size());
    case Phase::kReview:
      return samples.resolve[2].size();
  }
  return 0;
}

/// Resets the kernel's peak-RSS mark, so the peak is taken from here on;
/// false where /proc/self/clear_refs is unavailable.
bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return clear.good();
}

/// Peak resident set (MB) since the last reset: VmHWM, or getrusage's
/// lifetime peak where /proc is unavailable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<Metric> EndToEnd(const Config& config, const Samples& s,
                             const Timings& setup, double peak_rss_mb) {
  // Every timing metric is process CPU time: on a shared VM host, hypervisor
  // steal moved the wall-time medians of unchanged code by 20-50% from run
  // to run, and CPU time leaves steal out. Wall-time medians and tails are
  // printed in the notes but are not metrics. resolve_* come from the
  // workload's own phase: its Resolve batches, the ingest phase's parity
  // Resolves on the grown namespace, or the review loop's Resolves.
  const int src = static_cast<int>(config.primary);
  const Timings& resolve = s.resolve[src];
  auto wall_note = [](const Timings& t) {
    const TailPick tail = SupportedTail(t.wall_ms, 0.99);
    char note[96];
    std::snprintf(note, sizeof(note), "n=%zu; wall p50 %.4g ms", t.size(),
                  Median(t.wall_ms));
    std::string out = note;
    if (tail.p > 0.5) {
      std::snprintf(note, sizeof(note), ", %s %.4g ms", tail.label.c_str(),
                    tail.value);
      out += note;
    }
    return out;
  };
  const double ingest_cpu_s =
      (SumMs(s.append.cpu_ms) + SumMs(s.probe.cpu_ms)) * 1e-3;
  return {
      {"setup_s", Median(setup.cpu_ms) * 1e-3, "s", "lower",
       "median of " + std::to_string(setup.size()) + " set-ups; wall " +
           std::to_string(Median(setup.wall_ms) * 1e-3) + " s"},
      {"peak_rss_mb", peak_rss_mb, "MB", "lower",
       "peak resident set from set-up on (VmHWM)"},
      {"resolve_cpu_p50_ms", Median(resolve.cpu_ms), "ms", "lower",
       std::string(PhaseName(config.primary)) + " phase, " +
           wall_note(resolve) + "; " +
           std::to_string(static_cast<long long>(
               SafeDiv(static_cast<double>(s.resolve_pairs[src]),
                       SumMs(resolve.wall_ms) * 1e-3))) +
           " pairs/s"},
      {"ingest_records_per_cpu_s",
       SafeDiv(static_cast<double>(s.append.size()), ingest_cpu_s),
       "records/cpu-s", "higher",
       "fsync_appends=false, probe 1 in " +
           std::to_string(config.probe_every) + "; wall " +
           std::to_string(static_cast<long long>(SafeDiv(
               static_cast<double>(s.append.size()),
               (SumMs(s.append.wall_ms) + SumMs(s.probe.wall_ms)) * 1e-3))) +
           " records/s"},
      {"append_cpu_p50_ms", Median(s.append.cpu_ms), "ms", "lower",
       wall_note(s.append)},
      {"probe_cpu_p50_ms", Median(s.probe.cpu_ms), "ms", "lower",
       wall_note(s.probe)},
      {"recover_cpu_ms", Median(s.recover.cpu_ms), "ms", "lower",
       "cold recoveries, " + wall_note(s.recover)},
      {"retrain_cpu_p50_ms", Median(s.retrain.cpu_ms), "ms", "lower",
       wall_note(s.retrain)},
      {"risk_auroc", s.risk_auroc, "auroc", "higher",
       std::to_string(s.auroc_mislabeled) + " mislabeled of " +
           std::to_string(s.auroc_pairs) + " scored pairs"},
  };
}

std::vector<Metric> PerLayer(const Config& config, const Samples& s,
                             const std::vector<std::string>& metric_names,
                             bool* reconciled) {
  std::map<std::string, double> self;
  std::map<std::string, double> c;
  for (const Tracer& tracer : s.tracers) {
    for (const auto& [layer, ms] : tracer.SelfMs()) self[layer] += ms;
    for (const auto& [name, value] : tracer.counts()) c[name] += value;
  }
  std::vector<Metric> out;
  for (const std::string& name : metric_names) {
    out.push_back({"metrics.kernel_ns_per_pair." + name,
                   SafeDiv(c["kernel_ns." + name], c["kernel.pairs"]), "ns",
                   "lower", "EvaluatePrepared"});
  }
  const double ingest_rounds = s.rounds[static_cast<int>(Phase::kIngest)];
  const double pool_calls = c["pool.calls"];
  out.insert(
      out.end(),
      {
          {"metrics.prepare_us_per_record",
           SafeDiv(self["metrics.prepare"] * 1e3, c["metrics.prepared"]), "us",
           "lower", "PrepareRecord"},
          {"featurize.ns_per_pair",
           SafeDiv(self["featurize"] * 1e6, c["featurize.pairs"]), "ns",
           "lower", "RunPrepared"},
          {"featurize.probe_ns_per_pair",
           SafeDiv(self["featurize.probe"] * 1e6, c["featurize.probe_pairs"]),
           "ns", "lower", "RunProbePrepared"},
          {"pool.wait_us", SafeDiv(c["pool.wait_ns"] * 1e-3, pool_calls), "us",
           "lower", "ParallelForRange call to first chunk"},
          {"pool.busy_share", SafeDiv(c["pool.busy_share"], pool_calls),
           "share", "higher", "chunk time / (threads x wall)"},
          {"pool.chunk_imbalance",
           SafeDiv(c["pool.chunk_imbalance"], pool_calls), "ratio", "lower",
           "longest chunk / mean chunk"},
          {"classify.ns_per_pair",
           SafeDiv(c["classify_ns"], c["classify.pairs"]), "ns", "lower",
           "PredictProbaAll"},
          {"rules.activation_ns_per_pair",
           SafeDiv(self["rules"] * 1e6, c["rules.pairs"]), "ns", "lower",
           "CompiledRuleSet::EvaluateCsr"},
          {"rules.active_per_pair",
           SafeDiv(c["rules.active"], c["rules.pairs"]), "count", "lower",
           "active rules per scored pair"},
          {"score.ns_per_pair", SafeDiv(self["score"] * 1e6, c["rules.pairs"]),
           "ns", "lower", "ScorerSnapshot::ScoreBatch"},
          {"engine.publish_ms",
           SafeDiv(self["engine.publish"], c["retrain.runs"]), "ms", "lower",
           "DriftBaseline + ServingEngine::Publish"},
          {"blocking.probe_us",
           SafeDiv(self["blocking.probe"] * 1e3, c["blocking.probes"]), "us",
           "lower", "BlockingIndex::Candidates"},
          {"blocking.candidates_per_probe",
           SafeDiv(c["blocking.candidates"], c["blocking.probes"]), "count",
           "lower", "Candidates"},
          {"blocking.add_us",
           SafeDiv(self["blocking.add"] * 1e3, c["blocking.adds"]), "us",
           "lower", "BlockingIndex::AddRecord"},
          {"segments.append_us.first_tenth",
           SafeDiv(c["segments.first_tenth_us"], c["segments.tenth_appends"]),
           "us", "lower", "SideStore::WithAppended, first tenth of stream"},
          {"segments.append_us.last_tenth",
           SafeDiv(c["segments.last_tenth_us"], c["segments.tenth_appends"]),
           "us", "lower", "SideStore::WithAppended, last tenth of stream"},
          {"segments.count_end",
           SafeDiv(c["segments.count_end"], ingest_rounds), "count", "lower",
           "left-side segments after the stream"},
          {"segments.contiguous_end",
           SafeDiv(c["segments.contiguous_end"], ingest_rounds), "share",
           "higher", "1 when the store is one contiguous segment"},
          {"wal.append_us",
           SafeDiv(self["wal.append"] * 1e3, c["wal.records"]), "us", "lower",
           "NamespaceLog::Append"},
          {"wal.bytes_per_record", SafeDiv(c["wal.bytes"], c["wal.records"]),
           "bytes", "lower", "WAL file bytes / appends"},
          {"recover.ms_per_1k_entries",
           SafeDiv(c["recover.ns"] * 1e-6, c["recover.entries"] * 1e-3), "ms",
           "lower", "NamespaceLog::Recover, checkpoint + WAL entries"},
          {"review.offer_us",
           SafeDiv(self["review.offer"] * 1e3, c["review.offers"]), "us",
           "lower", "ReviewQueue::Offer"},
          {"review.drain_us",
           SafeDiv(self["review.drain"] * 1e3, c["review.drains"]), "us",
           "lower", "ReviewQueue::DrainTop"},
          {"review.label_us",
           SafeDiv(self["review.label"] * 1e3, c["review.labels"]), "us",
           "lower", "ReviewQueue::Label"},
          {"review.merged_share",
           SafeDiv(c["review.merged"], c["review.offered"]), "share", "lower",
           "offers merged onto a queued pair / offers"},
          {"retrain.train_ms",
           SafeDiv(self["retrain.train"], c["retrain.runs"]), "ms", "lower",
           "RetrainFromLabels"},
          {"retrain.ms_per_epoch",
           SafeDiv(self["retrain.train"], c["retrain.epochs"]), "ms", "lower",
           "RetrainFromLabels / epochs"},
      });

  // Reconciliation on the workload's own phase: the layers' self times
  // against the untraced gateway time of the same operations.
  const int p = static_cast<int>(config.primary);
  const Tracer& own = s.tracers[p];
  double layer_ms = 0.0;
  for (const auto& [layer, ms] : own.SelfMs()) {
    if (layer.rfind("request.", 0) != 0) layer_ms += ms;
  }
  const double untraced = s.untraced_ms[p];
  const double unattributed = 1.0 - SafeDiv(layer_ms, untraced);
  *reconciled =
      untraced > 0.0 && std::fabs(unattributed) <= kReconcileTolerance;
  std::printf("reconciliation (%s phase): layer self time %.3f ms vs untraced "
              "gateway time %.3f ms -> unattributed %.4f (tolerance %.2f): "
              "%s\n",
              PhaseName(config.primary), layer_ms, untraced, unattributed,
              kReconcileTolerance, *reconciled ? "holds" : "FAILS");
  out.push_back({"gateway.unattributed_share", unattributed, "share", "lower",
                 "untraced gateway time not covered by layer spans"});
  out.push_back({"trace_overhead", SafeDiv(s.traced_ms[p], untraced), "ratio",
                 "lower",
                 "traced run's wall per op (gateway call + replay) / untraced "
                 "gateway wall"});
  return out;
}

/// CPU time counters of /proc/stat's "cpu" line: {total, steal} ticks;
/// {0, 0} where the file is unavailable.
std::pair<double, double> CpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  double total = 0.0;
  double steal = 0.0;
  double value = 0.0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {total, steal};
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMachine(const Config& config, const Dataset& ds,
                  const std::string& git_sha, double steal_share) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf(
      "{\"machine\": {\"nproc\": %ld, \"sched_getaffinity\": %d, "
      "\"hardware_concurrency\": %u, \"parallel_concurrency\": %zu, "
      "\"compiler\": %s, \"build_type\": %s, \"git_sha\": %s, "
      "\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"scale\": %s, \"traffic_pairs\": %zu, \"batch_pairs\": %zu, "
      "\"fsync_appends\": false, \"smoke\": %s, \"steal_share\": %s}}\n",
      sysconf(_SC_NPROCESSORS_ONLN), affinity,
      std::thread::hardware_concurrency(), ParallelConcurrency(),
      JsonString(compiler).c_str(), JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(git_sha).c_str(), JsonString(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed),
      JsonNumber(config.seconds).c_str(), config.trace ? 1 : 0,
      JsonNumber(config.scale).c_str(), ds.traffic.size(), config.batch_pairs,
      config.smoke ? "true" : "false", JsonNumber(steal_share).c_str());
}

int Run(int argc, char** argv) {
  Config config;
  std::string git_sha = "unknown";
  if (!ParseArgs(argc, argv, &config, &git_sha)) return 2;
  std::filesystem::create_directories(config.work_dir);

  Result<Dataset> ds = MakeDataset(config);
  if (!ds.ok()) {
    std::fprintf(stderr, "dataset: %s\n", ds.status().ToString().c_str());
    return 1;
  }
  // The peak resident set is the served system's from here on: the corpus
  // generator's temporaries are gone.
  ResetPeakRss();
  Ledger ledger;
  Samples samples;
  // Hypervisor steal over the run: on a shared host it, not the code,
  // explains a run that reads slow across every metric.
  const std::pair<double, double> ticks_start = CpuTicks();

  // The pool's threads start now, before the client thread is ever pinned
  // to one CPU (interleave.h), so they keep the process's affinity set.
  ParallelConcurrency();

  // Set-up: fit the served model and bring up the resolve namespace, a
  // few times, so work moved into set-up shows in setup_s. Each rep first
  // drops the previous one's model and namespace, so the peak never holds
  // two of them, and runs on the next CPU, as the phases' slices do.
  Timings setup;
  ServedModel model;
  std::unique_ptr<Gateway> resolve_gateway;
  for (CpuRotation rotation; setup.size() < config.setup_reps;) {
    resolve_gateway.reset();
    model = ServedModel();
    rotation.Next();
    const OpClock clock;
    Result<ServedModel> fitted = FitServedModel(*ds);
    ledger.Op(fitted.ok(), "FitServedModel: " + fitted.status().ToString());
    if (!fitted.ok()) break;
    resolve_gateway = std::make_unique<Gateway>();
    ledger.Op(resolve_gateway
                  ->RegisterNamespace("resolve",
                                      MakeSpec(*fitted, ds->workload.left_ptr(),
                                               ds->workload.right_ptr()))
                  .ok(),
              "RegisterNamespace(resolve)");
    ledger.Op(
        resolve_gateway->Publish("resolve", *fitted->risk, fitted->baseline)
            .ok(),
        "Publish(resolve)");
    setup.Add(clock.Elapsed());
    model = fitted.MoveValueOrDie();
  }

  // Per phase: seconds it ran, and when (since the phases began) it ended.
  double phase_run_s[3] = {0.0, 0.0, 0.0};
  double phase_end_s[3] = {0.0, 0.0, 0.0};
  if (ledger.failed == 0) {
    Runner runner(config, *ds, model, &samples, &ledger);
    auto round = [&](Phase phase) {
      switch (phase) {
        case Phase::kResolve:
          runner.ResolveRound(resolve_gateway.get());
          break;
        case Phase::kIngest:
          runner.IngestRound(phase == config.primary
                                 ? config.verify_requests
                                 : config.verify_requests / 4);
          break;
        case Phase::kReview:
          runner.ReviewRound();
          break;
      }
    };
    // The workload's own phase runs rounds until it has had `seconds` and
    // its tails have their samples. The other phases (the resolve phase is
    // resolve_batch's alone) run fixed rounds interleaved with it, each
    // with the share of time that spreads its rounds over the whole run.
    Interleaver tasks(config.quantum_s);
    const uint64_t start = NowNs();
    auto elapsed = [&] { return static_cast<double>(NowNs() - start) * 1e-9; };
    size_t task_of[3] = {0, 0, 0};
    const int own = static_cast<int>(config.primary);
    task_of[own] = tasks.Add(
        [&] {
          do {
            round(config.primary);
          } while (ledger.failed == 0 && elapsed() < kMaxMeasureSeconds &&
                   (tasks.seconds(task_of[own]) < config.seconds ||
                    TailSamples(config, samples) < config.min_tail_samples));
          phase_end_s[own] = elapsed();
        },
        1.0);
    struct Companion {
      Phase phase;
      size_t rounds;
      double round_s;
    };
    for (const Companion& c :
         {Companion{Phase::kIngest, config.companion_ingest_rounds,
                    config.companion_ingest_round_s},
          Companion{Phase::kReview, config.companion_review_rounds,
                    config.companion_review_round_s}}) {
      if (c.phase == config.primary) continue;
      const int p = static_cast<int>(c.phase);
      task_of[p] = tasks.Add(
          [&, c, p] {
            for (size_t r = 0; r < c.rounds && ledger.failed == 0; ++r) {
              round(c.phase);
            }
            phase_end_s[p] = elapsed();
          },
          static_cast<double>(c.rounds) * c.round_s / config.seconds);
    }
    runner.set_yield([&tasks] { tasks.Yield(); });
    tasks.Run();
    for (int p = 0; p < 3; ++p) {
      if (samples.rounds[p] > 0) phase_run_s[p] = tasks.seconds(task_of[p]);
    }
  }

  bool reconciled = true;
  const std::vector<Metric> metrics =
      config.trace ? PerLayer(config, samples, model.suite.MetricNames(),
                              &reconciled)
                   : EndToEnd(config, samples, setup, PeakRssMb());
  std::printf("%-44s %16s %-9s %-7s %s\n", "metric", "value", "unit",
              "better", "note");
  for (const Metric& m : metrics) {
    std::printf("%-44s %16.6g %-9s %-7s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.better.c_str(), m.note.c_str());
  }
  for (Phase phase : {Phase::kResolve, Phase::kIngest, Phase::kReview}) {
    const int p = static_cast<int>(phase);
    std::printf("phase %-7s %zu rounds, ran %.2f s, ended %.2f s in%s\n",
                PhaseName(phase), samples.rounds[p], phase_run_s[p],
                phase_end_s[p], phase == config.primary ? " (own)" : "");
  }
  for (const std::string& failure : ledger.failures) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  const std::pair<double, double> ticks_end = CpuTicks();
  PrintMachine(config, *ds, git_sha,
               SafeDiv(ticks_end.second - ticks_start.second,
                       ticks_end.first - ticks_start.first));

  const bool correct = ledger.failed == 0 && reconciled;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted);
  json += ", \"failed\": " + std::to_string(ledger.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  resolve_gateway.reset();
  std::filesystem::remove_all(config.work_dir);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
