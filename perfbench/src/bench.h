// Copyright 2026 The LearnRisk Authors
// Shared types of the repository benchmark (perfbench/README.md): the run
// configuration, the served model fitted at set-up, the samples every phase
// collects, and the in-memory span tracer of the traced run.
//
// A workload is a mix of three phases, each a single-client closed loop
// against the public Gateway API:
//   resolve  explicit-pair Resolve batches on a namespace that never changes
//   ingest   a durable namespace takes a fixed stream of fresh left-side
//            records (AddRecord, every Nth one ResolveRecord-probed first),
//            then is closed and cold-recovered a few times
//   review   the paper's loop: Resolve batches feed the review queue, then
//            DrainReview, SubmitReviewLabel (generator truth) and
//            RetrainFromReview
// The workload's own phase repeats rounds until the time budget is spent;
// the other phases run a fixed number of rounds, so every end-to-end metric
// is measured on every workload. All phases run as interleaved tasks on the
// one client thread (interleave.h), so each metric's samples come from the
// whole run.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "classifier/classifier.h"
#include "data/workload.h"
#include "metrics/metric_suite.h"
#include "obs/drift.h"
#include "risk/risk_model.h"

namespace perfbench {

using learnrisk::RecordPair;

enum class Phase { kResolve, kIngest, kReview };

const char* PhaseName(Phase phase);

/// \brief Everything one run is told: the workload, its seed and time
/// budget, and the sizes of every phase round.
struct Config {
  std::string workload;
  Phase primary = Phase::kResolve;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch directory for WAL and checkpoints

  double scale = 0.2;              ///< DS generator scale
  size_t batch_pairs = 512;        ///< pairs per Resolve request
  size_t resolve_round = 250;      ///< Resolve requests per resolve round
  /// Fresh records per ingest round, held back from the generated left
  /// table (at most three quarters of it).
  size_t arrivals = 1100;
  size_t probe_every = 1;          ///< every Nth arrival is probed first
  size_t recoveries = 15;          ///< cold recoveries per ingest round
  /// Resolves per recovery parity check when ingest is the workload's own
  /// phase (they are its resolve_* samples); a quarter of that otherwise.
  size_t verify_requests = 32;
  size_t cycles = 6;               ///< review cycles per review round
  size_t batches_per_cycle = 32;   ///< Resolves per review cycle
  double label_fraction = 0.005;   ///< labels per cycle / pairs scored
  size_t setup_reps = 7;           ///< set-ups timed per run (median)
  /// Rounds of a phase that is not the workload's own.
  size_t companion_ingest_rounds = 1;
  size_t companion_review_rounds = 3;
  /// About how long such a round takes on a calm 4-vCPU host. The phase
  /// gets that share of the own phase's `seconds`, so its rounds spread
  /// over the whole run and end near its end.
  double companion_ingest_round_s = 8.0;
  double companion_review_round_s = 2.8;
  /// A phase runs about this long before another phase gets its turn.
  double quantum_s = 0.02;
  size_t check_every = 50;         ///< offline-reference parity sampling
  /// Tail samples (Resolve requests, probes) the primary phase must reach
  /// before it may stop: p99 needs 1000.
  size_t min_tail_samples = 1000;
  /// Traced run: every Nth decomposed Resolve also runs the layer probes
  /// (per-kind kernels, pool chunk timing, classifier alone).
  size_t probe_layers_every = 8;

  /// Tiny sizes for the smoke test; tails then report the percentile
  /// their sample supports (stats.h).
  bool smoke = false;
};

/// \brief Seed of the generated corpus and of the model fitted on it. The
/// corpus is the same on every run, so a run's cost does not depend on
/// which tables a seed happens to generate; `--seed` picks the traffic.
constexpr uint64_t kCorpusSeed = 7;

/// \brief The generated DS workload and its paper-style split: the model
/// is fitted on `train`/`valid` (indices into the workload's labeled
/// pairs). `traffic` is what the phases serve: the blocking candidate
/// pairs of the two tables minus the fitting pairs, in an order drawn from
/// the run's seed. `arrivals` are the left records the ingest phase holds
/// back from registration and streams in, also drawn from the seed.
struct Dataset {
  learnrisk::Workload workload;
  std::vector<size_t> train;
  std::vector<size_t> valid;
  std::vector<RecordPair> traffic;
  std::vector<size_t> arrivals;
};

/// \brief The paper's served model: fitted metric suite, frozen classifier,
/// one-sided-forest risk features with a trained LearnRisk model, and the
/// validation-time drift baseline.
struct ServedModel {
  learnrisk::MetricSuite suite;
  std::shared_ptr<const learnrisk::BinaryClassifier> classifier;
  std::vector<size_t> classifier_columns;
  std::shared_ptr<const learnrisk::RiskModel> risk;
  std::shared_ptr<const learnrisk::DriftBaseline> baseline;
};

/// \brief Operation and correctness accounting shared by every phase.
struct Ledger {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages

  /// Counts one operation; a false `ok` fails it with `what`.
  void Op(bool ok, const std::string& what);
  /// Records a failed correctness check against an already-counted op.
  void Fail(const std::string& what);
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// \brief CPU time of the whole process (every thread), in ns. The guest
/// kernel leaves hypervisor steal out of it, so it does not grow when other
/// tenants of a shared host take the vCPUs away, as wall time does.
inline uint64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// \brief Wall and process CPU time of one operation, in ms.
struct OpTime {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
};

/// \brief Starts both clocks; Elapsed() reads them.
class OpClock {
 public:
  OpClock() : wall_ns_(NowNs()), cpu_ns_(CpuNs()) {}
  OpTime Elapsed() const {
    const uint64_t cpu = CpuNs();
    const uint64_t wall = NowNs();
    return {static_cast<double>(wall - wall_ns_) * 1e-6,
            static_cast<double>(cpu - cpu_ns_) * 1e-6};
  }
  /// Wall ms since the clock started.
  double WallMs() const {
    return static_cast<double>(NowNs() - wall_ns_) * 1e-6;
  }

 private:
  uint64_t wall_ns_;
  uint64_t cpu_ns_;
};

/// \brief The times of every operation of one kind.
struct Timings {
  std::vector<double> wall_ms;
  std::vector<double> cpu_ms;

  void Add(const OpTime& t) {
    wall_ms.push_back(t.wall_ms);
    cpu_ms.push_back(t.cpu_ms);
  }
  size_t size() const { return cpu_ms.size(); }
};

/// \brief In-memory spans recorded around the benchmark's calls into each
/// layer. A span's self time is its duration minus the time its child
/// spans cover; counts are recorded at the same boundaries.
class Tracer {
 public:
  struct SpanRecord {
    std::string layer;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int parent = -1;
  };

  /// \brief RAII span; a no-op when the tracer is null.
  class Span {
   public:
    Span(Tracer* tracer, const char* layer);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  void Count(const std::string& name, double value) { counts_[name] += value; }
  double count(const std::string& name) const;
  const std::map<std::string, double>& counts() const { return counts_; }

  /// \brief Self time (ms) summed per layer.
  std::map<std::string, double> SelfMs() const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
  std::map<std::string, double> counts_;
};

/// \brief Everything a run measures, pooled over its phase rounds.
struct Samples {
  // resolve_* sources: the resolve phase, the ingest phase's parity
  // Resolves on the grown namespace, and the review loop's Resolves.
  Timings resolve[3];
  size_t resolve_pairs[3] = {0, 0, 0};
  Timings append;
  Timings probe;
  Timings recover;
  Timings retrain;
  double risk_auroc = -1.0;
  size_t auroc_pairs = 0;       ///< scored pairs risk_auroc ranks
  size_t auroc_mislabeled = 0;  ///< of which the classifier mislabeled
  size_t rounds[3] = {0, 0, 0};

  /// Traced run only: per phase, the untraced gateway time of the ops the
  /// tracer decomposed, the wall time of those ops with their traced
  /// replay, and the tracer itself.
  double untraced_ms[3] = {0.0, 0.0, 0.0};
  double traced_ms[3] = {0.0, 0.0, 0.0};
  Tracer tracers[3];
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
