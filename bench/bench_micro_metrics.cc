// Copyright 2026 The LearnRisk Authors
//
// Micro-benchmarks (google-benchmark): throughput of the similarity /
// difference metrics, rule evaluation and VaR scoring — the inner loops of
// feature generation and risk ranking. The reference kernels (similarity.h)
// sit next to the prepared ones the gateway serves (string_kernels.h and
// MetricSuite::EvaluatePrepared over PrepareRecord caches), and the served
// classifier's per-pair MLP forward pass.

#include <benchmark/benchmark.h>

#include <string_view>
#include <utility>

#include "classifier/mlp.h"
#include "common/math_util.h"
#include "common/random.h"
#include "metrics/difference.h"
#include "metrics/metric_suite.h"
#include "metrics/similarity.h"
#include "metrics/string_kernels.h"
#include "risk/risk_model.h"

namespace learnrisk {
namespace {

const char* kTitleA = "towards interpretable and learnable risk analysis";
const char* kTitleB = "toward interpretble and lernable risk analysis for er";
// A long title pair whose middle, after the common prefix and suffix are
// stripped, still exceeds 64 chars on both sides: the multi-word kernels.
const char* kLongTitleA =
    "a bit-vector algorithm for computing levenshtein and damerau edit "
    "distances over long strings";
const char* kLongTitleB =
    "an efficient bit vector algorithm computing the levenshtein and damerau "
    "edit distance of long string pairs";
const char* kAuthorsA = "zhaoqiang chen, qun chen, boyi hou, tianyi duan";
const char* kAuthorsB = "z chen, q chen, b hou, g li";

void BM_EditDistance(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(EditDistance(kTitleA, kTitleB));
  }
}
BENCHMARK(BM_EditDistance);

void BM_JaroWinkler(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(JaroWinklerSimilarity(kTitleA, kTitleB));
  }
}
BENCHMARK(BM_JaroWinkler);

// The served string kernels run on one reused scratch over the pair Arg
// selects: 0 the title pair (one-word kernels), 1 the long title pair
// (multi-word kernels).
std::pair<std::string_view, std::string_view> KernelPair(
    benchmark::State& state) {
  const bool one_word = state.range(0) == 0;
  state.SetLabel(one_word ? "title" : "long title");
  if (one_word) return {kTitleA, kTitleB};
  return {kLongTitleA, kLongTitleB};
}

void BM_EditDistanceFast(benchmark::State& state) {
  const auto [a, b] = KernelPair(state);
  MetricScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EditDistanceFast(a, b, &scratch));
  }
}
BENCHMARK(BM_EditDistanceFast)->Arg(0)->Arg(1);

void BM_JaroWinklerFast(benchmark::State& state) {
  const auto [a, b] = KernelPair(state);
  MetricScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(JaroWinklerSimilarityFast(a, b, &scratch));
  }
}
BENCHMARK(BM_JaroWinklerFast)->Arg(0)->Arg(1);

void BM_TokenJaccard(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(TokenJaccard(kTitleA, kTitleB));
  }
}
BENCHMARK(BM_TokenJaccard);

void BM_LcsRatio(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(LcsRatio(kTitleA, kTitleB));
  }
}
BENCHMARK(BM_LcsRatio);

void BM_LcsRatioFast(benchmark::State& state) {
  const auto [a, b] = KernelPair(state);
  MetricScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LcsRatioFast(a, b, &scratch));
  }
}
BENCHMARK(BM_LcsRatioFast)->Arg(0)->Arg(1);

void BM_MongeElkan(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(MongeElkan(kAuthorsA, kAuthorsB));
  }
}
BENCHMARK(BM_MongeElkan);

// The served Monge-Elkan: both values prepared once, then the prepared
// kernel evaluated per iteration with one reused scratch. Arg 0 is the
// title-like pair, 1 the authors-like pair.
void BM_PreparedMongeElkan(benchmark::State& state) {
  const bool title = state.range(0) == 0;
  const Schema schema({{"value", AttributeType::kText}});
  const MetricSuite suite = MetricSuite::FromSpecs(
      schema, {MetricSpec{0, MetricKind::kMongeElkan, "value.monge_elkan"}});
  Record left;
  left.values = {title ? kTitleA : kAuthorsA};
  Record right;
  right.values = {title ? kTitleB : kAuthorsB};
  const PreparedRecord prepared_left = suite.PrepareRecord(left);
  const PreparedRecord prepared_right = suite.PrepareRecord(right);
  MetricScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        suite.EvaluatePrepared(prepared_left, prepared_right, 0, &scratch));
  }
  state.SetLabel(title ? "title" : "authors");
}
BENCHMARK(BM_PreparedMongeElkan)->Arg(0)->Arg(1);

// The served classifier: a 21-input MLP of the default {32, 16} shape,
// trained on a fixed synthetic set, scoring one row per iteration (the rows
// rotate, so no input repeats back to back).
void BM_MlpPredictProba(benchmark::State& state) {
  constexpr size_t kRows = 512;
  constexpr size_t kInputs = 21;
  FeatureMatrix features(kRows, kInputs);
  std::vector<uint8_t> labels(kRows);
  Rng rng(5);
  for (size_t r = 0; r < kRows; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < kInputs; ++c) {
      const double v = rng.Uniform();
      features.set(r, c, v);
      sum += c % 3 == 0 ? v : -0.5 * v;
    }
    labels[r] = sum + 0.2 * rng.Normal() > 0.0 ? 1 : 0;
  }
  MlpOptions options;
  options.hidden = {32, 16};
  options.epochs = 5;
  MlpClassifier classifier(options);
  if (!classifier.Train(features, labels).ok()) {
    state.SkipWithError("MLP training failed");
    return;
  }
  size_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        classifier.PredictProba(features.row(row), kInputs));
    row = row + 1 == kRows ? 0 : row + 1;
  }
}
BENCHMARK(BM_MlpPredictProba);

void BM_DistinctEntity(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(DistinctEntityCount(kAuthorsA, kAuthorsB));
  }
}
BENCHMARK(BM_DistinctEntity);

void BM_AbbrNonSubstring(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        AbbrNonSubstring("very large data bases", "vldb"));
  }
}
BENCHMARK(BM_AbbrNonSubstring);

void BM_TruncatedNormalQuantile(benchmark::State& state) {
  double p = 0.9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        TruncatedNormalQuantile(p, 0.42, 0.17, 0.0, 1.0));
  }
}
BENCHMARK(BM_TruncatedNormalQuantile);

RiskFeatureSet MicroFeatures() {
  Rule matching;
  matching.predicates = {{1, "sim", true, 0.8}};
  matching.label = RuleClass::kMatching;
  Rule unmatching;
  unmatching.predicates = {{0, "diff", true, 0.5}};
  unmatching.label = RuleClass::kUnmatching;
  FeatureMatrix train(20, 2);
  std::vector<uint8_t> labels(20);
  for (size_t i = 0; i < 20; ++i) {
    labels[i] = i < 8 ? 1 : 0;
    train.set(i, 0, i < 8 ? 0.0 : 1.0);
    train.set(i, 1, i < 8 ? 0.9 : 0.1);
  }
  return RiskFeatureSet::Build({matching, unmatching}, train, labels);
}

void BM_VaRScore(benchmark::State& state) {
  RiskModel model(MicroFeatures());
  std::vector<uint32_t> active = {0, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.RiskScore(active, 0.73, 1));
  }
}
BENCHMARK(BM_VaRScore);

void BM_RuleActivation(benchmark::State& state) {
  RiskFeatureSet features = MicroFeatures();
  double row[] = {0.9, 0.3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(features.ActiveRules(row));
  }
}
BENCHMARK(BM_RuleActivation);

}  // namespace
}  // namespace learnrisk

BENCHMARK_MAIN();
