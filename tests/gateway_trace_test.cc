// Copyright 2026 The LearnRisk Authors
// Request-trace tests for the gateway: ids are assigned monotonically
// across all three APIs and echoed in responses and StageTiming; head
// sampling, slow tail capture, and high-risk tail capture each land traces
// in RecentTraces() with the right flags; a captured trace's stages are the
// same measurements StageTiming saw, its decision list is the top-k by
// risk with rule activations and explanations; AddRecord traces carry the
// durability stages; every API's trace spans, StageTiming fields and stage
// histograms carry one measurement per crossed stage (shard_merge only when
// a cross-shard merge ran); tracing works with aggregate metrics off and is fully
// absent when disabled; and ExportTracesJson renders the documented schema.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "classifier/logistic.h"
#include "data/generators.h"
#include "gateway/gateway.h"
#include "obs/trace.h"
#include "risk/risk_feature.h"
#include "test_models.h"

namespace learnrisk {
namespace {

using testutil::MakeModel;

struct SharedSetup {
  Workload workload;
  MetricSuite suite;
  std::shared_ptr<const BinaryClassifier> classifier;
  RiskModel model{RiskFeatureSet()};

  SharedSetup() {
    GeneratorOptions options;
    options.scale = 0.015;
    options.seed = 123;
    Result<Workload> generated = GenerateDataset("DS", options);
    EXPECT_TRUE(generated.ok()) << generated.status().ToString();
    workload = generated.MoveValueOrDie();
    suite = MetricSuite::ForSchema(workload.left().schema());
    suite.Fit(workload);
    const FeatureMatrix features = ComputeFeatures(workload, suite);
    LogisticOptions logistic;
    logistic.epochs = 15;
    logistic.seed = 5;
    auto trained = std::make_shared<LogisticClassifier>(logistic);
    EXPECT_TRUE(trained->Train(features, workload.Labels()).ok());
    classifier = trained;
    model = MakeModel(11, 24, suite.num_metrics());
  }
};

const SharedSetup& Shared() {
  static const SharedSetup* setup = new SharedSetup();
  return *setup;
}

NamespaceSpec BaseSpec() {
  const SharedSetup& s = Shared();
  NamespaceSpec spec;
  spec.left = s.workload.left_ptr();
  spec.right = s.workload.right_ptr();
  spec.suite = s.suite;
  spec.classifier = s.classifier;
  return spec;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/learnrisk_trace_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

bool HasStage(const RequestTrace& trace, const std::string& stage) {
  for (const TraceStageSpan& span : trace.stages) {
    if (stage == span.stage) return true;
  }
  return false;
}

// Every stage a request can cross, with the StageTiming field carrying it.
struct StageField {
  const char* stage;
  double StageTiming::*field;
};
constexpr StageField kStageFields[] = {
    {"block", &StageTiming::blocking_ms},
    {"shard_merge", &StageTiming::shard_merge_ms},
    {"featurize", &StageTiming::featurize_ms},
    {"classify", &StageTiming::classify_ms},
    {"risk", &StageTiming::score_ms},
    {"review", &StageTiming::review_ms},
    {"wal_append", &StageTiming::wal_append_ms},
    {"publish", &StageTiming::publish_ms},
};

uint64_t StageCount(const MetricsSnapshot& snap, const char* stage) {
  const HistogramSnapshot* h =
      snap.FindHistogram("learnrisk_gateway_stage_latency_seconds",
                         {{"namespace", "ds"}, {"stage", stage}});
  return h == nullptr ? 0 : h->count;
}

const RequestTrace* FindTrace(const Gateway& gateway, uint64_t request_id) {
  for (const auto& trace : gateway.RecentTraces()) {
    if (trace->request_id == request_id) return trace.get();
  }
  return nullptr;
}

// Same measurement on every channel: each trace span's ms is the exact
// double its StageTiming field carries, and each stage the request crossed
// added exactly one sample to its stage histogram between `before` and
// `after` (a stage it did not cross added none).
void ExpectChannelsAgree(const RequestTrace& trace, const StageTiming& timing,
                         const MetricsSnapshot& before,
                         const MetricsSnapshot& after) {
  for (const TraceStageSpan& span : trace.stages) {
    bool known = false;
    for (const StageField& f : kStageFields) {
      known = known || std::string(span.stage) == f.stage;
    }
    EXPECT_TRUE(known) << span.stage;
  }
  for (const StageField& f : kStageFields) {
    uint64_t spans = 0;
    for (const TraceStageSpan& span : trace.stages) {
      if (std::string(span.stage) != f.stage) continue;
      ++spans;
      EXPECT_DOUBLE_EQ(span.ms, timing.*f.field) << f.stage;
    }
    EXPECT_LE(spans, 1u) << f.stage;
    EXPECT_EQ(StageCount(after, f.stage) - StageCount(before, f.stage), spans)
        << f.stage;
  }
}

TEST(GatewayTraceTest, RequestIdsMonotoneAcrossApis) {
  const SharedSetup& s = Shared();
  Gateway gateway;
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());

  ResolveRequest request;
  request.block_all = true;
  Result<ResolveResponse> resolve = gateway.Resolve("ds", request);
  ASSERT_TRUE(resolve.ok());
  EXPECT_EQ(resolve->request_id, 1u);
  EXPECT_EQ(resolve->timing.request_id, resolve->request_id);

  Result<ProbeResponse> probed =
      gateway.ResolveRecord("ds", s.workload.left().record(0));
  ASSERT_TRUE(probed.ok());
  EXPECT_EQ(probed->request_id, 2u);
  EXPECT_EQ(probed->timing.request_id, probed->request_id);

  StageTiming timing;
  ASSERT_TRUE(gateway
                  .AddRecord("ds", BlockingSide::kLeft,
                             s.workload.left().record(0), -1, &timing)
                  .ok());
  EXPECT_EQ(timing.request_id, 3u);
}

TEST(GatewayTraceTest, HeadSamplingCapturesEveryRequestAtOne) {
  const SharedSetup& s = Shared();
  GatewayOptions options;
  options.trace.sample_every = 1;
  options.trace.top_k = 2;
  Gateway gateway(options);
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());

  ResolveRequest request;
  request.block_all = true;
  Result<ResolveResponse> resolve = gateway.Resolve("ds", request);
  ASSERT_TRUE(resolve.ok());
  Result<ProbeResponse> probed =
      gateway.ResolveRecord("ds", s.workload.left().record(0));
  ASSERT_TRUE(probed.ok());

  const auto traces = gateway.RecentTraces();
  ASSERT_EQ(traces.size(), 2u);

  // The resolve trace, field by field.
  const RequestTrace& trace = *traces[0];
  EXPECT_EQ(trace.request_id, resolve->request_id);
  EXPECT_STREQ(trace.api, "resolve");
  EXPECT_EQ(trace.ns, "ds");
  EXPECT_GE(trace.model_version, 1u);
  EXPECT_EQ(trace.model_version, resolve->scores.model_version);
  EXPECT_GT(trace.total_ns, 0u);
  EXPECT_GT(trace.start_ns, 0u);
  EXPECT_TRUE(trace.head_sampled);
  EXPECT_FALSE(trace.slow);
  EXPECT_FALSE(trace.high_risk);
  EXPECT_EQ(trace.candidates, resolve->pairs.size());
  EXPECT_EQ(trace.pairs_scored, resolve->scores.risk.size());
  for (const char* stage : {"block", "featurize", "classify", "risk"}) {
    EXPECT_TRUE(HasStage(trace, stage)) << stage;
  }
  double max_risk = 0.0;
  for (double risk : resolve->scores.risk) {
    max_risk = std::max(max_risk, risk);
  }
  EXPECT_DOUBLE_EQ(trace.max_risk, max_risk);

  // Top-k decisions: sorted by risk, capped at top_k, first one is the max,
  // each carries the pair indices and the explanation evidence.
  ASSERT_EQ(trace.top_risky.size(),
            std::min<size_t>(2, resolve->scores.risk.size()));
  EXPECT_DOUBLE_EQ(trace.top_risky[0].risk, max_risk);
  for (size_t i = 1; i < trace.top_risky.size(); ++i) {
    EXPECT_GE(trace.top_risky[i - 1].risk, trace.top_risky[i].risk);
  }
  for (const TracedDecision& decision : trace.top_risky) {
    EXPECT_GE(decision.left, 0);
    EXPECT_GE(decision.right, 0);
    EXPECT_GE(decision.classifier_prob, 0.0);
    EXPECT_LE(decision.classifier_prob, 1.0);
    for (uint32_t rule : decision.active_rules) {
      EXPECT_LT(rule, 24u);  // MakeModel(11, 24, ...) has 24 rules
    }
    // Explanations come from the active rules (<= top_k heaviest).
    EXPECT_LE(decision.explanation.size(), decision.active_rules.size());
    for (const TraceContribution& c : decision.explanation) {
      EXPECT_FALSE(c.description.empty());
    }
  }

  // The probe trace: left is -1 (the probe has no index), right is one of
  // the returned candidates.
  const RequestTrace& probe_trace = *traces[1];
  EXPECT_STREQ(probe_trace.api, "resolve_record");
  EXPECT_EQ(probe_trace.request_id, probed->request_id);
  EXPECT_EQ(probe_trace.candidates, probed->candidates.size());
  for (const TracedDecision& decision : probe_trace.top_risky) {
    EXPECT_EQ(decision.left, -1);
    EXPECT_NE(std::find(probed->candidates.begin(), probed->candidates.end(),
                        static_cast<size_t>(decision.right)),
              probed->candidates.end());
  }
}

TEST(GatewayTraceTest, DefaultSamplingSkipsEarlyRequests) {
  const SharedSetup& s = Shared();
  Gateway gateway;  // defaults: sample_every = 64, tail triggers off
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
  ResolveRequest request;
  request.block_all = true;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(gateway.Resolve("ds", request).ok());  // ids 1..3: none % 64
  }
  EXPECT_TRUE(gateway.RecentTraces().empty());
}

TEST(GatewayTraceTest, SlowTailCaptureFlagsSlowRequests) {
  const SharedSetup& s = Shared();
  GatewayOptions options;
  options.trace.sample_every = 0;          // head sampling off
  options.trace.slow_request_ms = 1e-6;    // everything is "slow"
  Gateway gateway(options);
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
  ResolveRequest request;
  request.block_all = true;
  ASSERT_TRUE(gateway.Resolve("ds", request).ok());

  const auto traces = gateway.RecentTraces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_TRUE(traces[0]->slow);
  EXPECT_FALSE(traces[0]->head_sampled);
  EXPECT_FALSE(traces[0]->high_risk);
}

TEST(GatewayTraceTest, HighRiskTailCaptureFlagsRiskyRequests) {
  const SharedSetup& s = Shared();
  GatewayOptions options;
  options.trace.sample_every = 0;
  options.trace.high_risk_threshold = 0.0;  // any scored request qualifies
  Gateway gateway(options);
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
  ResolveRequest request;
  request.block_all = true;
  ASSERT_TRUE(gateway.Resolve("ds", request).ok());

  // AddRecord has no scores, so the risk trigger never fires for it.
  ASSERT_TRUE(gateway
                  .AddRecord("ds", BlockingSide::kLeft,
                             s.workload.left().record(0))
                  .ok());

  const auto traces = gateway.RecentTraces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_TRUE(traces[0]->high_risk);
  EXPECT_STREQ(traces[0]->api, "resolve");
  EXPECT_FALSE(traces[0]->head_sampled);
}

TEST(GatewayTraceTest, AddRecordTraceCarriesDurabilityStages) {
  const SharedSetup& s = Shared();
  GatewayOptions options;
  options.trace.sample_every = 1;
  options.durability.dir = FreshDir("add_record");
  Gateway gateway(options);
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());

  const MetricsSnapshot before = gateway.MetricsSnapshot();
  StageTiming timing;
  ASSERT_TRUE(gateway
                  .AddRecord("ds", BlockingSide::kLeft,
                             s.workload.left().record(0), -1, &timing)
                  .ok());
  const auto traces = gateway.RecentTraces();
  ASSERT_EQ(traces.size(), 1u);
  const RequestTrace& trace = *traces[0];
  EXPECT_STREQ(trace.api, "add_record");
  EXPECT_EQ(trace.request_id, timing.request_id);
  EXPECT_EQ(trace.model_version, 0u);  // no scoring happened
  EXPECT_TRUE(trace.top_risky.empty());
  EXPECT_TRUE(HasStage(trace, "wal_append"));
  EXPECT_TRUE(HasStage(trace, "publish"));
  ExpectChannelsAgree(trace, timing, before, gateway.MetricsSnapshot());
}

TEST(GatewayTraceTest, ReadPathStagesAgreeAcrossChannels) {
  const SharedSetup& s = Shared();
  GatewayOptions options;
  options.trace.sample_every = 1;
  Gateway gateway(options);
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());

  ResolveRequest request;
  request.block_all = true;
  MetricsSnapshot before = gateway.MetricsSnapshot();
  Result<ResolveResponse> resolve = gateway.Resolve("ds", request);
  ASSERT_TRUE(resolve.ok());
  const RequestTrace* trace = FindTrace(gateway, resolve->request_id);
  ASSERT_NE(trace, nullptr);
  for (const char* stage : {"block", "featurize", "classify", "risk"}) {
    EXPECT_TRUE(HasStage(*trace, stage)) << stage;
  }
  ExpectChannelsAgree(*trace, resolve->timing, before,
                      gateway.MetricsSnapshot());

  before = gateway.MetricsSnapshot();
  Result<ProbeResponse> probed =
      gateway.ResolveRecord("ds", s.workload.left().record(0));
  ASSERT_TRUE(probed.ok());
  trace = FindTrace(gateway, probed->request_id);
  ASSERT_NE(trace, nullptr);
  for (const char* stage : {"block", "featurize", "classify", "risk"}) {
    EXPECT_TRUE(HasStage(*trace, stage)) << stage;
  }
  ExpectChannelsAgree(*trace, probed->timing, before,
                      gateway.MetricsSnapshot());
}

TEST(GatewayTraceTest, ShardedResolveStagesAgreeAcrossChannels) {
  const SharedSetup& s = Shared();
  GatewayOptions options;
  options.trace.sample_every = 1;
  Gateway gateway(options);
  NamespaceSpec spec = BaseSpec();
  spec.shards = 3;
  ASSERT_TRUE(gateway.RegisterNamespace("ds", spec).ok());
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());

  ResolveRequest request;
  request.block_all = true;
  const MetricsSnapshot before = gateway.MetricsSnapshot();
  Result<ResolveResponse> resolve = gateway.Resolve("ds", request);
  ASSERT_TRUE(resolve.ok());
  const RequestTrace* trace = FindTrace(gateway, resolve->request_id);
  ASSERT_NE(trace, nullptr);
  EXPECT_TRUE(HasStage(*trace, "shard_merge"));
  ExpectChannelsAgree(*trace, resolve->timing, before,
                      gateway.MetricsSnapshot());
}

TEST(GatewayTraceTest, ReviewResolveStagesAgreeAcrossChannels) {
  const SharedSetup& s = Shared();
  GatewayOptions options;
  options.trace.sample_every = 1;
  options.review.enabled = true;
  Gateway gateway(options);
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());

  ResolveRequest request;
  request.block_all = true;
  const MetricsSnapshot before = gateway.MetricsSnapshot();
  Result<ResolveResponse> resolve = gateway.Resolve("ds", request);
  ASSERT_TRUE(resolve.ok());
  const RequestTrace* trace = FindTrace(gateway, resolve->request_id);
  ASSERT_NE(trace, nullptr);
  EXPECT_TRUE(HasStage(*trace, "review"));
  ExpectChannelsAgree(*trace, resolve->timing, before,
                      gateway.MetricsSnapshot());
}

TEST(GatewayTraceTest, ShardMergeRecordedOnlyWhenMergeRuns) {
  const SharedSetup& s = Shared();
  GatewayOptions options;
  options.trace.sample_every = 1;
  Gateway gateway(options);
  NamespaceSpec spec = BaseSpec();
  spec.shards = 3;
  ASSERT_TRUE(gateway.RegisterNamespace("ds", spec).ok());
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());

  // Explicit pairs skip blocking altogether: no merge ran, so neither the
  // trace nor the histogram may carry a (zero) shard_merge measurement.
  ResolveRequest explicit_pairs;
  explicit_pairs.pairs = {{0, 0, false}, {1, 2, false}};
  Result<ResolveResponse> resolve = gateway.Resolve("ds", explicit_pairs);
  ASSERT_TRUE(resolve.ok());
  const RequestTrace* trace = FindTrace(gateway, resolve->request_id);
  ASSERT_NE(trace, nullptr);
  EXPECT_FALSE(HasStage(*trace, "shard_merge"));
  EXPECT_EQ(resolve->timing.shard_merge_ms, 0.0);
  EXPECT_EQ(StageCount(gateway.MetricsSnapshot(), "shard_merge"), 0u);

  ResolveRequest block_all;
  block_all.block_all = true;
  resolve = gateway.Resolve("ds", block_all);
  ASSERT_TRUE(resolve.ok());
  trace = FindTrace(gateway, resolve->request_id);
  ASSERT_NE(trace, nullptr);
  EXPECT_TRUE(HasStage(*trace, "shard_merge"));
  EXPECT_EQ(StageCount(gateway.MetricsSnapshot(), "shard_merge"), 1u);

  // A sharded probe merges the per-shard candidate lists.
  Result<ProbeResponse> probed =
      gateway.ResolveRecord("ds", s.workload.left().record(0));
  ASSERT_TRUE(probed.ok());
  trace = FindTrace(gateway, probed->request_id);
  ASSERT_NE(trace, nullptr);
  EXPECT_TRUE(HasStage(*trace, "shard_merge"));
  EXPECT_EQ(StageCount(gateway.MetricsSnapshot(), "shard_merge"), 2u);
}

TEST(GatewayTraceTest, TracingWorksWithMetricsDisabled) {
  const SharedSetup& s = Shared();
  GatewayOptions options;
  options.enable_metrics = false;
  options.trace.sample_every = 1;
  Gateway gateway(options);
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
  ResolveRequest request;
  request.block_all = true;
  ASSERT_TRUE(gateway.Resolve("ds", request).ok());

  EXPECT_TRUE(gateway.MetricsSnapshot().counters.empty());
  const auto traces = gateway.RecentTraces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_GT(traces[0]->total_ns, 0u);
  for (const char* stage : {"block", "featurize", "classify", "risk"}) {
    EXPECT_TRUE(HasStage(*traces[0], stage)) << stage;
  }
}

TEST(GatewayTraceTest, DisabledTracingStillAssignsIds) {
  const SharedSetup& s = Shared();
  GatewayOptions options;
  options.trace.enabled = false;
  Gateway gateway(options);
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
  ResolveRequest request;
  request.block_all = true;
  Result<ResolveResponse> resolve = gateway.Resolve("ds", request);
  ASSERT_TRUE(resolve.ok());
  EXPECT_EQ(resolve->request_id, 1u);
  EXPECT_TRUE(gateway.RecentTraces().empty());
}

TEST(GatewayTraceTest, ExportTracesJsonRendersSchema) {
  const SharedSetup& s = Shared();
  GatewayOptions options;
  options.trace.sample_every = 1;
  Gateway gateway(options);
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
  ResolveRequest request;
  request.block_all = true;
  ASSERT_TRUE(gateway.Resolve("ds", request).ok());
  ASSERT_TRUE(gateway.ResolveRecord("ds", s.workload.left().record(0)).ok());

  const std::string json = ExportTracesJson(gateway.RecentTraces());
  for (const char* key :
       {"\"traces\"", "\"request_id\"", "\"api\"", "\"namespace\"",
        "\"model_version\"", "\"start_ns\"", "\"total_ns\"", "\"stages\"",
        "\"top_risky\"", "\"max_risk\"", "\"head_sampled\"",
        "\"active_rules\"", "\"explanation\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // One trace object per line: exactly as many "request_id" lines as traces.
  size_t lines_with_id = 0;
  size_t pos = 0;
  while ((pos = json.find("\"request_id\"", pos)) != std::string::npos) {
    ++lines_with_id;
    pos += 1;
  }
  EXPECT_EQ(lines_with_id, gateway.RecentTraces().size());
  EXPECT_EQ(ExportTracesJson({}).rfind("{\"traces\": [", 0), 0u);
}

}  // namespace
}  // namespace learnrisk
