// Copyright 2026 The LearnRisk Authors
// BlockingIndex tests: batch-build and incremental-add parity with the
// offline TokenBlocking blocker on generated two-table and dedup workloads,
// online probe semantics, shard-list blocking at several shard counts, and
// error paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "data/blocking.h"
#include "data/generators.h"
#include "gateway/blocking_index.h"

namespace learnrisk {
namespace {

Workload SmallWorkload(const std::string& name) {
  GeneratorOptions options;
  options.scale = 0.02;
  options.seed = 17;
  Result<Workload> workload = GenerateDataset(name, options);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  return workload.MoveValueOrDie();
}

void ExpectSamePairs(const std::vector<RecordPair>& batch,
                     const std::vector<RecordPair>& incremental) {
  ASSERT_EQ(batch.size(), incremental.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].left, incremental[i].left) << "pair " << i;
    EXPECT_EQ(batch[i].right, incremental[i].right) << "pair " << i;
    EXPECT_EQ(batch[i].is_equivalent, incremental[i].is_equivalent)
        << "pair " << i;
  }
}

TEST(BlockingIndexTest, BuildMatchesTokenBlockingOnTwoTableWorkload) {
  const Workload workload = SmallWorkload("DS");
  BlockingConfig config;
  const auto batch = TokenBlocking(workload.left(), workload.right(), config);
  ASSERT_TRUE(batch.ok());
  ASSERT_FALSE(batch->empty());

  const auto index =
      BlockingIndex::Build(workload.left(), workload.right(), config);
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(index->dedup());
  ExpectSamePairs(*batch, index->AllCandidates());
}

TEST(BlockingIndexTest, BuildMatchesTokenBlockingOnDedupWorkload) {
  const Workload workload = SmallWorkload("SG");
  ASSERT_EQ(&workload.left(), &workload.right());  // single-table dedup
  BlockingConfig config;
  const auto batch = TokenBlocking(workload.left(), workload.left(), config);
  ASSERT_TRUE(batch.ok());
  ASSERT_FALSE(batch->empty());

  const auto index =
      BlockingIndex::Build(workload.left(), workload.left(), config);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index->dedup());
  ExpectSamePairs(*batch, index->AllCandidates());
}

TEST(BlockingIndexTest, IncrementalAddsMatchBatchBlocking) {
  const Workload workload = SmallWorkload("DA");
  const Table& left = workload.left();
  const Table& right = workload.right();
  BlockingConfig config;

  // Interleave the two sides record by record — the candidate set only
  // depends on the final postings, so the result must still equal the batch
  // blocker over the completed tables.
  BlockingIndex index(config, /*dedup=*/false);
  const size_t rounds = std::max(left.num_records(), right.num_records());
  for (size_t i = 0; i < rounds; ++i) {
    if (i < left.num_records()) {
      ASSERT_TRUE(index
                      .AddRecord(BlockingSide::kLeft, left.record(i),
                                 left.entity_id(i))
                      .ok());
    }
    if (i < right.num_records()) {
      ASSERT_TRUE(index
                      .AddRecord(BlockingSide::kRight, right.record(i),
                                 right.entity_id(i))
                      .ok());
    }
  }
  EXPECT_EQ(index.num_records(BlockingSide::kLeft), left.num_records());
  EXPECT_EQ(index.num_records(BlockingSide::kRight), right.num_records());

  const auto batch = TokenBlocking(left, right, config);
  ASSERT_TRUE(batch.ok());
  ExpectSamePairs(*batch, index.AllCandidates());
}

// The batch-blocking partners a probe record would have if it were appended
// as the next record of the probe side: append it, run TokenBlocking over
// the extended tables, and collect the opposite-side indices of every pair
// involving the appended record. This is the exact contract
// BlockingIndex::Candidates implements online.
std::vector<size_t> BatchProbePartners(const Table& left, const Table& right,
                                       const Record& probe,
                                       BlockingSide target,
                                       const BlockingConfig& config) {
  const bool dedup = &left == &right;
  const Table& probe_table =
      dedup || target == BlockingSide::kRight ? left : right;
  Table extended(probe_table.schema());
  for (size_t i = 0; i < probe_table.num_records(); ++i) {
    EXPECT_TRUE(
        extended.Append(probe_table.record(i), probe_table.entity_id(i)).ok());
  }
  EXPECT_TRUE(extended.Append(probe, -1).ok());
  const size_t probe_id = extended.num_records() - 1;

  Result<std::vector<RecordPair>> pairs =
      dedup ? TokenBlocking(extended, extended, config)
            : (target == BlockingSide::kRight
                   ? TokenBlocking(extended, right, config)
                   : TokenBlocking(left, extended, config));
  EXPECT_TRUE(pairs.ok());
  std::vector<size_t> partners;
  for (const RecordPair& pair : *pairs) {
    // Dedup emits (i, j) with i < j, so the appended probe is always the
    // right element; two-table pairs carry the probe on its own side.
    if (dedup || target == BlockingSide::kLeft) {
      if (pair.right == probe_id) partners.push_back(pair.left);
    } else {
      if (pair.left == probe_id) partners.push_back(pair.right);
    }
  }
  std::sort(partners.begin(), partners.end());
  return partners;
}

TEST(BlockingIndexTest, ProbeCandidatesMatchBatchPairsExactly) {
  const Workload workload = SmallWorkload("DS");
  const Workload unseen = [] {
    GeneratorOptions options;
    options.scale = 0.02;
    options.seed = 99;  // different seed: records the index has never seen
    return GenerateDataset("DS", options).MoveValueOrDie();
  }();
  BlockingConfig config;
  const auto index =
      BlockingIndex::Build(workload.left(), workload.right(), config);
  ASSERT_TRUE(index.ok());

  // Candidates(probe, target) must equal the batch pairs the probe would
  // get if appended to the opposite side — for both target sides, for
  // records the index has already seen (appending a duplicate shifts the
  // df counts, and the online path must account for that too) and for
  // records it has never seen.
  size_t non_empty = 0;
  for (size_t i = 0; i < 25; ++i) {
    for (const BlockingSide target :
         {BlockingSide::kRight, BlockingSide::kLeft}) {
      const Table& opposite = target == BlockingSide::kRight
                                  ? workload.left()
                                  : workload.right();
      const Table& unseen_side = target == BlockingSide::kRight
                                     ? unseen.left()
                                     : unseen.right();
      for (const Record* probe :
           {&opposite.record(i % opposite.num_records()),
            &unseen_side.record(i % unseen_side.num_records())}) {
        const std::vector<size_t> online = index->Candidates(*probe, target);
        const std::vector<size_t> batch = BatchProbePartners(
            workload.left(), workload.right(), *probe, target, config);
        ASSERT_EQ(online, batch) << "probe " << i;
        non_empty += online.empty() ? 0 : 1;
      }
    }
  }
  EXPECT_GT(non_empty, 0u);  // the parity must be exercised by real blocks
}

TEST(BlockingIndexTest, ProbeCandidatesMatchBatchPairsOnDedupWorkload) {
  const Workload workload = SmallWorkload("SG");
  ASSERT_EQ(&workload.left(), &workload.right());
  BlockingConfig config;
  const auto index =
      BlockingIndex::Build(workload.left(), workload.left(), config);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->dedup());

  size_t non_empty = 0;
  for (size_t i = 0; i < 25; ++i) {
    const Record& probe = workload.left().record(
        (i * 7) % workload.left().num_records());
    // Dedup folds both sides; any target must give the same answer.
    const std::vector<size_t> online =
        index->Candidates(probe, BlockingSide::kLeft);
    EXPECT_EQ(online, index->Candidates(probe, BlockingSide::kRight));
    const std::vector<size_t> batch =
        BatchProbePartners(workload.left(), workload.left(), probe,
                           BlockingSide::kLeft, config);
    ASSERT_EQ(online, batch) << "probe " << i;
    non_empty += online.empty() ? 0 : 1;
  }
  EXPECT_GT(non_empty, 0u);
}

TEST(BlockingIndexTest, ProbeParityHoldsAcrossIncrementalSegments) {
  // The same probe-parity contract must hold when the postings live in many
  // merged tail segments instead of one bulk-built base segment.
  const Workload workload = SmallWorkload("DA");
  BlockingConfig config;
  BlockingIndex index(config, /*dedup=*/false);
  const Table& left = workload.left();
  const Table& right = workload.right();
  const size_t rounds = std::max(left.num_records(), right.num_records());
  for (size_t i = 0; i < rounds; ++i) {
    if (i < left.num_records()) {
      ASSERT_TRUE(index
                      .AddRecord(BlockingSide::kLeft, left.record(i),
                                 left.entity_id(i))
                      .ok());
    }
    if (i < right.num_records()) {
      ASSERT_TRUE(index
                      .AddRecord(BlockingSide::kRight, right.record(i),
                                 right.entity_id(i))
                      .ok());
    }
  }
  // Binary-counter merging keeps the per-side segment count logarithmic.
  EXPECT_GE(index.segment_count(BlockingSide::kLeft), 1u);
  EXPECT_LE(index.segment_count(BlockingSide::kLeft), 20u);

  size_t non_empty = 0;
  for (size_t i = 0; i < 15; ++i) {
    const Record& probe = right.record((i * 11) % right.num_records());
    const std::vector<size_t> online =
        index.Candidates(probe, BlockingSide::kRight);
    const std::vector<size_t> batch =
        BatchProbePartners(left, right, probe, BlockingSide::kRight, config);
    ASSERT_EQ(online, batch) << "probe " << i;
    non_empty += online.empty() ? 0 : 1;
  }
  EXPECT_GT(non_empty, 0u);
}

// --- Shard-list blocking against the offline oracle -------------------------

// `table`'s records with the first `count` records of `extra` appended.
Table Appended(const Table& table, const Table& extra, size_t count) {
  Table out(table.schema());
  for (size_t i = 0; i < table.num_records(); ++i) {
    EXPECT_TRUE(out.Append(table.record(i), table.entity_id(i)).ok());
  }
  for (size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(out.Append(extra.record(i), extra.entity_id(i)).ok());
  }
  return out;
}

// Length of a stream appended after `n` records that leaves the total
// congruent to 29 mod 30: at S = 2, 3 and 5 the last shard ends one record
// short of the others.
size_t UnevenStreamLength(size_t n) {
  size_t m = (29 + 30 - n % 30) % 30;
  if (m < 5) m += 30;
  return m;
}

// The first `base` records of `table` whose global id (table index) lives
// on `shard` of `num_shards`, in local-index order.
Table ShardPart(const Table& table, size_t base, size_t shard,
                size_t num_shards) {
  Table part(table.schema());
  for (ShardedId at{shard, 0}; at.Global(num_shards) < base; ++at.local) {
    const size_t i = at.Global(num_shards);
    EXPECT_TRUE(part.Append(table.record(i), table.entity_id(i)).ok());
  }
  return part;
}

// S shard indexes over `left`/`right` (the same object for dedup): each
// shard is bulk-built from its round-robin part of the first `base_left` /
// `base_right` records, then the remaining records are appended one at a
// time to the shard owning their global id, the way a sharded gateway
// namespace routes online records.
std::vector<BlockingIndex> ShardIndexes(const Table& left, const Table& right,
                                        size_t base_left, size_t base_right,
                                        const BlockingConfig& config,
                                        size_t num_shards) {
  const bool dedup = &left == &right;
  std::vector<BlockingIndex> shards;
  for (size_t k = 0; k < num_shards; ++k) {
    const Table left_part = ShardPart(left, base_left, k, num_shards);
    const Table right_part = ShardPart(right, base_right, k, num_shards);
    Result<BlockingIndex> shard = BlockingIndex::Build(
        left_part, dedup ? left_part : right_part, config);
    EXPECT_TRUE(shard.ok());
    shards.push_back(shard.MoveValueOrDie());
  }
  auto append = [&](const Table& table, size_t base, BlockingSide side) {
    for (size_t i = base; i < table.num_records(); ++i) {
      const ShardedId at = ShardedId::Of(i, num_shards);
      EXPECT_EQ(shards[at.shard].num_records(side), at.local);
      EXPECT_TRUE(shards[at.shard]
                      .AddRecord(side, table.record(i), table.entity_id(i))
                      .ok());
    }
  };
  append(left, base_left, BlockingSide::kLeft);
  if (!dedup) append(right, base_right, BlockingSide::kRight);
  return shards;
}

// True iff some key token of `table` passes the df and block-size caps in
// every one of `num_shards` round-robin shards, at that shard's own token
// and record counts, yet fails them at the global counts: a token that a
// blocker evaluating its caps per shard would wrongly keep.
bool SomeTokenPassesEveryShardButNotGlobally(const Table& table,
                                             const BlockingConfig& config,
                                             size_t num_shards) {
  auto passes = [&config](size_t count, size_t records) {
    const auto df_cap = std::max<size_t>(
        static_cast<size_t>(config.max_token_df *
                            static_cast<double>(records)),
        1);
    return count <= df_cap && count <= config.max_block_size;
  };
  std::vector<size_t> shard_records(num_shards, 0);
  std::map<std::string, std::vector<size_t>> shard_counts;
  for (size_t i = 0; i < table.num_records(); ++i) {
    const ShardedId at = ShardedId::Of(i, num_shards);
    ++shard_records[at.shard];
    for (const std::string& tok :
         BlockingKeyTokens(table.record(i), config.key_attribute,
                           config.min_token_length)) {
      std::vector<size_t>& counts = shard_counts[tok];
      counts.resize(num_shards, 0);
      ++counts[at.shard];
    }
  }
  for (const auto& [tok, counts] : shard_counts) {
    size_t total = 0;
    bool every_shard = true;
    for (size_t k = 0; k < num_shards; ++k) {
      total += counts[k];
      every_shard = every_shard && passes(counts[k], shard_records[k]);
    }
    if (every_shard && !passes(total, table.num_records())) return true;
  }
  return false;
}

// Shard-list AllCandidates and probe Candidates at S in {1, 2, 3, 5},
// checked against the offline TokenBlocking oracle (not against another
// gateway path) over the same global tables and over the tables with each
// probe appended. The tables are DS plus an appended stream that leaves one
// shard a record short, so shards are uneven and hold several segments.
// Besides the default caps, one config makes the df cap bind and one the
// block-size cap, each with tokens that pass every per-shard cap but fail
// the global one, so a blocker evaluating caps per shard diverges.
TEST(BlockingIndexTest, ShardListMatchesTokenBlockingAtEveryShardCount) {
  const Workload workload = SmallWorkload("DS");
  const Workload unseen = [] {
    GeneratorOptions options;
    options.scale = 0.02;
    options.seed = 99;
    return GenerateDataset("DS", options).MoveValueOrDie();
  }();
  for (const bool dedup : {false, true}) {
    SCOPED_TRACE(dedup ? "dedup" : "two-table");
    const size_t base_left = workload.left().num_records();
    const size_t base_right = workload.right().num_records();
    const size_t stream_left = UnevenStreamLength(base_left);
    const size_t stream_right = UnevenStreamLength(base_right);
    ASSERT_LE(stream_left + 10, unseen.left().num_records());
    ASSERT_LE(stream_right + 10, unseen.right().num_records());
    const Table left = Appended(workload.left(), unseen.left(), stream_left);
    const Table right_table =
        Appended(workload.right(), unseen.right(), stream_right);
    const Table& right = dedup ? left : right_table;

    // Each config names the smallest S from which some token passes every
    // per-shard cap but fails the global one (0: not required).
    struct Case {
      const char* name;
      BlockingConfig config;
      size_t diverges_from;
    };
    Case df_bound{"df cap binds", BlockingConfig{}, 3};
    // A global df cap of 2 while every shard's own cap floors at 1 from
    // S = 3 on: a token held once by each of three shards passes them all.
    df_bound.config.max_token_df =
        2.5 / static_cast<double>(left.num_records());
    Case block_bound{"block-size cap binds", BlockingConfig{}, 2};
    block_bound.config.max_token_df = 1.0;
    block_bound.config.max_block_size = 3;
    for (const Case& c : {Case{"default caps", BlockingConfig{}, 0}, df_bound,
                          block_bound}) {
      SCOPED_TRACE(c.name);
      const BlockingConfig& config = c.config;
      const auto oracle = TokenBlocking(left, right, config);
      ASSERT_TRUE(oracle.ok());
      ASSERT_FALSE(oracle->empty());
      for (const size_t num_shards : {1, 2, 3, 5}) {
        SCOPED_TRACE("S = " + std::to_string(num_shards));
        if (c.diverges_from > 0 && num_shards >= c.diverges_from) {
          EXPECT_TRUE(SomeTokenPassesEveryShardButNotGlobally(left, config,
                                                              num_shards));
        }
        const std::vector<BlockingIndex> shards =
            dedup ? ShardIndexes(left, left, base_left, base_left, config,
                                 num_shards)
                  : ShardIndexes(left, right, base_left, base_right, config,
                                 num_shards);
        std::vector<const BlockingIndex*> view;
        for (const BlockingIndex& shard : shards) view.push_back(&shard);
        ExpectSamePairs(*oracle, BlockingIndex::AllCandidates(view));

        size_t non_empty = 0;
        for (size_t i = 0; i < 8; ++i) {
          for (const BlockingSide target :
               {BlockingSide::kRight, BlockingSide::kLeft}) {
            const Table& opposite =
                dedup || target == BlockingSide::kRight ? left : right;
            const Table& fresh = dedup || target == BlockingSide::kRight
                                     ? unseen.left()
                                     : unseen.right();
            // A stored record, and one past the appended stream.
            for (const Record* probe :
                 {&opposite.record((i * 13) % opposite.num_records()),
                  &fresh.record(fresh.num_records() - 1 - i)}) {
              const std::vector<size_t> online =
                  BlockingIndex::Candidates(view, *probe, target);
              ASSERT_EQ(online, BatchProbePartners(left, right, *probe,
                                                   target, config))
                  << "probe " << i;
              non_empty += online.empty() ? 0 : 1;
            }
          }
        }
        EXPECT_GT(non_empty, 0u);
      }
    }
  }
}

TEST(BlockingIndexTest, UnknownEntitiesNeverCountAsEquivalent) {
  // Records added without ground truth (entity id -1) must not be flagged
  // equivalent just because -1 == -1 — in either blocker.
  Schema schema({{"title", AttributeType::kText}});
  Table left(schema);
  Table right(schema);
  ASSERT_TRUE(left.Append(Record{{"shared blocking token"}}, -1).ok());
  ASSERT_TRUE(right.Append(Record{{"shared blocking token"}}, -1).ok());

  BlockingConfig config;
  const auto batch = TokenBlocking(left, right, config);
  ASSERT_TRUE(batch.ok());
  const auto index = BlockingIndex::Build(left, right, config);
  ASSERT_TRUE(index.ok());
  const std::vector<RecordPair> incremental = index->AllCandidates();
  ASSERT_EQ(batch->size(), 1u);
  ExpectSamePairs(*batch, incremental);
  EXPECT_FALSE(incremental[0].is_equivalent);
}

TEST(BlockingIndexTest, ErrorPaths) {
  const Workload workload = SmallWorkload("DS");
  BlockingConfig bad;
  bad.key_attribute = workload.left().schema().num_attributes();
  EXPECT_TRUE(BlockingIndex::Build(workload.left(), workload.right(), bad)
                  .status()
                  .IsInvalidArgument());

  BlockingConfig config;
  config.key_attribute = 2;
  BlockingIndex index(config, /*dedup=*/false);
  Record narrow;
  narrow.values = {"only", "two"};
  EXPECT_TRUE(index.AddRecord(BlockingSide::kLeft, narrow, 1)
                  .IsInvalidArgument());
  EXPECT_TRUE(index.Candidates(narrow, BlockingSide::kRight).empty());
}

}  // namespace
}  // namespace learnrisk
