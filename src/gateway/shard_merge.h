// Copyright 2026 The LearnRisk Authors
// Cross-shard candidate generation for sharded gateway namespaces.
//
// A sharded namespace hashes records across S independent shards (shard of a
// global id = id % S, local id = id / S; a record at local index l of shard
// k has global id l * S + k). Each shard owns its own SideStore segments and
// BlockingIndex over *local* ids. The functions here reproduce the global
// (unsharded) blocker exactly from those per-shard indexes: postings are
// unioned across shards, the document-frequency and block-size caps are
// applied at the *global* counts, local ids are translated back to global
// ids, and pairs are emitted through the same ordered-set construction the
// unsharded BlockingIndex uses — so the output is bit-identical to an
// unsharded index over the same records at any S (enforced by
// tests/gateway_shard_test.cc).
//
// ShardedSideView (gateway/namespace_segments.h) is the featurization
// counterpart: a zero-copy view presenting S per-shard SideStores as one
// global-id-addressed store, so FeaturePipeline::RunPrepared evaluates
// merged candidate pairs without materializing anything.

#ifndef LEARNRISK_GATEWAY_SHARD_MERGE_H_
#define LEARNRISK_GATEWAY_SHARD_MERGE_H_

#include <cstdint>
#include <vector>

#include "data/table.h"
#include "data/workload.h"
#include "gateway/blocking_index.h"

namespace learnrisk {

/// \brief Shard index of a global record id under S shards.
inline size_t ShardOfId(size_t global_id, size_t num_shards) {
  return global_id % num_shards;
}
/// \brief Local (per-shard) index of a global record id under S shards.
inline size_t LocalOfId(size_t global_id, size_t num_shards) {
  return global_id / num_shards;
}
/// \brief Global record id of local index `local` on shard `shard`.
inline size_t GlobalId(size_t local, size_t shard, size_t num_shards) {
  return local * num_shards + shard;
}

/// \brief Every candidate pair implied by the union of the per-shard
/// postings, bit-identical (same pairs, same deterministic ordering, same
/// equivalence flags) to BlockingIndex::AllCandidates over an unsharded
/// index holding the same records under the same global ids. All shards
/// must share one BlockingConfig and dedup flag (they come from one
/// namespace registration). `merge_ms`, when non-null, receives the wall
/// time of the final merge phase (global ordering + equivalence tagging) —
/// the gateway's `shard_merge` stage span.
std::vector<RecordPair> MergedAllCandidates(
    const std::vector<const BlockingIndex*>& shards,
    double* merge_ms = nullptr);

/// \brief Blocking candidates of a raw probe against the target side of a
/// sharded namespace, ascending by global id — bit-identical to
/// BlockingIndex::Candidates on the equivalent unsharded index. `merge_ms`
/// as in MergedAllCandidates.
std::vector<size_t> MergedCandidates(
    const std::vector<const BlockingIndex*>& shards, const Record& probe,
    BlockingSide target, double* merge_ms = nullptr);

}  // namespace learnrisk

#endif  // LEARNRISK_GATEWAY_SHARD_MERGE_H_
