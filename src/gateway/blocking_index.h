// Copyright 2026 The LearnRisk Authors
// Incremental, queryable token blocking — the candidate-generation layer of
// the request gateway. Holds per-side token postings in append-only immutable
// segments so records can be added online one at a time and probed for
// blocking candidates without rebuilding anything; materializing every
// candidate pair from the postings reproduces the offline TokenBlocking
// batch blocker exactly (same tokens via BlockingKeyTokens, same
// document-frequency and block-purging caps, same deterministic pair order),
// and probing a record reproduces exactly the batch pairs that record would
// participate in if it were appended.

#ifndef LEARNRISK_GATEWAY_BLOCKING_INDEX_H_
#define LEARNRISK_GATEWAY_BLOCKING_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "data/blocking.h"
#include "data/table.h"
#include "data/workload.h"

namespace learnrisk {

/// \brief Which side of a two-table workload a record belongs to. Dedup
/// (single-table) indexes fold both sides onto kLeft.
enum class BlockingSide { kLeft, kRight };

/// \brief The opposite side (kLeft <-> kRight).
inline BlockingSide OppositeSide(BlockingSide side) {
  return side == BlockingSide::kLeft ? BlockingSide::kRight
                                     : BlockingSide::kLeft;
}

/// \brief Where a record of a sharded namespace lives: global id g is on
/// shard g % S at local index g / S (local l of shard k is global l * S + k;
/// with S == 1 the two coincide). Blocking, ShardedSideView and the
/// gateway's shard split all address records through this one layout.
struct ShardedId {
  size_t shard = 0;
  size_t local = 0;

  /// \brief The location of `global_id` under `num_shards` shards.
  static ShardedId Of(size_t global_id, size_t num_shards) {
    return {global_id % num_shards, global_id / num_shards};
  }
  /// \brief The global id of this location under `num_shards` shards.
  size_t Global(size_t num_shards) const { return local * num_shards + shard; }
};

/// \brief An in-memory inverted index over blocking tokens, maintained
/// incrementally as a list of append-only immutable posting segments.
///
/// The index is the online counterpart of TokenBlocking: AddRecord appends a
/// record's postings, Candidates probes a raw (possibly unseen) record for
/// blocking partners, and AllCandidates materializes the full candidate set.
/// The df / block-size caps are evaluated lazily against the *current*
/// posting sizes, so AllCandidates after N AddRecord calls is identical to
/// batch-blocking the same N records.
///
/// Storage is segment-structured for snapshot concurrency (see
/// docs/CONCURRENCY.md): each side is a vector of shared, immutable
/// `Segment`s (token -> ascending global record ids, plus the covered
/// records' entity ids). AddRecord appends a single-record tail segment and
/// then merges tail segments binary-counter style (merge while the tail is
/// at least as large as its predecessor), which keeps the per-side segment
/// count logarithmic and the amortized append cost O(tokens * log n). A
/// merge always builds a *new* segment — published segments are never
/// mutated — so copying a BlockingIndex is cheap (shared_ptr vector copies)
/// and a copy taken by an RCU writer never invalidates concurrent readers
/// of the original. The BlockingIndex object itself is not internally
/// synchronized: one writer mutates its own copy while readers use theirs.
class BlockingIndex {
 public:
  BlockingIndex() = default;

  /// \brief An empty index. `dedup` selects single-table semantics: both
  /// sides share one posting list and AllCandidates emits (i, j) with i < j.
  BlockingIndex(BlockingConfig config, bool dedup)
      : config_(config), dedup_(dedup) {}

  /// \brief Index over all records of two tables (pass the same table object
  /// twice for dedup), built as one base segment per side. AllCandidates()
  /// of the result equals TokenBlocking(left, right, config) exactly.
  static Result<BlockingIndex> Build(const Table& left, const Table& right,
                                     const BlockingConfig& config);

  bool dedup() const { return dedup_; }

  /// \brief Records indexed on one side (dedup: both sides report the single
  /// table's count).
  size_t num_records(BlockingSide side) const {
    return side_of(side).num_records;
  }

  /// \brief Posting segments currently backing one side (observability; 1
  /// after Build, grows and shrinks with AddRecord's tail merges).
  size_t segment_count(BlockingSide side) const {
    return side_of(side).segments.size();
  }

  /// \brief Appends one record's postings as a new tail segment (merging
  /// tails as needed). `entity_id` is the generator ground truth used to
  /// flag AllCandidates pairs as equivalent; pass -1 when unknown
  /// (production traffic), which marks every pair non-match. In dedup mode
  /// the side is ignored (single table). Fails if the key attribute is out
  /// of range for the record.
  Status AddRecord(BlockingSide side, const Record& record,
                   int64_t entity_id = -1);

  /// \brief Blocking candidates of a raw probe record on the target side,
  /// ascending — *exactly* the partners the probe would get from batch
  /// TokenBlocking if it were appended as the next record of the opposite
  /// (probe) side: per-token document-frequency caps are evaluated on both
  /// sides, with the probe side's counts and cap taken at its hypothetical
  /// new size (current records + the probe itself). Dedup indexes probe the
  /// single table regardless of `target`. Parity with the batch blocker is
  /// enforced by tests/blocking_index_test.cc.
  std::vector<size_t> Candidates(const Record& probe,
                                 BlockingSide target) const {
    return Candidates({this}, probe, target);
  }

  /// \brief Every candidate pair implied by the current postings, with the
  /// same caps, dedup semantics, and deterministic ordering as
  /// TokenBlocking over the same records.
  std::vector<RecordPair> AllCandidates() const {
    return AllCandidates({this});
  }

  // --- The one implementation, over a shard list ---------------------------
  // A sharded namespace keeps one index per shard over *local* ids
  // (ShardedId). These statics union the postings of the list, evaluate the
  // df and block-size caps at the summed (global) counts and return global
  // ids, bit-identical to one unsharded index over the same records (and to
  // TokenBlocking; tests/blocking_index_test.cc). All shards share one
  // BlockingConfig and dedup flag. `merge_ms`, when non-null, receives the
  // final ordering phase's wall time (the gateway's `shard_merge` span).

  /// \brief Candidates(probe, target) over a shard list, ascending by
  /// global id.
  static std::vector<size_t> Candidates(
      const std::vector<const BlockingIndex*>& shards, const Record& probe,
      BlockingSide target, double* merge_ms = nullptr);

  /// \brief AllCandidates() over a shard list: same pairs, order and
  /// equivalence flags as the unsharded index.
  static std::vector<RecordPair> AllCandidates(
      const std::vector<const BlockingIndex*>& shards,
      double* merge_ms = nullptr);

 private:
  using Postings = std::unordered_map<std::string, std::vector<size_t>>;

  /// \brief One immutable run of indexed records: their token postings
  /// (global record ids, ascending) and entity ids, covering global indices
  /// [base, base + entities.size()).
  struct Segment {
    size_t base = 0;
    Postings postings;
    /// Of this segment's postings tokens, the ones that also appear in some
    /// earlier (lower-base) segment of the same side. Computed once when the
    /// segment is created (tail append or merge) and immutable like the
    /// rest, so AllCandidates decides "is this the token's first segment?"
    /// with one lookup instead of re-walking every earlier segment's
    /// postings per token.
    std::unordered_set<std::string> prior;
    std::vector<int64_t> entities;
    size_t num_records() const { return entities.size(); }
  };

  /// \brief One side's segment list. Segments are immutable and shared
  /// across index copies; only the vector itself is per-copy.
  struct Side {
    std::vector<std::shared_ptr<const Segment>> segments;
    size_t num_records = 0;
  };

  const Side& side_of(BlockingSide side) const {
    return !dedup_ && side == BlockingSide::kRight ? right_ : left_;
  }
  Side& side_of(BlockingSide side) {
    return !dedup_ && side == BlockingSide::kRight ? right_ : left_;
  }

  /// \brief Total posting-list size of `token` across a side's segments.
  static size_t CountToken(const Side& side, const std::string& token);
  /// \brief Appends the global posting ids of `token` on one side of the
  /// shard list, from segment `first_segment` of shard `first_shard` on
  /// (the caller knows the earlier ones do not hold the token).
  static void GatherIds(const std::vector<const BlockingIndex*>& shards,
                        BlockingSide side, const std::string& token,
                        size_t first_shard, size_t first_segment,
                        std::vector<size_t>* out);
  /// \brief Entity id of one global record id of a side of the shard list
  /// (binary search over the owning shard's base-ordered segments).
  static int64_t EntityOf(const std::vector<const BlockingIndex*>& shards,
                          BlockingSide side, size_t global_id);

  /// \brief df cap at one side's record count summed over the shard list,
  /// plus `extra` (TokenBlocking's max(max_token_df * records, 1)).
  static size_t DfCapAt(const std::vector<const BlockingIndex*>& shards,
                        BlockingSide side, size_t extra = 0);

  BlockingConfig config_;
  bool dedup_ = false;
  Side left_;
  Side right_;
};

}  // namespace learnrisk

#endif  // LEARNRISK_GATEWAY_BLOCKING_INDEX_H_
