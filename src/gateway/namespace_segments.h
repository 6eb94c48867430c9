// Copyright 2026 The LearnRisk Authors
// Append-only segmented record storage for gateway namespaces. A SideStore
// holds one side's records, their ground-truth entity ids, and their
// PreparedRecord featurization caches in a list of immutable, shared
// segments: registration builds one base segment from the source table, and
// each online append adds a single-record tail segment. Because segments are
// never mutated after publication, copying a SideStore is a handful of
// shared_ptr copies — exactly what the gateway's RCU writer needs to derive
// the next namespace snapshot without ever touching the one concurrent
// readers are using (see docs/CONCURRENCY.md).
//
// Each segment owns its Records, and its PreparedRecords borrow their raw
// attribute strings from those Records (PreparedValue::raw is a view), so a
// record's string data exists exactly once per segment. Segments are never
// merged: merging would relocate the Records and dangle the views. Random
// access resolves the owning segment by binary search over the base-offset
// table (one comparison when a store has a single segment, O(log segments)
// after online appends).
//
// ShardedSideView presents one side's per-shard SideStores as a single
// store addressed by global record ids (ShardedId in
// gateway/blocking_index.h is the id layout). It is the one input type of
// FeaturePipeline's prepared entry points; a lone SideStore converts
// implicitly to a 1-shard view.

#ifndef LEARNRISK_GATEWAY_NAMESPACE_SEGMENTS_H_
#define LEARNRISK_GATEWAY_NAMESPACE_SEGMENTS_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "data/table.h"
#include "gateway/blocking_index.h"
#include "metrics/prepared_record.h"

namespace learnrisk {

class MetricSuite;

/// \brief One immutable run of a namespace side: records, entity ids, and
/// prepared featurization caches, index-aligned. The prepared entries'
/// string views point into `records`, which never moves after construction.
struct SideSegment {
  std::vector<Record> records;
  std::vector<int64_t> entity_ids;
  std::vector<PreparedRecord> prepared;

  SideSegment() = default;
  // Copying would dangle `prepared`'s views into `records`; segments are
  // built once and shared immutably behind shared_ptr<const SideSegment>.
  SideSegment(const SideSegment&) = delete;
  SideSegment& operator=(const SideSegment&) = delete;
};

/// \brief An append-only, cheaply copyable view over one side's segments.
///
/// Immutable through the const interface; WithAppended derives a new store
/// sharing every existing segment plus a fresh single-record tail. Safe to
/// read from any number of threads while a writer builds successor stores
/// from copies.
class SideStore {
 public:
  SideStore() = default;

  /// \brief One base segment holding a copy of every record of `table`,
  /// prepared under `suite` (parallel). The store owns its copies — the
  /// caller's table can die afterwards.
  static SideStore Build(const Table& table, const MetricSuite& suite);

  /// \brief A new store: this store's segments plus a one-record tail
  /// segment owning `record` (prepared under `suite`). The receiver is not
  /// modified.
  SideStore WithAppended(Record record, int64_t entity_id,
                         const MetricSuite& suite) const;

  size_t size() const { return size_; }
  size_t segment_count() const { return segments_.size(); }

  /// \brief Direct pointer to the prepared rows when the store is a single
  /// contiguous segment (bulk registration with no online appends); nullptr
  /// otherwise. Featurization does not use it (a one-segment Locate is one
  /// comparison); it remains as the probe behind the benchmark's
  /// `segments.contiguous_end` share.
  const PreparedRecord* contiguous_prepared() const {
    return segments_.size() == 1 ? segments_[0]->prepared.data() : nullptr;
  }

  const Record& record(size_t i) const {
    const Location loc = Locate(i);
    return segments_[loc.segment]->records[loc.offset];
  }
  const PreparedRecord& prepared(size_t i) const {
    const Location loc = Locate(i);
    return segments_[loc.segment]->prepared[loc.offset];
  }
  int64_t entity_id(size_t i) const {
    const Location loc = Locate(i);
    return segments_[loc.segment]->entity_ids[loc.offset];
  }

  /// \brief Materializes the store back into a Table (for tests and
  /// reference rebuilds; copies every record).
  Table Materialize(const Schema& schema) const;

 private:
  struct Location {
    size_t segment;
    size_t offset;
  };
  Location Locate(size_t i) const;

  std::vector<std::shared_ptr<const SideSegment>> segments_;
  std::vector<size_t> bases_;  ///< bases_[k] = global index of segment k's row 0
  size_t size_ = 0;
};

/// \brief A read-only view over one side's per-shard SideStores, addressed
/// by global record ids in the ShardedId layout. The stores (and the
/// snapshots owning them) must outlive the view; the gateway pins its
/// per-request shard snapshots for exactly this reason.
class ShardedSideView {
 public:
  explicit ShardedSideView(std::vector<const SideStore*> stores)
      : stores_(std::move(stores)) {}
  /// \brief A 1-shard view, where global ids are the store's own indices.
  /// Implicit, so a SideStore can be passed wherever a view is expected.
  ShardedSideView(const SideStore& store)  // NOLINT(runtime/explicit)
      : stores_{&store} {}

  /// \brief True iff `global_id` resolves to an existing record of its
  /// shard. Exact per shard: while a sibling shard is momentarily shorter,
  /// an id below the total record count can still be out of range.
  bool InRange(size_t global_id) const {
    const ShardedId at = ShardedId::Of(global_id, stores_.size());
    return at.local < stores_[at.shard]->size();
  }

  const PreparedRecord& prepared(size_t global_id) const {
    const ShardedId at = ShardedId::Of(global_id, stores_.size());
    return stores_[at.shard]->prepared(at.local);
  }

 private:
  std::vector<const SideStore*> stores_;
};

}  // namespace learnrisk

#endif  // LEARNRISK_GATEWAY_NAMESPACE_SEGMENTS_H_
