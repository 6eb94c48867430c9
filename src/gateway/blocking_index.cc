// Copyright 2026 The LearnRisk Authors

#include "gateway/blocking_index.h"

#include <algorithm>
#include <set>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "common/timer.h"

namespace learnrisk {

Result<BlockingIndex> BlockingIndex::Build(const Table& left,
                                           const Table& right,
                                           const BlockingConfig& config) {
  if (config.key_attribute >= left.schema().num_attributes() ||
      config.key_attribute >= right.schema().num_attributes()) {
    return Status::InvalidArgument("blocking key attribute out of range");
  }
  BlockingIndex index(config, &left == &right);
  auto bulk_load = [&config](Side* side, const Table& table) {
    auto segment = std::make_shared<Segment>();
    segment->base = 0;
    segment->entities.reserve(table.num_records());
    for (size_t i = 0; i < table.num_records(); ++i) {
      for (std::string& tok :
           BlockingKeyTokens(table.record(i), config.key_attribute,
                             config.min_token_length)) {
        segment->postings[std::move(tok)].push_back(i);
      }
      segment->entities.push_back(table.entity_id(i));
    }
    side->num_records = table.num_records();
    if (table.num_records() > 0) side->segments.push_back(std::move(segment));
  };
  bulk_load(&index.left_, left);
  if (!index.dedup_) bulk_load(&index.right_, right);
  return index;
}

Status BlockingIndex::AddRecord(BlockingSide side, const Record& record,
                                int64_t entity_id) {
  if (config_.key_attribute >= record.values.size()) {
    return Status::InvalidArgument("blocking key attribute out of range");
  }
  Side& s = side_of(side);
  const size_t index = s.num_records;
  auto tail = std::make_shared<Segment>();
  tail->base = index;
  for (std::string& tok :
       BlockingKeyTokens(record, config_.key_attribute,
                         config_.min_token_length)) {
    tail->postings[std::move(tok)].push_back(index);
  }
  tail->entities.push_back(entity_id);
  for (const auto& [tok, ids] : tail->postings) {
    (void)ids;
    for (const auto& segment : s.segments) {
      if (segment->postings.count(tok) > 0) {
        tail->prior.insert(tok);
        break;
      }
    }
  }
  s.segments.push_back(std::move(tail));
  s.num_records = index + 1;

  // Binary-counter compaction: merge while the tail has grown at least as
  // large as its predecessor. Sizes stay strictly decreasing, so a side
  // holds O(log n) segments and each record is merged O(log n) times.
  // Merges build fresh segments — shared (published) segments are immutable.
  while (s.segments.size() >= 2) {
    const Segment& a = *s.segments[s.segments.size() - 2];
    const Segment& b = *s.segments.back();
    if (b.num_records() < a.num_records()) break;
    auto merged = std::make_shared<Segment>();
    merged->base = a.base;
    merged->postings = a.postings;
    merged->prior = a.prior;
    for (const auto& [tok, ids] : b.postings) {
      // A token only b holds predates the merged segment iff it predates a:
      // b.prior covers "before a, or in a", and "in a" is excluded here. For
      // tokens a holds, a.prior (already copied) is the answer.
      if (merged->postings.count(tok) == 0 && b.prior.count(tok) > 0) {
        merged->prior.insert(tok);
      }
      // b's ids all exceed a's (higher base), so appending keeps each
      // posting list ascending.
      std::vector<size_t>& list = merged->postings[tok];
      list.insert(list.end(), ids.begin(), ids.end());
    }
    merged->entities = a.entities;
    merged->entities.insert(merged->entities.end(), b.entities.begin(),
                            b.entities.end());
    s.segments.pop_back();
    s.segments.pop_back();
    s.segments.push_back(std::move(merged));
  }
  return Status::OK();
}

size_t BlockingIndex::CountToken(const Side& side, const std::string& token) {
  size_t count = 0;
  for (const auto& segment : side.segments) {
    auto it = segment->postings.find(token);
    if (it != segment->postings.end()) count += it->second.size();
  }
  return count;
}

void BlockingIndex::GatherIds(const std::vector<const BlockingIndex*>& shards,
                              BlockingSide side, const std::string& token,
                              size_t first_shard, size_t first_segment,
                              std::vector<size_t>* out) {
  for (size_t k = first_shard; k < shards.size(); ++k) {
    const Side& s = shards[k]->side_of(side);
    for (size_t i = k == first_shard ? first_segment : 0;
         i < s.segments.size(); ++i) {
      auto it = s.segments[i]->postings.find(token);
      if (it == s.segments[i]->postings.end()) continue;
      for (size_t id : it->second) {
        out->push_back(ShardedId{k, id}.Global(shards.size()));
      }
    }
  }
}

int64_t BlockingIndex::EntityOf(const std::vector<const BlockingIndex*>& shards,
                                BlockingSide side, size_t global_id) {
  const ShardedId at = ShardedId::Of(global_id, shards.size());
  const Side& s = shards[at.shard]->side_of(side);
  // Last segment whose base is <= the local id; segments are base-ordered.
  auto it = std::upper_bound(
      s.segments.begin(), s.segments.end(), at.local,
      [](size_t v, const std::shared_ptr<const Segment>& segment) {
        return v < segment->base;
      });
  const Segment& segment = **(it - 1);
  return segment.entities[at.local - segment.base];
}

size_t BlockingIndex::DfCapAt(const std::vector<const BlockingIndex*>& shards,
                              BlockingSide side, size_t extra) {
  size_t records = extra;
  for (const BlockingIndex* shard : shards) records += shard->num_records(side);
  const auto cap = static_cast<size_t>(shards[0]->config_.max_token_df *
                                       static_cast<double>(records));
  return std::max<size_t>(cap, 1);
}

std::vector<size_t> BlockingIndex::Candidates(
    const std::vector<const BlockingIndex*>& shards, const Record& probe,
    BlockingSide target, double* merge_ms) {
  if (merge_ms != nullptr) *merge_ms = 0.0;
  std::vector<size_t> out;
  const BlockingConfig& config = shards[0]->config_;
  if (config.key_attribute >= probe.values.size()) return out;
  const bool dedup = shards[0]->dedup_;
  const size_t num_shards = shards.size();
  // The probe is scored as if it were the next record appended to the
  // opposite (probe) side — dedup folds both sides onto the single table —
  // so every df / block-size cap below is exactly what TokenBlocking would
  // evaluate over the hypothetical (probe-appended) global tables.
  const BlockingSide probe_side = dedup ? target : OppositeSide(target);
  const size_t probe_df_cap = DfCapAt(shards, probe_side, 1);
  const size_t target_df_cap = dedup ? probe_df_cap : DfCapAt(shards, target);

  std::set<size_t> found;
  // (shard, posting list) of every target segment holding the token.
  std::vector<std::pair<size_t, const std::vector<size_t>*>> lists;
  for (const std::string& tok :
       BlockingKeyTokens(probe, config.key_attribute,
                         config.min_token_length)) {
    // One pass over the target segments: count and remember the matching
    // posting lists, so passing the caps below doesn't re-find them.
    lists.clear();
    size_t target_count = 0;
    for (size_t k = 0; k < num_shards; ++k) {
      for (const auto& segment : shards[k]->side_of(target).segments) {
        auto it = segment->postings.find(tok);
        if (it == segment->postings.end()) continue;
        lists.emplace_back(k, &it->second);
        target_count += it->second.size();
      }
    }
    if (target_count == 0) continue;
    // Block sizes with the probe appended: the probe joins its own side's
    // posting list (dedup: the single shared list).
    size_t probe_count = 1 + (dedup ? target_count : 0);
    for (size_t k = 0; !dedup && k < num_shards; ++k) {
      probe_count += CountToken(shards[k]->side_of(probe_side), tok);
    }
    const size_t target_block = dedup ? target_count + 1 : target_count;
    if (target_block > target_df_cap || target_block > config.max_block_size) {
      continue;  // token too common on the target side
    }
    if (probe_count > probe_df_cap || probe_count > config.max_block_size) {
      continue;  // token too common on the probe's side
    }
    for (const auto& [shard, ids] : lists) {
      for (size_t id : *ids) {
        found.insert(found.end(), ShardedId{shard, id}.Global(num_shards));
      }
    }
  }
  // Merge phase: the deterministic ascending global ordering.
  const Timer merge_timer;
  out.assign(found.begin(), found.end());
  if (merge_ms != nullptr) *merge_ms = merge_timer.ElapsedMillis();
  return out;
}

std::vector<RecordPair> BlockingIndex::AllCandidates(
    const std::vector<const BlockingIndex*>& shards, double* merge_ms) {
  if (merge_ms != nullptr) *merge_ms = 0.0;
  const BlockingConfig& config = shards[0]->config_;
  const bool dedup = shards[0]->dedup_;
  const size_t num_shards = shards.size();
  const size_t left_df_cap = DfCapAt(shards, BlockingSide::kLeft);
  const size_t right_df_cap = DfCapAt(shards, BlockingSide::kRight);

  // Mirrors TokenBlocking's batch loop over the live postings: same caps
  // (evaluated at the current global record counts), same dedup semantics,
  // same set-ordered deterministic output. A token is processed once, at
  // the first left segment of the first shard that contains it, with its
  // full per-side global id lists gathered across segments and shards.
  std::set<std::pair<size_t, size_t>> pair_set;
  // Tokens already processed by an earlier shard (only needed when S > 1).
  // The views point into shard segment postings, which outlive this call.
  std::unordered_set<std::string_view> seen;
  std::vector<size_t> left_ids;
  std::vector<size_t> right_ids;
  for (size_t k = 0; k < num_shards; ++k) {
    const Side& left = shards[k]->left_;
    for (size_t s = 0; s < left.segments.size(); ++s) {
      for (const auto& [token, seg_ids] : left.segments[s]->postings) {
        (void)seg_ids;
        // The segment's prior set answers "did an earlier segment of this
        // shard index the token?" in one lookup, `seen` the same across
        // shards — no per-token walk over earlier segments or shards.
        if (left.segments[s]->prior.count(token) > 0) continue;
        if (num_shards > 1 && !seen.insert(token).second) continue;
        left_ids.clear();
        GatherIds(shards, BlockingSide::kLeft, token, k, s, &left_ids);
        if (!dedup) {
          right_ids.clear();
          GatherIds(shards, BlockingSide::kRight, token, 0, 0, &right_ids);
        }
        const std::vector<size_t>& rids = dedup ? left_ids : right_ids;
        if (rids.empty()) continue;
        if (left_ids.size() > left_df_cap || rids.size() > right_df_cap) {
          continue;  // token too common to be discriminating
        }
        if (left_ids.size() > config.max_block_size ||
            rids.size() > config.max_block_size) {
          continue;  // block purging
        }
        for (size_t li : left_ids) {
          for (size_t ri : rids) {
            if (dedup && li >= ri) continue;
            pair_set.emplace(li, ri);
          }
        }
      }
    }
  }

  // Merge phase: the deterministic global ordering (the set's iteration
  // order) plus equivalence tagging against the owning shards.
  const Timer merge_timer;
  std::vector<RecordPair> pairs;
  pairs.reserve(pair_set.size());
  for (const auto& [li, ri] : pair_set) {
    // Unknown entities (-1) never count as equivalent.
    const int64_t left_entity = EntityOf(shards, BlockingSide::kLeft, li);
    const bool equivalent =
        left_entity >= 0 &&
        left_entity == EntityOf(shards, BlockingSide::kRight, ri);
    pairs.push_back(RecordPair{li, ri, equivalent});
  }
  if (merge_ms != nullptr) *merge_ms = merge_timer.ElapsedMillis();
  return pairs;
}

}  // namespace learnrisk
