// Copyright 2026 The LearnRisk Authors
// Record-level feature preparation: everything a metric suite derives from a
// *single* record — normalized strings, token lists, sorted token / q-gram
// sets, tf-idf weight maps, key-token subsets, entity token lists, parsed
// numerics — computed once per (record, attribute) and reused across every
// pair the record participates in. Blocking emits each record in many
// candidate pairs, so the raw path re-derives all of this per pair; the
// prepared path (MetricSuite::EvaluatePairPrepared*) pays it once.
//
// PreparedRecords are plain immutable data once built: safe to share across
// threads without synchronization. They are only meaningful together with
// the MetricSuite that prepared them (the suite's specs decide which fields
// are populated and its IDF tables weight the cached tf-idf maps), and they
// *borrow* the raw attribute strings of the record they were prepared from
// (PreparedValue::raw is a view, not a copy), so the source record — or the
// Table / segment owning it — must outlive them.

#ifndef LEARNRISK_METRICS_PREPARED_RECORD_H_
#define LEARNRISK_METRICS_PREPARED_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace learnrisk {

/// \brief One normalized element of an entity-set attribute, pre-tokenized
/// for the abbreviation-aware equivalence test DistinctEntity runs per pair.
struct PreparedEntity {
  std::string text;                 ///< ToLower(Trim(part)), non-empty
  std::vector<std::string> tokens;  ///< Tokenize(text)
};

/// \brief Cached single-record derivations for one attribute. Only the
/// fields the owning suite's metrics need are populated (the rest stay
/// empty); `missing` is always valid.
struct PreparedValue {
  /// View of the source record's attribute value (no copy — the record's
  /// string storage is shared with whoever owns the record: the Table, the
  /// gateway segment, or the probe on the caller's stack). Populated only
  /// when a character-level metric (edit / Jaro-Winkler / LCS) reads it.
  std::string_view raw;
  bool missing = true;  ///< Trim(value).empty()

  std::string norm;  ///< ToLower(Trim(raw))
  std::string abbr;  ///< FirstLetterAbbreviation(norm)

  std::vector<std::string> tokens;         ///< Tokenize(raw), original order
  /// Per-token character-presence bitmask (bit c & 63 per byte), parallel to
  /// `tokens`. Disjoint masks prove two tokens share no character, so their
  /// Jaro-Winkler similarity is exactly 0.0 — the token-overlap prefilter the
  /// Monge-Elkan kernel uses to skip provably-zero comparisons.
  std::vector<uint64_t> token_masks;
  std::vector<std::string> sorted_tokens;  ///< unique tokens, sorted
  /// Unique trigrams of ToLower(raw), packed injectively into integer keys
  /// (length tag + up to 3 bytes) and sorted; set cardinalities and
  /// intersections equal the string-set ones exactly.
  std::vector<uint32_t> sorted_ngrams;
  std::vector<std::string> key_tokens;     ///< sorted high-IDF token subset

  std::vector<PreparedEntity> entities;  ///< split entity-set elements

  /// tf * idf per token, built with the exact insertion order the raw
  /// CosineTfIdf uses so iteration (and thus summation) order matches.
  std::unordered_map<std::string, double> tfidf;
  double tfidf_norm_sq = 0.0;  ///< sum of squared tf-idf weights

  bool num_ok = false;  ///< strtod consumed at least one char
  double num = 0.0;     ///< parsed numeric value
};

/// \brief One record's cached derivations, indexed by attribute.
struct PreparedRecord {
  std::vector<PreparedValue> values;  ///< one per schema attribute
};

}  // namespace learnrisk

#endif  // LEARNRISK_METRICS_PREPARED_RECORD_H_
