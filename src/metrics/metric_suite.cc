// Copyright 2026 The LearnRisk Authors

#include "metrics/metric_suite.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/parallel.h"
#include "common/string_util.h"
#include "metrics/difference.h"

namespace learnrisk {

const char* MetricKindToString(MetricKind kind) {
  switch (kind) {
    case MetricKind::kEditSim: return "edit_sim";
    case MetricKind::kJaroWinkler: return "jaro_winkler";
    case MetricKind::kTokenJaccard: return "jaccard";
    case MetricKind::kNgramJaccard: return "ngram_jaccard";
    case MetricKind::kLcs: return "lcs";
    case MetricKind::kCosineTfIdf: return "cosine_tfidf";
    case MetricKind::kMongeElkan: return "monge_elkan";
    case MetricKind::kOverlap: return "overlap";
    case MetricKind::kContainment: return "containment";
    case MetricKind::kNumericSim: return "numeric_sim";
    case MetricKind::kExact: return "exact";
    case MetricKind::kNonSubstring: return "non_substring";
    case MetricKind::kNonPrefix: return "non_prefix";
    case MetricKind::kNonSuffix: return "non_suffix";
    case MetricKind::kAbbrNonSubstring: return "abbr_non_substring";
    case MetricKind::kAbbrNonPrefix: return "abbr_non_prefix";
    case MetricKind::kAbbrNonSuffix: return "abbr_non_suffix";
    case MetricKind::kDiffCardinality: return "diff_cardinality";
    case MetricKind::kDistinctEntity: return "distinct_entity";
    case MetricKind::kDiffKeyToken: return "diff_key_token";
    case MetricKind::kNumericUnequal: return "numeric_unequal";
    case MetricKind::kNotEqual: return "not_equal";
  }
  return "unknown";
}

bool IsDifferenceMetric(MetricKind kind) {
  switch (kind) {
    case MetricKind::kNonSubstring:
    case MetricKind::kNonPrefix:
    case MetricKind::kNonSuffix:
    case MetricKind::kAbbrNonSubstring:
    case MetricKind::kAbbrNonPrefix:
    case MetricKind::kAbbrNonSuffix:
    case MetricKind::kDiffCardinality:
    case MetricKind::kDistinctEntity:
    case MetricKind::kDiffKeyToken:
    case MetricKind::kNumericUnequal:
    case MetricKind::kNotEqual:
      return true;
    default:
      return false;
  }
}

namespace {

void AddSpec(std::vector<MetricSpec>* specs, const Schema& schema, size_t attr,
             MetricKind kind) {
  specs->push_back(MetricSpec{
      attr, kind,
      schema.attribute(attr).name + "." + MetricKindToString(kind)});
}

}  // namespace

MetricSuite MetricSuite::ForSchema(const Schema& schema) {
  std::vector<MetricSpec> specs;
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    const Attribute& attr = schema.attribute(a);
    switch (attr.type) {
      case AttributeType::kEntityName:
        AddSpec(&specs, schema, a, MetricKind::kEditSim);
        AddSpec(&specs, schema, a, MetricKind::kJaroWinkler);
        AddSpec(&specs, schema, a, MetricKind::kTokenJaccard);
        AddSpec(&specs, schema, a, MetricKind::kNonSubstring);
        AddSpec(&specs, schema, a, MetricKind::kNonPrefix);
        AddSpec(&specs, schema, a, MetricKind::kNonSuffix);
        AddSpec(&specs, schema, a, MetricKind::kAbbrNonSubstring);
        break;
      case AttributeType::kEntitySet:
        AddSpec(&specs, schema, a, MetricKind::kTokenJaccard);
        AddSpec(&specs, schema, a, MetricKind::kMongeElkan);
        AddSpec(&specs, schema, a, MetricKind::kDiffCardinality);
        AddSpec(&specs, schema, a, MetricKind::kDistinctEntity);
        break;
      case AttributeType::kText:
        if (Contains(attr.name, "description")) {
          // Long text: token-level metrics only (quadratic character DP
          // metrics are both slow and uninformative here).
          AddSpec(&specs, schema, a, MetricKind::kTokenJaccard);
          AddSpec(&specs, schema, a, MetricKind::kCosineTfIdf);
          AddSpec(&specs, schema, a, MetricKind::kContainment);
          AddSpec(&specs, schema, a, MetricKind::kDiffKeyToken);
        } else {
          AddSpec(&specs, schema, a, MetricKind::kEditSim);
          AddSpec(&specs, schema, a, MetricKind::kTokenJaccard);
          AddSpec(&specs, schema, a, MetricKind::kNgramJaccard);
          AddSpec(&specs, schema, a, MetricKind::kLcs);
          AddSpec(&specs, schema, a, MetricKind::kCosineTfIdf);
          AddSpec(&specs, schema, a, MetricKind::kMongeElkan);
          AddSpec(&specs, schema, a, MetricKind::kDiffKeyToken);
        }
        break;
      case AttributeType::kNumeric:
        AddSpec(&specs, schema, a, MetricKind::kNumericSim);
        AddSpec(&specs, schema, a, MetricKind::kExact);
        AddSpec(&specs, schema, a, MetricKind::kNumericUnequal);
        break;
      case AttributeType::kCategorical:
        AddSpec(&specs, schema, a, MetricKind::kExact);
        AddSpec(&specs, schema, a, MetricKind::kNotEqual);
        break;
    }
  }
  return FromSpecs(schema, std::move(specs));
}

MetricSuite MetricSuite::FromSpecs(const Schema& schema,
                                   std::vector<MetricSpec> specs) {
  MetricSuite suite;
  suite.schema_ = schema;
  suite.specs_ = std::move(specs);
  suite.idf_.resize(schema.num_attributes());
  suite.min_key_idf_.resize(schema.num_attributes(), 0.0);
  suite.RecomputeNeeds();
  return suite;
}

void MetricSuite::Fit(const Workload& workload) {
  // Which attributes need corpus statistics?
  std::vector<bool> needs_idf(schema_.num_attributes(), false);
  for (const MetricSpec& spec : specs_) {
    if (spec.kind == MetricKind::kCosineTfIdf ||
        spec.kind == MetricKind::kDiffKeyToken) {
      needs_idf[spec.attribute] = true;
    }
  }
  for (size_t a = 0; a < schema_.num_attributes(); ++a) {
    if (!needs_idf[a]) continue;
    std::vector<std::string_view> corpus;
    const Table& left = workload.left();
    const Table& right = workload.right();
    corpus.reserve(left.num_records() +
                   (&left == &right ? 0 : right.num_records()));
    for (size_t i = 0; i < left.num_records(); ++i) {
      corpus.push_back(left.record(i).value(a));
    }
    if (&left != &right) {
      for (size_t i = 0; i < right.num_records(); ++i) {
        corpus.push_back(right.record(i).value(a));
      }
    }
    idf_[a] = std::make_shared<IdfTable>(IdfTable::Build(corpus));
    // A token counts as "key" if it appears in at most max(3, N/500)
    // documents; convert that document-frequency cap into an idf threshold.
    const double n = static_cast<double>(corpus.size());
    const double df_cap = std::max(3.0, n / 500.0);
    min_key_idf_[a] = std::log((1.0 + n) / (1.0 + df_cap)) + 1.0;
  }
}

std::vector<std::string> MetricSuite::MetricNames() const {
  std::vector<std::string> names;
  names.reserve(specs_.size());
  for (const MetricSpec& spec : specs_) names.push_back(spec.name);
  return names;
}

double MetricSuite::Evaluate(const Record& left, const Record& right,
                             size_t m) const {
  const MetricSpec& spec = specs_[m];
  const std::string& a = left.value(spec.attribute);
  const std::string& b = right.value(spec.attribute);
  // String metrics on missing values are undefined; numeric metrics handle
  // parse failure themselves.
  const bool missing = Trim(a).empty() || Trim(b).empty();
  switch (spec.kind) {
    case MetricKind::kEditSim:
      return missing ? kMissingMetric : NormalizedEditSimilarity(a, b);
    case MetricKind::kJaroWinkler:
      return missing ? kMissingMetric : JaroWinklerSimilarity(a, b);
    case MetricKind::kTokenJaccard:
      return missing ? kMissingMetric : TokenJaccard(a, b);
    case MetricKind::kNgramJaccard:
      return missing ? kMissingMetric : NgramJaccard(a, b);
    case MetricKind::kLcs:
      return missing ? kMissingMetric : LcsRatio(a, b);
    case MetricKind::kCosineTfIdf:
      if (missing) return kMissingMetric;
      return idf_[spec.attribute] ? CosineTfIdf(a, b, *idf_[spec.attribute])
                                  : kMissingMetric;
    case MetricKind::kMongeElkan:
      return missing ? kMissingMetric : MongeElkan(a, b);
    case MetricKind::kOverlap:
      return missing ? kMissingMetric : OverlapCoefficient(a, b);
    case MetricKind::kContainment:
      return missing ? kMissingMetric : Containment(a, b);
    case MetricKind::kNumericSim:
      return NumericSimilarity(a, b);
    case MetricKind::kExact:
      return missing ? kMissingMetric : ExactMatch(a, b);
    case MetricKind::kNonSubstring:
      return NonSubstring(a, b);
    case MetricKind::kNonPrefix:
      return NonPrefix(a, b);
    case MetricKind::kNonSuffix:
      return NonSuffix(a, b);
    case MetricKind::kAbbrNonSubstring:
      return AbbrNonSubstring(a, b);
    case MetricKind::kAbbrNonPrefix:
      return AbbrNonPrefix(a, b);
    case MetricKind::kAbbrNonSuffix:
      return AbbrNonSuffix(a, b);
    case MetricKind::kDiffCardinality:
      return DiffCardinality(a, b);
    case MetricKind::kDistinctEntity:
      return DistinctEntity(a, b);
    case MetricKind::kDiffKeyToken:
      if (!idf_[spec.attribute]) return kMissingMetric;
      return DiffKeyToken(a, b, *idf_[spec.attribute],
                          min_key_idf_[spec.attribute]);
    case MetricKind::kNumericUnequal:
      return NumericUnequal(a, b);
    case MetricKind::kNotEqual:
      return missing ? kMissingMetric : 1.0 - ExactMatch(a, b);
  }
  return kMissingMetric;
}

std::vector<double> MetricSuite::EvaluatePair(const Record& left,
                                              const Record& right) const {
  std::vector<double> out(specs_.size());
  EvaluatePairInto(left, right, out.data());
  return out;
}

void MetricSuite::EvaluatePairInto(const Record& left, const Record& right,
                                   double* out) const {
  for (size_t m = 0; m < specs_.size(); ++m) {
    out[m] = Evaluate(left, right, m);
  }
}

// --- Prepared fast path ------------------------------------------------------

namespace {

/// Which PreparedValue fields a metric kind reads.
enum PrepareNeeds : uint32_t {
  kNeedRaw = 1u << 9,
  kNeedNorm = 1u << 0,
  kNeedAbbr = 1u << 1,
  kNeedTokens = 1u << 2,
  kNeedTokenSet = 1u << 3,
  kNeedNgrams = 1u << 4,
  kNeedTfidf = 1u << 5,
  kNeedKeyTokens = 1u << 6,
  kNeedEntities = 1u << 7,
  kNeedNumeric = 1u << 8,
};

std::vector<std::string> SortedUnique(std::vector<std::string> items) {
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  return items;
}

/// Injective integer key for a char n-gram of length 1..3 (CharNgrams with
/// n == 3 emits only those): length tag plus the raw bytes. Distinct strings
/// get distinct keys, so sorted-unique key sets have exactly the string
/// sets' cardinalities and intersection sizes.
uint32_t NgramKey(const std::string& gram) {
  uint32_t bytes = 0;
  for (char c : gram) bytes = (bytes << 8) | static_cast<unsigned char>(c);
  return (static_cast<uint32_t>(gram.size()) << 24) | bytes;
}

/// Character-presence bitmask of a token (bit c & 63 per byte). Disjoint
/// masks imply no shared character.
uint64_t CharMask(const std::string& token) {
  uint64_t mask = 0;
  for (char c : token) {
    mask |= uint64_t{1} << (static_cast<unsigned char>(c) & 63);
  }
  return mask;
}

/// |a ∩ b| for sorted unique key vectors.
size_t SortedKeyIntersectionCount(const std::vector<uint32_t>& a,
                                  const std::vector<uint32_t>& b) {
  size_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

/// |a ∩ b| for sorted unique vectors; same integer the unordered_set
/// reference intersection produces.
size_t SortedIntersectionCount(const std::vector<std::string>& a,
                               const std::vector<std::string>& b) {
  size_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const int cmp = a[i].compare(b[j]);
    if (cmp < 0) {
      ++i;
    } else if (cmp > 0) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

/// |a \ b| for sorted unique vectors.
size_t SortedAbsentCount(const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
  return a.size() - SortedIntersectionCount(a, b);
}

/// Mirror of EntityNamesEquivalent over pre-tokenized entities: same surname
/// edit-similarity threshold, same head-initial compatibility rule.
bool PreparedEntitiesEquivalent(const PreparedEntity& a,
                                const PreparedEntity& b,
                                MetricScratch* scratch) {
  const std::vector<std::string>& ta = a.tokens;
  const std::vector<std::string>& tb = b.tokens;
  if (ta.empty() || tb.empty()) return ta.empty() && tb.empty();
  if (NormalizedEditSimilarityFast(ta.back(), tb.back(), scratch) < 0.8) {
    return false;
  }
  const size_t heads = std::min(ta.size(), tb.size()) - 1;
  for (size_t i = 0; i < heads; ++i) {
    const std::string& x = ta[i];
    const std::string& y = tb[i];
    if (x == y) continue;
    if (x.size() == 1 && y.size() >= 1 && x[0] == y[0]) continue;
    if (y.size() == 1 && x.size() >= 1 && x[0] == y[0]) continue;
    return false;
  }
  return true;
}

/// Mirror of DistinctEntityCount over prepared entity lists (greedy
/// first-match pairing in the same order).
double PreparedDistinctEntityCount(const PreparedValue& a,
                                   const PreparedValue& b,
                                   MetricScratch* scratch) {
  const std::vector<PreparedEntity>& ea = a.entities;
  const std::vector<PreparedEntity>& eb = b.entities;
  scratch->used.assign(eb.size(), 0);
  size_t matched_a = 0;
  for (const PreparedEntity& x : ea) {
    for (size_t j = 0; j < eb.size(); ++j) {
      if (scratch->used[j]) continue;
      if (PreparedEntitiesEquivalent(x, eb[j], scratch)) {
        scratch->used[j] = 1;
        ++matched_a;
        break;
      }
    }
  }
  const size_t unmatched_a = ea.size() - matched_a;
  size_t unmatched_b = 0;
  for (uint8_t used : scratch->used) unmatched_b += used ? 0 : 1;
  return static_cast<double>(unmatched_a + unmatched_b);
}

/// Mirror of MongeElkan over cached token vectors. The reference evaluates
/// the |ta| x |tb| Jaro-Winkler matrix twice (once per direction); this
/// kernel fills per-row and per-column maxima in one fused pass, which is
/// bit-identical because greedy-window Jaro-Winkler is exactly symmetric
/// (tested in tests/prepared_parity_test.cc; IEEE addition is commutative,
/// so the swapped-argument formula reassociates nothing), a maximum does not
/// depend on the order its candidates arrive in, and both sums run in the
/// reference's token order.
///
/// The pass walks the right tokens outermost: each right token of at most
/// 64 chars has its position masks built once and matched bit-parallel
/// against every left token (JaroWinklerAgainstMasks); longer ones take
/// JaroWinklerSimilarityFast's multi-word match, masks built per pair. Two
/// exact shortcuts skip the kernel: equal tokens score
/// exactly 1.0, and tokens with disjoint character masks score exactly 0.0
/// (no matches and no shared prefix).
double PreparedMongeElkan(const PreparedValue& a, const PreparedValue& b,
                          MetricScratch* scratch) {
  const std::vector<std::string>& ta = a.tokens;
  const std::vector<std::string>& tb = b.tokens;
  if (ta.empty() && tb.empty()) return 1.0;
  if (ta.empty() || tb.empty()) return 0.0;
  std::vector<double>& row_best = scratch->row_best;
  row_best.assign(ta.size(), 0.0);
  double total_b = 0.0;
  for (size_t j = 0; j < tb.size(); ++j) {
    const std::string& y = tb[j];
    const uint64_t y_mask = b.token_masks[j];
    const bool bit_parallel = y.size() <= 64;
    if (bit_parallel) BuildCharMasks(y, scratch);
    double col_best = 0.0;
    for (size_t i = 0; i < ta.size(); ++i) {
      if ((a.token_masks[i] & y_mask) == 0) continue;  // exactly 0.0
      const double s = ta[i] == y ? 1.0
                       : bit_parallel
                           ? JaroWinklerAgainstMasks(ta[i], y, *scratch)
                           : JaroWinklerSimilarityFast(ta[i], y, scratch);
      row_best[i] = std::max(row_best[i], s);
      col_best = std::max(col_best, s);
    }
    if (bit_parallel) ClearCharMasks(y, scratch);
    total_b += col_best;
  }
  double total_a = 0.0;
  for (double best : row_best) total_a += best;
  return 0.5 * (total_a / static_cast<double>(ta.size()) +
                total_b / static_cast<double>(tb.size()));
}

/// Mirror of CosineTfIdf over the cached weight maps. The cached maps were
/// built with the same insertion sequence the reference builds per call, so
/// iterating the left map reproduces the reference's summation order and the
/// dot product is bit-identical.
double PreparedCosineTfIdf(const PreparedValue& a, const PreparedValue& b) {
  const auto& wa = a.tfidf;
  const auto& wb = b.tfidf;
  if (wa.empty() && wb.empty()) return 1.0;
  if (wa.empty() || wb.empty()) return 0.0;
  double dot = 0.0;
  for (const auto& [t, w] : wa) {
    const auto it = wb.find(t);
    if (it != wb.end()) dot += w * it->second;
  }
  if (a.tfidf_norm_sq == 0.0 || b.tfidf_norm_sq == 0.0) return 0.0;
  return dot / (std::sqrt(a.tfidf_norm_sq) * std::sqrt(b.tfidf_norm_sq));
}

}  // namespace

uint32_t MetricSuite::PrepareNeedsFor(MetricKind kind) {
  switch (kind) {
    case MetricKind::kEditSim:
    case MetricKind::kJaroWinkler:
    case MetricKind::kLcs:
      return kNeedRaw;  // the character-level kernels read the raw string
    case MetricKind::kTokenJaccard:
    case MetricKind::kOverlap:
    case MetricKind::kContainment:
      return kNeedTokenSet;
    case MetricKind::kNgramJaccard:
      return kNeedNgrams;
    case MetricKind::kCosineTfIdf:
      return kNeedTfidf;
    case MetricKind::kMongeElkan:
      return kNeedTokens;
    case MetricKind::kNumericSim:
    case MetricKind::kNumericUnequal:
      return kNeedNumeric;
    case MetricKind::kExact:
    case MetricKind::kNotEqual:
    case MetricKind::kNonSubstring:
    case MetricKind::kNonPrefix:
    case MetricKind::kNonSuffix:
      return kNeedNorm;
    case MetricKind::kAbbrNonSubstring:
    case MetricKind::kAbbrNonPrefix:
    case MetricKind::kAbbrNonSuffix:
      return kNeedNorm | kNeedAbbr;
    case MetricKind::kDiffCardinality:
    case MetricKind::kDistinctEntity:
      return kNeedEntities;
    case MetricKind::kDiffKeyToken:
      return kNeedTokenSet | kNeedKeyTokens;
  }
  return 0;
}

void MetricSuite::RecomputeNeeds() {
  needs_.assign(schema_.num_attributes(), 0);
  for (const MetricSpec& spec : specs_) {
    needs_[spec.attribute] |= PrepareNeedsFor(spec.kind);
  }
}

PreparedRecord MetricSuite::PrepareRecord(const Record& record) const {
  PreparedRecord out;
  out.values.resize(schema_.num_attributes());
  const size_t width = std::min(record.values.size(), out.values.size());
  for (size_t a = 0; a < width; ++a) {
    const uint32_t needs = needs_[a];
    PreparedValue& v = out.values[a];
    const std::string& raw = record.values[a];
    const std::string trimmed = Trim(raw);
    v.missing = trimmed.empty();
    if (needs == 0) continue;
    // Only the character-level kernels read the raw string at evaluation
    // time; skipping the copy otherwise keeps prepared tables from
    // duplicating string data they never touch.
    if (needs & kNeedRaw) v.raw = raw;
    if (needs & (kNeedNorm | kNeedAbbr)) v.norm = ToLower(trimmed);
    if (needs & kNeedAbbr) v.abbr = FirstLetterAbbreviation(v.norm);
    if (needs & (kNeedTokens | kNeedTokenSet | kNeedTfidf | kNeedKeyTokens)) {
      v.tokens = Tokenize(raw);
    }
    if (needs & kNeedTokens) {
      v.token_masks.reserve(v.tokens.size());
      for (const std::string& t : v.tokens) v.token_masks.push_back(CharMask(t));
    }
    if (needs & (kNeedTokenSet | kNeedKeyTokens)) {
      v.sorted_tokens = SortedUnique(v.tokens);
    }
    if (needs & kNeedNgrams) {
      for (const std::string& gram : CharNgrams(ToLower(raw), 3)) {
        v.sorted_ngrams.push_back(NgramKey(gram));
      }
      std::sort(v.sorted_ngrams.begin(), v.sorted_ngrams.end());
      v.sorted_ngrams.erase(
          std::unique(v.sorted_ngrams.begin(), v.sorted_ngrams.end()),
          v.sorted_ngrams.end());
    }
    if ((needs & kNeedTfidf) && idf_[a] != nullptr) {
      // Same insertion sequence as the reference CosineTfIdf builds per
      // call, so map iteration order — and thus every summation order —
      // matches it exactly.
      for (const std::string& t : v.tokens) v.tfidf[t] += 1.0;
      for (auto& [t, tf] : v.tfidf) {
        tf *= idf_[a]->Idf(t);
        v.tfidf_norm_sq += tf * tf;
      }
    }
    if ((needs & kNeedKeyTokens) && idf_[a] != nullptr) {
      for (const std::string& t : v.sorted_tokens) {
        if (idf_[a]->IsKeyToken(t, min_key_idf_[a])) v.key_tokens.push_back(t);
      }
    }
    if (needs & kNeedEntities) {
      for (const std::string& part : Split(raw, ',')) {
        std::string text = ToLower(Trim(part));
        if (text.empty()) continue;
        PreparedEntity entity;
        entity.tokens = Tokenize(text);
        entity.text = std::move(text);
        v.entities.push_back(std::move(entity));
      }
    }
    if (needs & kNeedNumeric) {
      char* end = nullptr;
      v.num = std::strtod(raw.c_str(), &end);
      v.num_ok = end != raw.c_str();
    }
  }
  return out;
}

double MetricSuite::EvaluatePrepared(const PreparedRecord& left,
                                     const PreparedRecord& right, size_t m,
                                     MetricScratch* scratch) const {
  const MetricSpec& spec = specs_[m];
  const PreparedValue& a = left.values[spec.attribute];
  const PreparedValue& b = right.values[spec.attribute];
  const bool missing = a.missing || b.missing;
  switch (spec.kind) {
    case MetricKind::kEditSim:
      return missing ? kMissingMetric
                     : NormalizedEditSimilarityFast(a.raw, b.raw, scratch);
    case MetricKind::kJaroWinkler:
      return missing ? kMissingMetric
                     : JaroWinklerSimilarityFast(a.raw, b.raw, scratch);
    case MetricKind::kTokenJaccard: {
      if (missing) return kMissingMetric;
      if (a.sorted_tokens.empty() && b.sorted_tokens.empty()) return 1.0;
      const size_t inter =
          SortedIntersectionCount(a.sorted_tokens, b.sorted_tokens);
      const size_t uni = a.sorted_tokens.size() + b.sorted_tokens.size() - inter;
      return uni == 0 ? 1.0
                      : static_cast<double>(inter) / static_cast<double>(uni);
    }
    case MetricKind::kNgramJaccard: {
      if (missing) return kMissingMetric;
      if (a.sorted_ngrams.empty() && b.sorted_ngrams.empty()) return 1.0;
      const size_t inter =
          SortedKeyIntersectionCount(a.sorted_ngrams, b.sorted_ngrams);
      const size_t uni = a.sorted_ngrams.size() + b.sorted_ngrams.size() - inter;
      return uni == 0 ? 1.0
                      : static_cast<double>(inter) / static_cast<double>(uni);
    }
    case MetricKind::kLcs:
      return missing ? kMissingMetric : LcsRatioFast(a.raw, b.raw, scratch);
    case MetricKind::kCosineTfIdf:
      if (missing) return kMissingMetric;
      return idf_[spec.attribute] ? PreparedCosineTfIdf(a, b) : kMissingMetric;
    case MetricKind::kMongeElkan:
      return missing ? kMissingMetric : PreparedMongeElkan(a, b, scratch);
    case MetricKind::kOverlap: {
      if (missing) return kMissingMetric;
      if (a.sorted_tokens.empty() && b.sorted_tokens.empty()) return 1.0;
      if (a.sorted_tokens.empty() || b.sorted_tokens.empty()) return 0.0;
      const size_t inter =
          SortedIntersectionCount(a.sorted_tokens, b.sorted_tokens);
      return static_cast<double>(inter) /
             static_cast<double>(
                 std::min(a.sorted_tokens.size(), b.sorted_tokens.size()));
    }
    case MetricKind::kContainment: {
      if (missing) return kMissingMetric;
      if (a.sorted_tokens.empty()) return 1.0;
      const size_t inter =
          SortedIntersectionCount(a.sorted_tokens, b.sorted_tokens);
      return static_cast<double>(inter) /
             static_cast<double>(a.sorted_tokens.size());
    }
    case MetricKind::kNumericSim: {
      if (!a.num_ok || !b.num_ok) return kMissingMetric;
      const double denom =
          std::max({std::fabs(a.num), std::fabs(b.num), 1.0});
      return std::max(0.0, 1.0 - std::fabs(a.num - b.num) / denom);
    }
    case MetricKind::kExact:
      return missing ? kMissingMetric : (a.norm == b.norm ? 1.0 : 0.0);
    case MetricKind::kNonSubstring:
      if (missing) return kMissingMetric;
      return Contains(a.norm, b.norm) || Contains(b.norm, a.norm) ? 0.0 : 1.0;
    case MetricKind::kNonPrefix:
      if (missing) return kMissingMetric;
      return StartsWith(a.norm, b.norm) || StartsWith(b.norm, a.norm) ? 0.0
                                                                      : 1.0;
    case MetricKind::kNonSuffix:
      if (missing) return kMissingMetric;
      return EndsWith(a.norm, b.norm) || EndsWith(b.norm, a.norm) ? 0.0 : 1.0;
    case MetricKind::kAbbrNonSubstring: {
      if (missing) return kMissingMetric;
      const bool related = Contains(b.norm, a.abbr) ||
                           Contains(a.norm, b.abbr) ||
                           Contains(b.abbr, a.abbr) ||
                           Contains(a.abbr, b.abbr);
      return related ? 0.0 : 1.0;
    }
    case MetricKind::kAbbrNonPrefix:
      if (missing) return kMissingMetric;
      if (a.abbr.empty() || b.abbr.empty()) return kMissingMetric;
      return StartsWith(a.abbr, b.abbr) || StartsWith(b.abbr, a.abbr) ? 0.0
                                                                      : 1.0;
    case MetricKind::kAbbrNonSuffix:
      if (missing) return kMissingMetric;
      if (a.abbr.empty() || b.abbr.empty()) return kMissingMetric;
      return EndsWith(a.abbr, b.abbr) || EndsWith(b.abbr, a.abbr) ? 0.0 : 1.0;
    case MetricKind::kDiffCardinality:
      if (missing) return kMissingMetric;
      return a.entities.size() != b.entities.size() ? 1.0 : 0.0;
    case MetricKind::kDistinctEntity: {
      if (missing) return kMissingMetric;
      const double count = PreparedDistinctEntityCount(a, b, scratch);
      const double total =
          static_cast<double>(a.entities.size() + b.entities.size());
      return total == 0.0 ? 0.0 : count / total;
    }
    case MetricKind::kDiffKeyToken: {
      if (idf_[spec.attribute] == nullptr) return kMissingMetric;
      if (missing) return kMissingMetric;
      const double count =
          static_cast<double>(SortedAbsentCount(a.key_tokens, b.sorted_tokens) +
                              SortedAbsentCount(b.key_tokens, a.sorted_tokens));
      return count / (count + 1.0);
    }
    case MetricKind::kNumericUnequal:
      if (!a.num_ok || !b.num_ok) return kMissingMetric;
      return a.num == b.num ? 0.0 : 1.0;
    case MetricKind::kNotEqual:
      return missing ? kMissingMetric : 1.0 - (a.norm == b.norm ? 1.0 : 0.0);
  }
  return kMissingMetric;
}

void MetricSuite::EvaluatePairPreparedInto(const PreparedRecord& left,
                                           const PreparedRecord& right,
                                           MetricScratch* scratch,
                                           double* out) const {
  for (size_t m = 0; m < specs_.size(); ++m) {
    out[m] = EvaluatePrepared(left, right, m, scratch);
  }
}

FeatureMatrix ComputeFeatures(const Workload& workload,
                              const MetricSuite& suite) {
  FeatureMatrix matrix(workload.size(), suite.num_metrics());
  matrix.column_names = suite.MetricNames();
  const Table& left_table = workload.left();
  const Table& right_table = workload.right();
  const bool shared_table = &left_table == &right_table;

  // Prepare each referenced record once (a Subset workload can reference a
  // small slice of large shared tables, so only pair-referenced records pay).
  std::vector<PreparedRecord> left_prepared(left_table.num_records());
  std::vector<PreparedRecord> right_prepared(
      shared_table ? 0 : right_table.num_records());
  std::vector<size_t> left_used;
  std::vector<size_t> right_used;
  {
    std::vector<uint8_t> left_seen(left_table.num_records(), 0);
    std::vector<uint8_t> right_seen(
        shared_table ? 0 : right_table.num_records(), 0);
    std::vector<uint8_t>& right_seen_ref =
        shared_table ? left_seen : right_seen;
    for (const RecordPair& pair : workload.pairs()) {
      if (!left_seen[pair.left]) {
        left_seen[pair.left] = 1;
        left_used.push_back(pair.left);
      }
      if (!right_seen_ref[pair.right]) {
        right_seen_ref[pair.right] = 1;
        (shared_table ? left_used : right_used).push_back(pair.right);
      }
    }
  }
  ParallelFor(left_used.size() + right_used.size(), [&](size_t i) {
    if (i < left_used.size()) {
      const size_t r = left_used[i];
      left_prepared[r] = suite.PrepareRecord(left_table.record(r));
    } else {
      const size_t r = right_used[i - left_used.size()];
      right_prepared[r] = suite.PrepareRecord(right_table.record(r));
    }
  });
  const std::vector<PreparedRecord>& right_side =
      shared_table ? left_prepared : right_prepared;

  ParallelForRange(workload.size(), [&](size_t begin, size_t end) {
    MetricScratch scratch;
    for (size_t i = begin; i < end; ++i) {
      const RecordPair& pair = workload.pair(i);
      suite.EvaluatePairPreparedInto(left_prepared[pair.left],
                                     right_side[pair.right], &scratch,
                                     matrix.mutable_row(i));
    }
  });
  return matrix;
}

}  // namespace learnrisk
