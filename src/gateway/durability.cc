// Copyright 2026 The LearnRisk Authors

#include "gateway/durability.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#ifndef _WIN32
#include <unistd.h>
#endif

namespace learnrisk {
namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestTmpName[] = "MANIFEST.tmp";
constexpr char kManifestHeader[] = "learnrisk-namespace-manifest v1";
constexpr char kSegmentHeader[] = "learnrisk-seg v1\n";
constexpr char kReviewSegmentHeader[] = "learnrisk-rev v1\n";
constexpr char kWalHeader[] = "learnrisk-wal v1\n";

// WAL frame payload discriminator (payload byte 0). Record frames predate
// the review kinds, so their two values double as the blocking side.
constexpr char kPayloadRecordLeft = '\0';
constexpr char kPayloadRecordRight = '\1';
constexpr char kPayloadReviewOffer = '\2';
constexpr char kPayloadReviewDrain = '\3';
constexpr char kPayloadReviewLabel = '\4';
// A single record entry can't plausibly exceed this; a "valid" length above
// it is treated as tail corruption rather than allocated.
constexpr uint32_t kMaxFramePayload = 1u << 30;

// --- Little-endian integer framing (byte shifts: host-endian agnostic). ----

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutI64(std::string* out, int64_t v) { PutU64(out, static_cast<uint64_t>(v)); }

void PutBytes(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

// Cursor-style readers: advance *p, fail when fewer than the needed bytes
// remain before `end`.
bool GetU32(const char** p, const char* end, uint32_t* v) {
  if (end - *p < 4) return false;
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<unsigned char>((*p)[i])) << (8 * i);
  }
  *p += 4;
  *v = out;
  return true;
}

bool GetU64(const char** p, const char* end, uint64_t* v) {
  if (end - *p < 8) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<unsigned char>((*p)[i])) << (8 * i);
  }
  *p += 8;
  *v = out;
  return true;
}

bool GetI64(const char** p, const char* end, int64_t* v) {
  uint64_t u = 0;
  if (!GetU64(p, end, &u)) return false;
  *v = static_cast<int64_t>(u);
  return true;
}

bool GetBytes(const char** p, const char* end, std::string* s) {
  uint32_t n = 0;
  if (!GetU32(p, end, &n)) return false;
  if (static_cast<size_t>(end - *p) < n) return false;
  s->assign(*p, n);
  *p += n;
  return true;
}

// --- Record payloads (shared by WAL frames and checkpoint segments). -------

void EncodeRecord(std::string* out, const Record& record, int64_t entity_id) {
  PutI64(out, entity_id);
  PutU32(out, static_cast<uint32_t>(record.values.size()));
  for (const std::string& v : record.values) PutBytes(out, v);
}

bool DecodeRecord(const char** p, const char* end, Record* record,
                  int64_t* entity_id) {
  uint32_t width = 0;
  if (!GetI64(p, end, entity_id) || !GetU32(p, end, &width)) return false;
  // Each value carries at least its length prefix: a width larger than the
  // remaining bytes allow is corruption, rejected before the reserve so a
  // corrupt-but-checksummed payload cannot force a huge allocation.
  if (width > static_cast<uint64_t>(end - *p) / sizeof(uint32_t)) return false;
  record->values.clear();
  record->values.reserve(width);
  for (uint32_t i = 0; i < width; ++i) {
    std::string v;
    if (!GetBytes(p, end, &v)) return false;
    record->values.push_back(std::move(v));
  }
  return true;
}

// --- Review payloads (WAL frames and the checkpoint review segment). -------
// Doubles travel as their IEEE-754 bit pattern so replay reproduces risk
// ordering bit-exactly.

void PutF64(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

bool GetF64(const char** p, const char* end, double* v) {
  uint64_t bits = 0;
  if (!GetU64(p, end, &bits)) return false;
  std::memcpy(v, &bits, sizeof(bits));
  return true;
}

void EncodeReviewItem(std::string* out, const ReviewItem& item) {
  PutI64(out, item.left);
  PutI64(out, item.right);
  PutF64(out, item.risk);
  PutF64(out, item.classifier_prob);
  out->push_back(static_cast<char>(item.machine_label));
  PutU64(out, item.model_version);
  PutU64(out, item.request_id);
  PutU32(out, static_cast<uint32_t>(item.features.size()));
  for (double f : item.features) PutF64(out, f);
}

bool DecodeReviewItem(const char** p, const char* end, ReviewItem* item) {
  uint32_t width = 0;
  if (!GetI64(p, end, &item->left) || !GetI64(p, end, &item->right) ||
      !GetF64(p, end, &item->risk) ||
      !GetF64(p, end, &item->classifier_prob)) {
    return false;
  }
  if (*p == end) return false;
  item->machine_label = static_cast<uint8_t>(*(*p)++);
  if (!GetU64(p, end, &item->model_version) ||
      !GetU64(p, end, &item->request_id) || !GetU32(p, end, &width)) {
    return false;
  }
  // Every feature is 8 payload bytes: bound the width by what the payload
  // can actually hold before reserving, so a corrupt-but-CRC-consistent
  // frame cannot force a multi-GB transient allocation.
  if (width > static_cast<uint64_t>(end - *p) / sizeof(uint64_t)) return false;
  item->features.clear();
  item->features.reserve(width);
  for (uint32_t i = 0; i < width; ++i) {
    double f = 0;
    if (!GetF64(p, end, &f)) return false;
    item->features.push_back(f);
  }
  return true;
}

// Review WAL event payload: kind byte, then the full item (offers) or the
// pair key (drains; labels add the truth byte).
std::string EncodeReviewEvent(const ReviewWalEvent& event) {
  std::string payload;
  switch (event.kind) {
    case ReviewWalEvent::Kind::kOffer:
      payload.push_back(kPayloadReviewOffer);
      EncodeReviewItem(&payload, event.item);
      break;
    case ReviewWalEvent::Kind::kDrain:
      payload.push_back(kPayloadReviewDrain);
      PutI64(&payload, event.item.left);
      PutI64(&payload, event.item.right);
      break;
    case ReviewWalEvent::Kind::kLabel:
      payload.push_back(kPayloadReviewLabel);
      PutI64(&payload, event.item.left);
      PutI64(&payload, event.item.right);
      payload.push_back(static_cast<char>(event.truth));
      break;
  }
  return payload;
}

// Decodes the payload *after* the kind byte; `kind` is that byte.
bool DecodeReviewEvent(char kind, const char** p, const char* end,
                       ReviewWalEvent* event) {
  if (kind == kPayloadReviewOffer) {
    event->kind = ReviewWalEvent::Kind::kOffer;
    return DecodeReviewItem(p, end, &event->item);
  }
  if (!GetI64(p, end, &event->item.left) ||
      !GetI64(p, end, &event->item.right)) {
    return false;
  }
  if (kind == kPayloadReviewDrain) {
    event->kind = ReviewWalEvent::Kind::kDrain;
    return true;
  }
  event->kind = ReviewWalEvent::Kind::kLabel;
  if (*p == end) return false;
  event->truth = static_cast<uint8_t>(*(*p)++);
  return true;
}

Status EnsureDirectory(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create directory '" + dir +
                           "': " + ec.message());
  }
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::IOError("error reading '" + path + "'");
  return buf.str();
}

// Schema fingerprint recorded in the manifest: "name:type" per attribute,
// spaces in names folded to '_' (the fingerprint only needs to be
// comparable, not reversible).
std::string SchemaFingerprint(const Schema& schema) {
  std::ostringstream out;
  out << schema.num_attributes();
  for (const Attribute& attr : schema.attributes()) {
    std::string name = attr.name;
    for (char& c : name) {
      if (c == ' ' || c == '\n') c = '_';
    }
    out << ' ' << name << ':' << static_cast<int>(attr.type);
  }
  return out.str();
}

std::string SegmentFileName(uint64_t id, bool left) {
  return "ckpt_" + std::to_string(id) + (left ? "_left.seg" : "_right.seg");
}

std::string ModelFileName(uint64_t id) {
  return "model_" + std::to_string(id) + ".model";
}

std::string WalFileName(uint64_t id) {
  return "wal_" + std::to_string(id) + ".log";
}

std::string ReviewSegmentFileName(uint64_t id) {
  return "ckpt_" + std::to_string(id) + "_review.seg";
}

// Parsed manifest contents (paths are file names relative to the namespace
// directory).
struct Manifest {
  uint64_t checkpoint_id = 0;
  bool dedup = false;
  std::string schema_fingerprint;
  std::string left_file;
  size_t left_records = 0;
  std::string right_file;
  size_t right_records = 0;
  std::string model_file;
  uint64_t model_version = 0;
  std::string wal_file;
  std::string review_file;  ///< empty = no review state at checkpoint time
  size_t review_queued = 0;
  size_t review_outstanding = 0;
  size_t review_labeled = 0;
};

std::string SerializeManifest(const Manifest& m) {
  std::ostringstream body;
  body << kManifestHeader << "\n";
  body << "checkpoint " << m.checkpoint_id << "\n";
  body << "dedup " << (m.dedup ? 1 : 0) << "\n";
  body << "schema " << m.schema_fingerprint << "\n";
  body << "left " << m.left_file << " " << m.left_records << "\n";
  if (!m.dedup) {
    body << "right " << m.right_file << " " << m.right_records << "\n";
  }
  if (m.model_version > 0) {
    body << "model " << m.model_file << " " << m.model_version << "\n";
  }
  if (!m.review_file.empty()) {
    body << "review " << m.review_file << " " << m.review_queued << " "
         << m.review_outstanding << " " << m.review_labeled << "\n";
  }
  body << "wal " << m.wal_file << "\n";
  std::string text = body.str();
  char crc_line[32];
  std::snprintf(crc_line, sizeof(crc_line), "crc %08x\n",
                Crc32(text.data(), text.size()));
  return text + crc_line;
}

Result<Manifest> ParseManifest(const std::string& text,
                               const std::string& path) {
  // The last line must be the CRC trailer over everything before it.
  const size_t crc_pos = text.rfind("crc ");
  if (crc_pos == std::string::npos || (crc_pos != 0 && text[crc_pos - 1] != '\n')) {
    return Status::InvalidArgument("corrupt manifest '" + path +
                                   "': missing crc trailer");
  }
  uint32_t stored = 0;
  if (std::sscanf(text.c_str() + crc_pos, "crc %x", &stored) != 1) {
    return Status::InvalidArgument("corrupt manifest '" + path +
                                   "': unparseable crc trailer");
  }
  if (Crc32(text.data(), crc_pos) != stored) {
    return Status::InvalidArgument("corrupt manifest '" + path +
                                   "': body does not match its crc");
  }

  std::istringstream in(text.substr(0, crc_pos));
  std::string line;
  if (!std::getline(in, line) || line != kManifestHeader) {
    return Status::InvalidArgument("corrupt manifest '" + path +
                                   "': unrecognized header '" + line + "'");
  }
  Manifest m;
  bool saw_left = false;
  bool saw_wal = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    bool ok = true;
    if (tag == "checkpoint") {
      ok = static_cast<bool>(fields >> m.checkpoint_id);
    } else if (tag == "dedup") {
      int flag = 0;
      ok = static_cast<bool>(fields >> flag);
      m.dedup = flag != 0;
    } else if (tag == "schema") {
      std::getline(fields, m.schema_fingerprint);
      // Drop the separating space after the tag.
      if (!m.schema_fingerprint.empty() && m.schema_fingerprint.front() == ' ') {
        m.schema_fingerprint.erase(0, 1);
      }
    } else if (tag == "left") {
      ok = static_cast<bool>(fields >> m.left_file >> m.left_records);
      saw_left = ok;
    } else if (tag == "right") {
      ok = static_cast<bool>(fields >> m.right_file >> m.right_records);
    } else if (tag == "model") {
      ok = static_cast<bool>(fields >> m.model_file >> m.model_version);
    } else if (tag == "review") {
      ok = static_cast<bool>(fields >> m.review_file >> m.review_queued >>
                             m.review_outstanding >> m.review_labeled);
    } else if (tag == "wal") {
      ok = static_cast<bool>(fields >> m.wal_file);
      saw_wal = ok;
    } else {
      ok = false;
    }
    if (!ok) {
      return Status::InvalidArgument("corrupt manifest '" + path +
                                     "': malformed line '" + line + "'");
    }
  }
  if (m.checkpoint_id == 0 || !saw_left || !saw_wal) {
    return Status::InvalidArgument("corrupt manifest '" + path +
                                   "': missing checkpoint/left/wal record");
  }
  if (!m.dedup && m.right_file.empty()) {
    return Status::InvalidArgument("corrupt manifest '" + path +
                                   "': two-table manifest without a right "
                                   "segment");
  }
  return m;
}

// The framed-file layout shared by checkpoint and review segments: a
// header line, the payload size, the payload's CRC, then the payload.
std::string FrameFile(const char* header, const std::string& payload) {
  std::string out(header);
  PutU64(&out, payload.size());
  PutU32(&out, Crc32(payload.data(), payload.size()));
  out += payload;
  return out;
}

// Reads a file FrameFile wrote under `header` and checks that it exists and
// that its header, size and CRC hold. On success `*bytes` holds the file and
// `*payload` points at the payload, which runs to the end of `*bytes`. Every
// diagnostic names the file and its `kind`.
Status ReadFramedFile(const std::string& path, const char* header,
                      const std::string& kind, std::string* bytes,
                      const char** payload) {
  if (!std::filesystem::exists(path)) {
    return Status::IOError("manifest references missing " + kind + " '" +
                           path + "'");
  }
  Result<std::string> data = ReadFile(path);
  if (!data.ok()) return data.status();
  *bytes = data.MoveValueOrDie();
  const size_t header_len = std::strlen(header);
  if (bytes->size() < header_len ||
      bytes->compare(0, header_len, header) != 0) {
    return Status::IOError("corrupt " + kind + " '" + path + "': bad header");
  }
  const char* p = bytes->data() + header_len;
  const char* end = bytes->data() + bytes->size();
  uint64_t payload_size = 0;
  uint32_t stored_crc = 0;
  if (!GetU64(&p, end, &payload_size) || !GetU32(&p, end, &stored_crc) ||
      static_cast<uint64_t>(end - p) != payload_size) {
    return Status::IOError("corrupt " + kind + " '" + path +
                           "': truncated or oversized payload");
  }
  if (Crc32(p, payload_size) != stored_crc) {
    return Status::IOError("corrupt " + kind + " '" + path +
                           "': payload does not match its crc");
  }
  *payload = p;
  return Status::OK();
}

// Loads one checkpoint segment file into `table` (which carries the schema).
Status LoadSegmentFile(const std::string& path, size_t expected_records,
                       Table* table) {
  std::string bytes;
  const char* p = nullptr;
  LEARNRISK_RETURN_NOT_OK(
      ReadFramedFile(path, kSegmentHeader, "checkpoint segment", &bytes, &p));
  const char* end = bytes.data() + bytes.size();
  uint64_t num_records = 0;
  if (!GetU64(&p, end, &num_records) || num_records != expected_records) {
    return Status::IOError(
        "corrupt checkpoint segment '" + path +
        "': record count does not match the manifest");
  }
  for (uint64_t i = 0; i < num_records; ++i) {
    Record record;
    int64_t entity_id = -1;
    if (!DecodeRecord(&p, end, &record, &entity_id)) {
      return Status::IOError("corrupt checkpoint segment '" + path +
                             "': undecodable record " + std::to_string(i));
    }
    if (record.values.size() != table->schema().num_attributes()) {
      return Status::InvalidArgument(
          "checkpoint segment '" + path + "' record " + std::to_string(i) +
          " width does not match the namespace schema");
    }
    LEARNRISK_RETURN_NOT_OK(table->Append(std::move(record), entity_id));
  }
  return Status::OK();
}

void RemoveIfExists(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  // CRC-32/IEEE (reflected 0xEDB88320), table computed on first use.
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

NamespaceLog::~NamespaceLog() { CloseWal(); }

void NamespaceLog::CloseWal() {
  if (wal_ != nullptr) {
    std::fclose(wal_);
    wal_ = nullptr;
  }
}

Status NamespaceLog::OpenWal(const std::string& path) {
  CloseWal();
  wal_ = std::fopen(path.c_str(), "ab");
  if (wal_ == nullptr) {
    return Status::IOError("cannot open WAL '" + path + "' for appending");
  }
  wal_path_ = path;
  return Status::OK();
}

Status NamespaceLog::CrashPoint(const std::string& point) {
  if (hook_ && hook_(point)) {
    // Leave the partial bytes exactly as written — a killed process would —
    // and refuse all further IO from this incarnation.
    CloseWal();
    dead_ = true;
    return Status::IOError("simulated crash at '" + point + "'");
  }
  return Status::OK();
}

Result<std::unique_ptr<NamespaceLog>> NamespaceLog::Create(
    const DurabilityOptions& options, const std::string& ns) {
  const std::string ns_dir = options.dir + "/" + ns;
  LEARNRISK_RETURN_NOT_OK(EnsureDirectory(ns_dir));
  if (std::filesystem::exists(ns_dir + "/" + kManifestName)) {
    return Status::FailedPrecondition(
        "durable state already exists for namespace '" + ns +
        "'; recover it instead of re-registering");
  }
  // No committed manifest: anything present is debris from an interrupted
  // registration and can never be recovered — start clean.
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(ns_dir, ec)) {
    std::filesystem::remove_all(entry.path(), ec);
  }
  auto log = std::unique_ptr<NamespaceLog>(new NamespaceLog());
  log->ns_dir_ = ns_dir;
  log->hook_ = options.crash_hook;
  log->fsync_appends_ = options.fsync_appends;
  return log;
}

bool NamespaceLog::Exists(const std::string& dir, const std::string& ns) {
  return std::filesystem::exists(dir + "/" + ns + "/" + kManifestName);
}

Status NamespaceLog::Append(const WalEntry& entry) {
  std::string payload;
  payload.push_back(entry.side == BlockingSide::kLeft ? kPayloadRecordLeft
                                                      : kPayloadRecordRight);
  EncodeRecord(&payload, entry.record, entry.entity_id);
  return AppendFrame(payload);
}

Status NamespaceLog::AppendReview(const ReviewWalEvent& event) {
  return AppendFrame(EncodeReviewEvent(event));
}

Status NamespaceLog::AppendFrame(const std::string& payload) {
  if (dead_) {
    return Status::IOError("namespace log is dead after a simulated crash");
  }
  if (checkpoint_id_ == 0 || wal_ == nullptr) {
    return Status::Internal("WAL append before the first checkpoint");
  }
  std::string frame;
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, Crc32(payload.data(), payload.size()));
  frame += payload;

  LEARNRISK_RETURN_NOT_OK(CrashPoint("wal:before_append"));
  // Written in two flushed halves so the mid-append crash point leaves a
  // genuinely torn frame on disk.
  const size_t half = frame.size() / 2;
  if (std::fwrite(frame.data(), 1, half, wal_) != half ||
      std::fflush(wal_) != 0) {
    return Status::IOError("WAL write failed: " + wal_path_);
  }
  LEARNRISK_RETURN_NOT_OK(CrashPoint("wal:mid_append"));
  if (std::fwrite(frame.data() + half, 1, frame.size() - half, wal_) !=
          frame.size() - half ||
      std::fflush(wal_) != 0) {
    return Status::IOError("WAL write failed: " + wal_path_);
  }
#ifndef _WIN32
  if (fsync_appends_ && ::fsync(fileno(wal_)) != 0) {
    return Status::IOError("WAL fsync failed: " + wal_path_);
  }
  if (fsync_appends_ && metrics_.wal_fsyncs != nullptr) {
    metrics_.wal_fsyncs->Add(1);
  }
#endif
  LEARNRISK_RETURN_NOT_OK(CrashPoint("wal:after_append"));
  ++wal_entries_;
  if (metrics_.wal_appends != nullptr) metrics_.wal_appends->Add(1);
  if (metrics_.wal_append_bytes != nullptr) {
    metrics_.wal_append_bytes->Add(frame.size());
  }
  return Status::OK();
}

namespace {

// Serializes one table into the checkpoint segment format.
std::string EncodeSegment(const Table& table) {
  std::string payload;
  PutU64(&payload, table.num_records());
  for (size_t i = 0; i < table.num_records(); ++i) {
    EncodeRecord(&payload, table.record(i), table.entity_id(i));
  }
  return FrameFile(kSegmentHeader, payload);
}

// Serializes the review queue's checkpoint state (resident items, then
// outstanding items — each in enqueue order — then labeled items) with the
// same size+CRC framing as a table segment, under its own header.
std::string EncodeReviewSegment(const ReviewQueue::CheckpointState& state) {
  std::string payload;
  PutU64(&payload, state.queued.size());
  for (const ReviewItem& item : state.queued) {
    EncodeReviewItem(&payload, item);
  }
  PutU64(&payload, state.outstanding.size());
  for (const ReviewItem& item : state.outstanding) {
    EncodeReviewItem(&payload, item);
  }
  PutU64(&payload, state.labeled.size());
  for (const LabeledReview& label : state.labeled) {
    EncodeReviewItem(&payload, label.item);
    payload.push_back(static_cast<char>(label.truth));
  }
  return FrameFile(kReviewSegmentHeader, payload);
}

Status LoadReviewSegment(const std::string& path, size_t expected_queued,
                         size_t expected_outstanding, size_t expected_labeled,
                         std::vector<ReviewItem>* queued,
                         std::vector<ReviewItem>* outstanding,
                         std::vector<LabeledReview>* labeled) {
  std::string bytes;
  const char* p = nullptr;
  LEARNRISK_RETURN_NOT_OK(
      ReadFramedFile(path, kReviewSegmentHeader, "review segment", &bytes, &p));
  const char* end = bytes.data() + bytes.size();
  auto load_items = [&](const char* section, size_t expected,
                        std::vector<ReviewItem>* out) -> Status {
    uint64_t count = 0;
    if (!GetU64(&p, end, &count) || count != expected) {
      return Status::IOError("corrupt review segment '" + path + "': " +
                             section +
                             " count does not match the manifest");
    }
    out->clear();
    out->reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      ReviewItem item;
      if (!DecodeReviewItem(&p, end, &item)) {
        return Status::IOError("corrupt review segment '" + path +
                               "': undecodable " + section + " item " +
                               std::to_string(i));
      }
      out->push_back(std::move(item));
    }
    return Status::OK();
  };
  LEARNRISK_RETURN_NOT_OK(load_items("queued", expected_queued, queued));
  LEARNRISK_RETURN_NOT_OK(
      load_items("outstanding", expected_outstanding, outstanding));
  uint64_t num_labeled = 0;
  if (!GetU64(&p, end, &num_labeled) || num_labeled != expected_labeled) {
    return Status::IOError(
        "corrupt review segment '" + path +
        "': labeled count does not match the manifest");
  }
  labeled->clear();
  labeled->reserve(num_labeled);
  for (uint64_t i = 0; i < num_labeled; ++i) {
    LabeledReview label;
    if (!DecodeReviewItem(&p, end, &label.item) || p == end) {
      return Status::IOError("corrupt review segment '" + path +
                             "': undecodable labeled item " +
                             std::to_string(i));
    }
    label.truth = static_cast<uint8_t>(*p++);
    labeled->push_back(std::move(label));
  }
  if (p != end) {
    return Status::IOError("corrupt review segment '" + path +
                           "': trailing bytes after the labeled items");
  }
  return Status::OK();
}

}  // namespace

Status NamespaceLog::WriteCheckpoint(const Table& left, const Table* right,
                                     uint64_t model_version,
                                     const ModelSaver& save_model,
                                     const ReviewQueue::CheckpointState* review) {
  if (dead_) {
    return Status::IOError("namespace log is dead after a simulated crash");
  }
  const uint64_t id = checkpoint_id_ + 1;

  // 1. Immutable checkpoint segments. The left file is written in two
  //    flushed halves so the mid-segment crash point leaves a torn file —
  //    which the manifest never references, so recovery ignores it.
  auto write_file = [this](const std::string& path, const std::string& bytes,
                           const char* mid_point) -> Status {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open '" + path + "' for writing");
    const size_t half = mid_point != nullptr ? bytes.size() / 2 : bytes.size();
    out.write(bytes.data(), static_cast<std::streamsize>(half));
    out.flush();
    if (mid_point != nullptr) {
      LEARNRISK_RETURN_NOT_OK(CrashPoint(mid_point));
      out.write(bytes.data() + half,
                static_cast<std::streamsize>(bytes.size() - half));
    }
    out.close();
    if (!out) return Status::IOError("error writing '" + path + "'");
    return Status::OK();
  };

  Manifest m;
  m.checkpoint_id = id;
  m.dedup = right == nullptr;
  m.schema_fingerprint = SchemaFingerprint(left.schema());
  m.left_file = SegmentFileName(id, true);
  m.left_records = left.num_records();
  size_t segment_bytes = 0;
  {
    const std::string segment = EncodeSegment(left);
    segment_bytes += segment.size();
    LEARNRISK_RETURN_NOT_OK(write_file(ns_dir_ + "/" + m.left_file, segment,
                                       "checkpoint:mid_segment"));
  }
  if (right != nullptr) {
    m.right_file = SegmentFileName(id, false);
    m.right_records = right->num_records();
    const std::string segment = EncodeSegment(*right);
    segment_bytes += segment.size();
    LEARNRISK_RETURN_NOT_OK(
        write_file(ns_dir_ + "/" + m.right_file, segment, nullptr));
  }

  // 2. Model file (the served model at checkpoint time, if any).
  if (model_version > 0 && save_model != nullptr) {
    m.model_file = ModelFileName(id);
    m.model_version = model_version;
    LEARNRISK_RETURN_NOT_OK(save_model(ns_dir_ + "/" + m.model_file));
  }

  // 2b. Review segment: the queue's unlabeled items and collected labels at
  //     checkpoint time. Written even when both are empty so recovery can
  //     tell "review enabled, queue empty" from "no review state".
  if (review != nullptr) {
    m.review_file = ReviewSegmentFileName(id);
    m.review_queued = review->queued.size();
    m.review_outstanding = review->outstanding.size();
    m.review_labeled = review->labeled.size();
    const std::string segment = EncodeReviewSegment(*review);
    segment_bytes += segment.size();
    LEARNRISK_RETURN_NOT_OK(
        write_file(ns_dir_ + "/" + m.review_file, segment, nullptr));
  }

  // 3. Fresh (empty) WAL for the new checkpoint, created before the swap so
  //    the committed manifest never references a missing file.
  m.wal_file = WalFileName(id);
  LEARNRISK_RETURN_NOT_OK(
      write_file(ns_dir_ + "/" + m.wal_file, kWalHeader, nullptr));

  // 4. Manifest swap — the commit point. The temp file is written in two
  //    flushed halves (mid-manifest crash = torn MANIFEST.tmp, committed
  //    MANIFEST untouched), then renamed atomically over MANIFEST.
  const std::string tmp = ns_dir_ + "/" + kManifestTmpName;
  LEARNRISK_RETURN_NOT_OK(
      write_file(tmp, SerializeManifest(m), "checkpoint:mid_manifest"));
  LEARNRISK_RETURN_NOT_OK(CrashPoint("manifest:before_swap"));
  std::error_code ec;
  std::filesystem::rename(tmp, ns_dir_ + "/" + kManifestName, ec);
  if (ec) {
    return Status::IOError("cannot swap manifest in '" + ns_dir_ +
                           "': " + ec.message());
  }
  LEARNRISK_RETURN_NOT_OK(CrashPoint("manifest:after_swap"));

  // 5. The old checkpoint is now unreferenced; delete it (best effort — a
  //    crash here just leaves orphans that the next checkpoint removes).
  const uint64_t old = checkpoint_id_;
  if (old > 0) {
    RemoveIfExists(ns_dir_ + "/" + SegmentFileName(old, true));
    RemoveIfExists(ns_dir_ + "/" + SegmentFileName(old, false));
    RemoveIfExists(ns_dir_ + "/" + ModelFileName(old));
    RemoveIfExists(ns_dir_ + "/" + ReviewSegmentFileName(old));
    RemoveIfExists(ns_dir_ + "/" + WalFileName(old));
  }

  LEARNRISK_RETURN_NOT_OK(OpenWal(ns_dir_ + "/" + m.wal_file));
  checkpoint_id_ = id;
  wal_entries_ = 0;
  if (metrics_.checkpoints != nullptr) metrics_.checkpoints->Add(1);
  if (metrics_.checkpoint_bytes != nullptr) {
    metrics_.checkpoint_bytes->Add(segment_bytes);
  }
  if (metrics_.checkpoint_records != nullptr) {
    metrics_.checkpoint_records->Add(m.left_records + m.right_records);
  }
  return Status::OK();
}

Result<std::unique_ptr<NamespaceLog>> NamespaceLog::Recover(
    const DurabilityOptions& options, const std::string& ns,
    const Schema& schema, RecoveredNamespace* recovered) {
  const std::string ns_dir = options.dir + "/" + ns;
  const std::string manifest_path = ns_dir + "/" + kManifestName;
  if (!std::filesystem::exists(manifest_path)) {
    return Status::NotFound("no durable state for namespace '" + ns +
                            "' under '" + options.dir + "'");
  }
  Result<std::string> manifest_text = ReadFile(manifest_path);
  if (!manifest_text.ok()) return manifest_text.status();
  Result<Manifest> parsed = ParseManifest(*manifest_text, manifest_path);
  if (!parsed.ok()) return parsed.status();
  const Manifest& m = *parsed;

  if (m.schema_fingerprint != SchemaFingerprint(schema)) {
    return Status::InvalidArgument(
        "manifest schema fingerprint does not match the caller's schema for "
        "namespace '" + ns + "' (expected '" + SchemaFingerprint(schema) +
        "', manifest has '" + m.schema_fingerprint + "')");
  }

  RecoveredNamespace out;
  out.dedup = m.dedup;
  out.checkpoint_id = m.checkpoint_id;
  out.model_version = m.model_version;
  if (m.model_version > 0) {
    out.model_path = ns_dir + "/" + m.model_file;
    if (!std::filesystem::exists(out.model_path)) {
      return Status::IOError("manifest references missing model file '" +
                             out.model_path + "'");
    }
  }
  out.left = Table(schema);
  out.right = Table(schema);
  LEARNRISK_RETURN_NOT_OK(
      LoadSegmentFile(ns_dir + "/" + m.left_file, m.left_records, &out.left));
  if (!m.dedup) {
    LEARNRISK_RETURN_NOT_OK(LoadSegmentFile(ns_dir + "/" + m.right_file,
                                            m.right_records, &out.right));
  }
  out.checkpoint_records = m.left_records + (m.dedup ? 0 : m.right_records);
  if (!m.review_file.empty()) {
    LEARNRISK_RETURN_NOT_OK(LoadReviewSegment(
        ns_dir + "/" + m.review_file, m.review_queued, m.review_outstanding,
        m.review_labeled, &out.review_queued, &out.review_outstanding,
        &out.review_labeled));
  }

  // WAL tail replay. The first frame that is torn (not enough bytes), has an
  // implausible length, or fails its checksum ends the replay: everything
  // from that offset on is discarded and truncated away, so the next append
  // extends a fully valid prefix.
  const std::string wal_path = ns_dir + "/" + m.wal_file;
  if (!std::filesystem::exists(wal_path)) {
    return Status::IOError("manifest references missing WAL file '" +
                           wal_path + "'");
  }
  Result<std::string> wal_data = ReadFile(wal_path);
  if (!wal_data.ok()) return wal_data.status();
  const std::string& bytes = *wal_data;
  const size_t header_len = std::strlen(kWalHeader);
  if (bytes.size() < header_len ||
      bytes.compare(0, header_len, kWalHeader) != 0) {
    return Status::IOError("corrupt WAL '" + wal_path + "': bad header");
  }
  size_t valid_end = header_len;
  const char* base = bytes.data();
  const char* end = base + bytes.size();
  const char* p = base + header_len;
  while (p < end) {
    uint32_t payload_size = 0;
    uint32_t stored_crc = 0;
    if (!GetU32(&p, end, &payload_size) || !GetU32(&p, end, &stored_crc) ||
        payload_size > kMaxFramePayload ||
        static_cast<size_t>(end - p) < payload_size) {
      break;  // torn tail
    }
    if (Crc32(p, payload_size) != stored_crc) break;  // corrupt tail
    const char* payload_end = p + payload_size;
    if (p == payload_end) break;  // empty payload: corrupt
    const char kind_byte = *p++;
    if (kind_byte == kPayloadReviewOffer || kind_byte == kPayloadReviewDrain ||
        kind_byte == kPayloadReviewLabel) {
      ReviewWalEvent event;
      if (!DecodeReviewEvent(kind_byte, &p, payload_end, &event) ||
          p != payload_end) {
        break;  // checksummed but undecodable: treat as tail corruption
      }
      out.review_events.push_back(std::move(event));
    } else {
      Record record;
      int64_t entity_id = -1;
      if (!DecodeRecord(&p, payload_end, &record, &entity_id) ||
          p != payload_end) {
        break;  // checksummed but undecodable: treat as tail corruption
      }
      if (record.values.size() != schema.num_attributes()) {
        return Status::InvalidArgument(
            "WAL '" + wal_path + "' entry " +
            std::to_string(out.wal_entries_replayed) +
            " width does not match the namespace schema");
      }
      Table* target =
          (m.dedup || kind_byte == kPayloadRecordLeft) ? &out.left : &out.right;
      LEARNRISK_RETURN_NOT_OK(target->Append(std::move(record), entity_id));
    }
    ++out.wal_entries_replayed;
    valid_end = static_cast<size_t>(p - base);
  }
  out.wal_bytes_discarded = bytes.size() - valid_end;
  if (out.wal_bytes_discarded > 0) {
    std::error_code ec;
    std::filesystem::resize_file(wal_path, valid_end, ec);
    if (ec) {
      return Status::IOError("cannot truncate torn WAL tail of '" + wal_path +
                             "': " + ec.message());
    }
  }

  auto log = std::unique_ptr<NamespaceLog>(new NamespaceLog());
  log->ns_dir_ = ns_dir;
  log->hook_ = options.crash_hook;
  log->fsync_appends_ = options.fsync_appends;
  log->checkpoint_id_ = m.checkpoint_id;
  log->wal_entries_ = out.wal_entries_replayed;
  LEARNRISK_RETURN_NOT_OK(log->OpenWal(wal_path));
  // Clean up unreferenced debris: a crash-interrupted later checkpoint
  // (files of id+1, torn MANIFEST.tmp) and a superseded earlier one whose
  // post-swap cleanup never ran (files of id-1). Neither is referenced by
  // the committed manifest.
  RemoveIfExists(ns_dir + "/" + kManifestTmpName);
  for (const uint64_t other :
       {m.checkpoint_id + 1, m.checkpoint_id - 1}) {
    if (other == 0 || other == m.checkpoint_id) continue;
    RemoveIfExists(ns_dir + "/" + SegmentFileName(other, true));
    RemoveIfExists(ns_dir + "/" + SegmentFileName(other, false));
    RemoveIfExists(ns_dir + "/" + ModelFileName(other));
    RemoveIfExists(ns_dir + "/" + ReviewSegmentFileName(other));
    RemoveIfExists(ns_dir + "/" + WalFileName(other));
  }
  *recovered = std::move(out);
  return log;
}

}  // namespace learnrisk
