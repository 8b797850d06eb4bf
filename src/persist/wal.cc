#include "persist/wal.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <optional>

#include <unistd.h>

#include "persist/codec.h"
#include "persist/crc32.h"
#include "persist/file_util.h"
#include "util/metrics.h"
#include "util/str_format.h"

namespace magicrecs {
namespace {

namespace fs = std::filesystem;
using persist::ByteReader;
using persist::Crc32c;
using persist::MaskCrc;
using persist::UnmaskCrc;

constexpr char kSegmentMagic[8] = {'M', 'R', 'W', 'A', 'L', '0', '0', '1'};
constexpr size_t kSegmentHeaderBytes = sizeof(kSegmentMagic);
// src:u32 dst:u32 created_at:i64 action:u8 sequence:u64
constexpr size_t kPayloadBytes = 4 + 4 + 8 + 1 + 8;
constexpr size_t kFrameOverhead = 4 + 4;  // payload_len + masked crc

std::string SegmentPath(const std::string& dir, uint64_t index) {
  return dir + StrFormat("/wal-%06llu.log", static_cast<unsigned long long>(index));
}

std::optional<uint64_t> ParseSegmentIndex(const std::string& filename) {
  // wal-NNNNNN.log
  if (filename.size() < 9 || filename.rfind("wal-", 0) != 0) return std::nullopt;
  const size_t dot = filename.rfind(".log");
  if (dot == std::string::npos || dot <= 4) return std::nullopt;
  uint64_t index = 0;
  for (size_t i = 4; i < dot; ++i) {
    if (filename[i] < '0' || filename[i] > '9') return std::nullopt;
    index = index * 10 + static_cast<uint64_t>(filename[i] - '0');
  }
  return index;
}

void EncodeRecord(const EdgeEvent& event, std::string* out) {
  using persist::PutI64;
  using persist::PutU32;
  using persist::PutU64;
  using persist::PutU8;
  out->clear();
  PutU32(out, static_cast<uint32_t>(kPayloadBytes));
  PutU32(out, 0);  // crc placeholder
  PutU32(out, event.edge.src);
  PutU32(out, event.edge.dst);
  PutI64(out, event.edge.created_at);
  PutU8(out, static_cast<uint8_t>(event.action));
  PutU64(out, event.sequence);
  const uint32_t crc =
      MaskCrc(Crc32c(out->data() + kFrameOverhead, kPayloadBytes));
  std::memcpy(out->data() + 4, &crc, sizeof(crc));
}

enum class DecodeOutcome { kOk, kInvalid };

/// Decodes one record at the reader's cursor. kInvalid means a torn or
/// corrupt record: the reader is left where decoding began, so callers can
/// report the exact valid-prefix length.
DecodeOutcome DecodeRecord(ByteReader* reader, EdgeEvent* event) {
  ByteReader probe = *reader;
  uint32_t payload_len = 0;
  uint32_t masked_crc = 0;
  if (!probe.GetU32(&payload_len) || !probe.GetU32(&masked_crc)) {
    return DecodeOutcome::kInvalid;  // torn frame header
  }
  if (payload_len < kPayloadBytes || probe.remaining() < payload_len) {
    return DecodeOutcome::kInvalid;  // torn or nonsensical payload
  }
  const uint8_t* payload = probe.cursor();
  if (Crc32c(payload, payload_len) != UnmaskCrc(masked_crc)) {
    return DecodeOutcome::kInvalid;  // bit rot or partial overwrite
  }
  ByteReader fields(payload, payload_len);
  uint8_t action = 0;
  fields.GetU32(&event->edge.src);
  fields.GetU32(&event->edge.dst);
  fields.GetI64(&event->edge.created_at);
  fields.GetU8(&action);
  fields.GetU64(&event->sequence);
  event->action = static_cast<ActionType>(action);
  probe.Skip(payload_len);
  *reader = probe;
  return DecodeOutcome::kOk;
}

using persist::ReadFileToString;

/// Sequence of the first valid record in a segment, nullopt if the segment
/// has no decodable record.
std::optional<uint64_t> FirstSequenceOf(const std::string& path) {
  auto contents = ReadFileToString(path);
  if (!contents.ok() || contents->size() < kSegmentHeaderBytes) {
    return std::nullopt;
  }
  if (std::memcmp(contents->data(), kSegmentMagic, kSegmentHeaderBytes) != 0) {
    return std::nullopt;
  }
  ByteReader reader(
      reinterpret_cast<const uint8_t*>(contents->data()) + kSegmentHeaderBytes,
      contents->size() - kSegmentHeaderBytes);
  EdgeEvent event;
  if (DecodeRecord(&reader, &event) != DecodeOutcome::kOk) return std::nullopt;
  return event.sequence;
}

/// Sequence of the last valid record in a segment, nullopt if none.
std::optional<uint64_t> LastSequenceOf(const std::string& path) {
  auto contents = ReadFileToString(path);
  if (!contents.ok() || contents->size() < kSegmentHeaderBytes ||
      std::memcmp(contents->data(), kSegmentMagic, kSegmentHeaderBytes) != 0) {
    return std::nullopt;
  }
  ByteReader reader(
      reinterpret_cast<const uint8_t*>(contents->data()) + kSegmentHeaderBytes,
      contents->size() - kSegmentHeaderBytes);
  EdgeEvent event;
  std::optional<uint64_t> last;
  while (DecodeRecord(&reader, &event) == DecodeOutcome::kOk) {
    last = event.sequence;
  }
  return last;
}

}  // namespace

std::vector<std::string> ListWalSegments(const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> indexed;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const auto index = ParseSegmentIndex(entry.path().filename().string());
    if (index.has_value()) indexed.emplace_back(*index, entry.path().string());
  }
  std::sort(indexed.begin(), indexed.end());
  std::vector<std::string> paths;
  paths.reserve(indexed.size());
  for (auto& [index, path] : indexed) paths.push_back(std::move(path));
  return paths;
}

// --- WalWriter ---------------------------------------------------------------

Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    const PersistOptions& options) {
  if (!options.enabled()) {
    return Status::InvalidArgument("PersistOptions.dir must be non-empty");
  }
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::Internal(StrFormat("create_directories %s: %s",
                                      options.dir.c_str(),
                                      ec.message().c_str()));
  }

  std::unique_ptr<WalWriter> writer(new WalWriter(options));
  MetricsRegistry* registry = MetricsRegistry::Default();
  writer->records_metric_ = registry->GetCounter("wal_records_appended");
  writer->fsyncs_metric_ = registry->GetCounter("wal_fsyncs");
  writer->segments_metric_ = registry->GetCounter("wal_segments_created");
  writer->group_commit_metric_ =
      registry->GetHistogram("wal_group_commit_batch");
  const std::vector<std::string> segments = ListWalSegments(options.dir);
  if (segments.empty()) {
    MAGICRECS_RETURN_IF_ERROR(writer->OpenSegment(1));
    return writer;
  }

  // Where must sequence assignment resume? The newest segment holding a
  // valid record ends with the log's maximum sequence (appends are ordered).
  for (auto it = segments.rbegin(); it != segments.rend(); ++it) {
    if (const auto last_seq = LastSequenceOf(*it)) {
      writer->recovered_next_sequence_ = *last_seq + 1;
      break;
    }
  }

  // Resume the last segment: find the valid record prefix, truncate any torn
  // tail away, and append after it.
  const std::string& last = segments.back();
  const auto index = ParseSegmentIndex(fs::path(last).filename().string());
  MAGICRECS_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(last));
  size_t valid = 0;
  if (contents.size() >= kSegmentHeaderBytes &&
      std::memcmp(contents.data(), kSegmentMagic, kSegmentHeaderBytes) == 0) {
    ByteReader reader(
        reinterpret_cast<const uint8_t*>(contents.data()) + kSegmentHeaderBytes,
        contents.size() - kSegmentHeaderBytes);
    EdgeEvent event;
    while (DecodeRecord(&reader, &event) == DecodeOutcome::kOk) {
    }
    valid = kSegmentHeaderBytes + reader.position();
  }
  if (valid < kSegmentHeaderBytes) {
    // The header is torn, foreign or was never written (a crash right after
    // the segment was created leaves it empty); recreate the segment, or
    // the next record would land in a file replay cannot read.
    writer->stats_.tail_bytes_repaired = contents.size();
    MAGICRECS_RETURN_IF_ERROR(writer->OpenSegment(*index));
    return writer;
  }
  if (valid < contents.size()) {
    writer->stats_.tail_bytes_repaired = contents.size() - valid;
    fs::resize_file(last, valid, ec);
    if (ec) {
      return Status::Internal(StrFormat("resize_file %s: %s", last.c_str(),
                                        ec.message().c_str()));
    }
  }
  writer->file_ = std::fopen(last.c_str(), "ab");
  if (writer->file_ == nullptr) {
    return Status::Internal(
        StrFormat("open %s for append: %s", last.c_str(), std::strerror(errno)));
  }
  writer->segment_index_ = *index;
  writer->segment_bytes_ = valid;
  return writer;
}

WalWriter::~WalWriter() {
  const Status s = Close();
  (void)s;  // destructor cannot propagate; Close() reports via errno logging
}

Status WalWriter::OpenSegment(uint64_t index) {
  if (file_ != nullptr) {
    MAGICRECS_RETURN_IF_ERROR(Sync());
    std::fclose(file_);
    file_ = nullptr;
  }
  const std::string path = SegmentPath(options_.dir, index);
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::Internal(
        StrFormat("open %s: %s", path.c_str(), std::strerror(errno)));
  }
  if (std::fwrite(kSegmentMagic, 1, kSegmentHeaderBytes, file_) !=
      kSegmentHeaderBytes) {
    return Status::Internal(StrFormat("write header to %s failed", path.c_str()));
  }
  segment_index_ = index;
  segment_bytes_ = kSegmentHeaderBytes;
  ++stats_.segments_created;
  if (segments_metric_ != nullptr) segments_metric_->Increment();
  return Status::OK();
}

Status WalWriter::RotateIfNeeded() {
  if (segment_bytes_ < options_.wal_segment_bytes) return Status::OK();
  return OpenSegment(segment_index_ + 1);
}

Status WalWriter::Append(const EdgeEvent& event) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("WalWriter is closed");
  }
  MAGICRECS_RETURN_IF_ERROR(RotateIfNeeded());
  EncodeRecord(event, &encode_buf_);
  if (std::fwrite(encode_buf_.data(), 1, encode_buf_.size(), file_) !=
      encode_buf_.size()) {
    return Status::Internal(StrFormat("wal append failed: %s",
                                      std::strerror(errno)));
  }
  segment_bytes_ += encode_buf_.size();
  ++stats_.records_appended;
  stats_.bytes_appended += encode_buf_.size();
  if (records_metric_ != nullptr) records_metric_->Increment();
  if (options_.sync_each_append) {
    // Group commit: one fdatasync amortized over fsync_batch appends. The
    // deferred appends sit in the stdio/OS buffers; Sync() and Close()
    // still force them down, so only a power failure inside a batch can
    // lose the (bounded) tail.
    if (options_.fsync_batch <= 1 ||
        ++appends_since_fsync_ >= options_.fsync_batch) {
      if (group_commit_metric_ != nullptr) {
        group_commit_metric_->Record(static_cast<int64_t>(
            options_.fsync_batch <= 1 ? 1 : appends_since_fsync_));
      }
      return Sync();
    }
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  if (file_ == nullptr) return Status::OK();
  appends_since_fsync_ = 0;
  if (std::fflush(file_) != 0) {
    return Status::Internal(StrFormat("wal flush failed: %s",
                                      std::strerror(errno)));
  }
  if (::fdatasync(fileno(file_)) != 0) {
    return Status::Internal(StrFormat("wal fdatasync failed: %s",
                                      std::strerror(errno)));
  }
  ++stats_.fsyncs;
  if (fsyncs_metric_ != nullptr) fsyncs_metric_->Increment();
  return Status::OK();
}

Status WalWriter::Close() {
  if (file_ == nullptr) return Status::OK();
  const Status sync = Sync();
  std::fclose(file_);
  file_ = nullptr;
  return sync;
}

// --- replay ------------------------------------------------------------------

std::string WalReplayStats::ToString() const {
  return StrFormat(
      "segments=%llu bytes=%llu records=%llu applied=%llu skipped=%llu "
      "clean_tail=%s",
      static_cast<unsigned long long>(segments),
      static_cast<unsigned long long>(bytes_read),
      static_cast<unsigned long long>(records),
      static_cast<unsigned long long>(events_applied),
      static_cast<unsigned long long>(events_skipped),
      clean_tail ? "true" : "false");
}

Status ReplayWal(const std::string& dir, uint64_t min_sequence,
                 const std::function<Status(const EdgeEvent&)>& fn,
                 WalReplayStats* stats) {
  WalReplayStats local;
  WalReplayStats& out = stats != nullptr ? *stats : local;
  out = WalReplayStats{};

  const std::vector<std::string> segments = ListWalSegments(dir);
  for (size_t i = 0; i < segments.size(); ++i) {
    const std::string& path = segments[i];
    const bool final_segment = i + 1 == segments.size();
    ++out.segments;
    MAGICRECS_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
    if (contents.size() < kSegmentHeaderBytes ||
        std::memcmp(contents.data(), kSegmentMagic, kSegmentHeaderBytes) != 0) {
      if (final_segment) {
        // Torn segment creation (crash between rotate and first append);
        // bounded crash damage, stop cleanly.
        out.clean_tail = false;
        return Status::OK();
      }
      return Status::Corruption(
          StrFormat("%s: bad segment header mid-log", path.c_str()));
    }
    out.bytes_read += kSegmentHeaderBytes;
    ByteReader reader(
        reinterpret_cast<const uint8_t*>(contents.data()) + kSegmentHeaderBytes,
        contents.size() - kSegmentHeaderBytes);
    EdgeEvent event;
    while (reader.remaining() > 0) {
      const size_t before = reader.position();
      if (DecodeRecord(&reader, &event) != DecodeOutcome::kOk) {
        if (final_segment) {
          out.clean_tail = false;
          return Status::OK();  // torn tail: stop at the last valid record
        }
        // An invalid record with more segments after it is not crash
        // damage — it is data loss in the middle of the log. Skipping the
        // remaining segments would silently rebuild stale state.
        return Status::Corruption(StrFormat(
            "%s: invalid record at offset %zu followed by newer segments",
            path.c_str(), kSegmentHeaderBytes + before));
      }
      out.bytes_read += reader.position() - before;
      ++out.records;
      if (event.sequence < min_sequence) {
        ++out.events_skipped;
        continue;
      }
      MAGICRECS_RETURN_IF_ERROR(fn(event));
      ++out.events_applied;
    }
  }
  return Status::OK();
}

Result<size_t> TruncateWalBefore(const std::string& dir,
                                 uint64_t min_sequence) {
  const std::vector<std::string> segments = ListWalSegments(dir);
  size_t removed = 0;
  // Segment i is superseded once the *next* segment's first record is
  // already below the cutoff — then every record in i is too. The active
  // (last) segment is always retained.
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    const auto next_first = FirstSequenceOf(segments[i + 1]);
    if (!next_first.has_value() || *next_first > min_sequence) break;
    std::error_code ec;
    if (!fs::remove(segments[i], ec) || ec) {
      return Status::Internal(StrFormat("remove %s: %s", segments[i].c_str(),
                                        ec.message().c_str()));
    }
    ++removed;
  }
  return removed;
}

}  // namespace magicrecs
