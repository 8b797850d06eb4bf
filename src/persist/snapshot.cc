#include "persist/snapshot.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <vector>

#include <unistd.h>

#include "persist/codec.h"
#include "persist/crc32.h"
#include "persist/file_util.h"
#include "util/str_format.h"

namespace magicrecs {
namespace {

namespace fs = std::filesystem;
using persist::ByteReader;
using persist::Crc32c;
using persist::MaskCrc;
using persist::UnmaskCrc;

constexpr char kMagic[8] = {'M', 'R', 'S', 'N', 'A', 'P', '0', '1'};
constexpr uint32_t kFlagHasDynamic = 1u << 1;
constexpr uint32_t kTagDynamic = 2;

void AppendSection(std::string* out, uint32_t tag, const std::string& payload) {
  persist::PutU32(out, tag);
  persist::PutU64(out, payload.size());
  out->append(payload);
  persist::PutU32(out, MaskCrc(Crc32c(payload.data(), payload.size())));
}

std::optional<uint64_t> ParseSnapshotSequence(const std::string& filename) {
  // snap-NNNN...N.snap
  if (filename.rfind("snap-", 0) != 0) return std::nullopt;
  const size_t dot = filename.rfind(".snap");
  if (dot == std::string::npos || dot <= 5) return std::nullopt;
  uint64_t seq = 0;
  for (size_t i = 5; i < dot; ++i) {
    if (filename[i] < '0' || filename[i] > '9') return std::nullopt;
    seq = seq * 10 + static_cast<uint64_t>(filename[i] - '0');
  }
  return seq;
}

std::vector<std::pair<uint64_t, std::string>> ListSnapshots(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const auto seq = ParseSnapshotSequence(entry.path().filename().string());
    if (seq.has_value()) found.emplace_back(*seq, entry.path().string());
  }
  std::sort(found.begin(), found.end());
  return found;
}

}  // namespace

std::string SnapshotFileName(uint64_t next_sequence) {
  return StrFormat("snap-%020llu.snap",
                   static_cast<unsigned long long>(next_sequence));
}

Status WriteSnapshot(const std::string& path, const SnapshotMeta& meta,
                     const DynamicInEdgeIndex& dynamic_index) {
  std::string blob;
  blob.append(kMagic, sizeof(kMagic));
  persist::PutU32(&blob, kSnapshotVersion);
  persist::PutU32(&blob, kFlagHasDynamic);
  persist::PutU32(&blob, meta.partition_id);
  persist::PutU32(&blob, 0);  // reserved
  persist::PutU64(&blob, meta.next_sequence);
  persist::PutI64(&blob, meta.created_at);

  std::string payload;
  dynamic_index.EncodeTo(&payload);
  AppendSection(&blob, kTagDynamic, payload);

  // Temp + fsync + rename + directory fsync: a crash or power loss at any
  // point leaves either the old snapshot or the complete new one — never a
  // torn file under the canonical name. The data fsync matters because
  // Checkpoint deletes the WAL segments this snapshot supersedes right
  // after; losing the snapshot to an unflushed page cache would lose both
  // copies of the state.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal(
        StrFormat("open %s: %s", tmp.c_str(), std::strerror(errno)));
  }
  const bool wrote = std::fwrite(blob.data(), 1, blob.size(), f) == blob.size();
  const bool flushed = std::fflush(f) == 0;
  const bool synced = flushed && ::fdatasync(fileno(f)) == 0;
  std::fclose(f);
  if (!wrote || !synced) {
    return Status::Internal(StrFormat("write %s failed", tmp.c_str()));
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    return Status::Internal(StrFormat("rename %s -> %s: %s", tmp.c_str(),
                                      path.c_str(), ec.message().c_str()));
  }
  return persist::SyncDirectory(fs::path(path).parent_path().string());
}

Result<SnapshotContents> ReadSnapshot(const std::string& path) {
  MAGICRECS_ASSIGN_OR_RETURN(std::string blob,
                             persist::ReadFileToString(path));

  if (blob.size() < sizeof(kMagic) ||
      std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption(
        StrFormat("%s is not a magicrecs snapshot", path.c_str()));
  }
  ByteReader reader(reinterpret_cast<const uint8_t*>(blob.data()) +
                        sizeof(kMagic),
                    blob.size() - sizeof(kMagic));
  uint32_t version = 0;
  uint32_t flags = 0;
  uint32_t reserved = 0;
  SnapshotContents out;
  bool has_dynamic = false;
  if (!reader.GetU32(&version) || !reader.GetU32(&flags) ||
      !reader.GetU32(&out.meta.partition_id) || !reader.GetU32(&reserved) ||
      !reader.GetU64(&out.meta.next_sequence) ||
      !reader.GetI64(&out.meta.created_at)) {
    return Status::Corruption(StrFormat("%s: header truncated", path.c_str()));
  }
  if (version > kSnapshotVersion) {
    return Status::InvalidArgument(
        StrFormat("%s: snapshot version %u is newer than supported %u",
                  path.c_str(), version, kSnapshotVersion));
  }
  if (flags != kFlagHasDynamic) {
    return Status::InvalidArgument(StrFormat(
        "%s: snapshot flags 0x%x, expected 0x%x (D only); S is never read "
        "from a snapshot and must be rebuilt from the follow graph",
        path.c_str(), flags, kFlagHasDynamic));
  }

  while (reader.remaining() > 0) {
    uint32_t tag = 0;
    uint64_t len = 0;
    if (!reader.GetU32(&tag) || !reader.GetU64(&len) ||
        len > reader.remaining() ||
        reader.remaining() - len < sizeof(uint32_t)) {
      return Status::Corruption(StrFormat("%s: section truncated", path.c_str()));
    }
    const uint8_t* payload = reader.cursor();
    reader.Skip(len);
    uint32_t masked_crc = 0;
    reader.GetU32(&masked_crc);
    if (Crc32c(payload, len) != UnmaskCrc(masked_crc)) {
      return Status::Corruption(
          StrFormat("%s: section %u checksum mismatch", path.c_str(), tag));
    }
    if (tag == kTagDynamic) {
      has_dynamic = true;
      out.dynamic_bytes.assign(reinterpret_cast<const char*>(payload), len);
    }  // other tags: sections from a newer minor revision, skipped
  }

  if (!has_dynamic) {
    return Status::Corruption(
        StrFormat("%s: D section missing", path.c_str()));
  }
  return out;
}

Result<std::string> FindLatestSnapshot(const std::string& dir) {
  const auto snapshots = ListSnapshots(dir);
  if (snapshots.empty()) {
    return Status::NotFound(StrFormat("no snapshot under %s", dir.c_str()));
  }
  return snapshots.back().second;
}

Result<size_t> RemoveSnapshotsBefore(const std::string& dir,
                                     uint64_t next_sequence) {
  size_t removed = 0;
  for (const auto& [seq, path] : ListSnapshots(dir)) {
    if (seq >= next_sequence) break;
    std::error_code ec;
    if (!fs::remove(path, ec) || ec) {
      return Status::Internal(
          StrFormat("remove %s: %s", path.c_str(), ec.message().c_str()));
    }
    ++removed;
  }
  return removed;
}

}  // namespace magicrecs
