#include "net/wire.h"

#include <cassert>
#include <cstring>

#include "persist/codec.h"
#include "persist/crc32.h"
#include "util/str_format.h"

namespace magicrecs::net {
namespace {

using persist::ByteReader;
using persist::Crc32c;
using persist::MaskCrc;
using persist::PutI64;
using persist::PutU32;
using persist::PutU64;
using persist::PutU8;
using persist::UnmaskCrc;

// src:u32 dst:u32 created_at:i64 action:u8
constexpr size_t kEventBytes = 4 + 4 + 8 + 1;

// The publish-batch idempotency tail: a presence marker byte followed by
// the u64 sequence. The marker exists so the tail is never inferred from
// payload length alone — a corrupted or forged count that happens to leave
// tail-sized residue must not have garbage silently consumed as a
// sequence (with 8 bytes of event data misattributed along the way).
constexpr uint8_t kBatchSequenceMarker = 0x01;
constexpr size_t kBatchSequenceTailBytes = 1 + 8;

// The hello marker and the fixed envelope prefix sizes
// (request_id:u64 [+ last:u8]).
constexpr uint8_t kHelloMarker = 0x01;
constexpr size_t kMuxRequestPrefixBytes = 8;
constexpr size_t kMuxResponsePrefixBytes = 8 + 1;

// The trace tail (see wire.h, "Trace propagation"): marker, then
// trace_id:u64 origin_us:i64 count:u8, then `count` 13-byte stamps. It is
// always the LAST tail on any payload that carries it (a publish-batch or
// an ack), so the decoder can demand exact consumption — residue after a
// trace tail is corruption, not a future extension (future extensions slot
// in BEFORE the trace tail).
constexpr uint8_t kTraceMarker = 0x02;
constexpr size_t kTraceStampBytes = 1 + 4 + 8;

void PutTraceTail(const TraceContext& trace, std::string* out) {
  PutU8(out, kTraceMarker);
  PutU64(out, trace.trace_id);
  PutI64(out, trace.origin_us);
  PutU8(out, static_cast<uint8_t>(trace.stamps.size()));
  for (const TraceStamp& stamp : trace.stamps) {
    PutU8(out, stamp.stage);
    PutU32(out, stamp.party);
    PutI64(out, stamp.at_us);
  }
}

size_t TraceTailBytes(const TraceContext& trace) {
  return 1 + 8 + 8 + 1 + trace.stamps.size() * kTraceStampBytes;
}

/// Decodes the trace tail after its marker has been consumed. The stamp
/// count is capped and validated against the actual remaining bytes BEFORE
/// any allocation (a forged count must not reserve), and because the trace
/// tail is always last, the stamps must consume the payload exactly.
Status GetTraceTail(ByteReader* reader, const char* what,
                    TraceContext* trace) {
  uint8_t count = 0;
  if (!reader->GetU64(&trace->trace_id) ||
      !reader->GetI64(&trace->origin_us) || !reader->GetU8(&count)) {
    return Status::InvalidArgument(
        StrFormat("truncated %s trace tail", what));
  }
  if (count > kMaxTraceStamps) {
    return Status::InvalidArgument(
        StrFormat("%s trace tail stamp count %u exceeds the %zu cap", what,
                  static_cast<unsigned>(count), kMaxTraceStamps));
  }
  if (static_cast<uint64_t>(count) * kTraceStampBytes !=
      reader->remaining()) {
    return Status::InvalidArgument(StrFormat(
        "%s trace tail stamp count %u does not match %zu payload bytes",
        what, static_cast<unsigned>(count), reader->remaining()));
  }
  trace->stamps.clear();
  trace->stamps.reserve(count);
  for (uint8_t i = 0; i < count; ++i) {
    TraceStamp stamp;
    reader->GetU8(&stamp.stage);
    reader->GetU32(&stamp.party);
    reader->GetI64(&stamp.at_us);
    trace->stamps.push_back(stamp);
  }
  return Status::OK();
}

ByteReader ReaderOf(std::string_view payload) {
  return ByteReader(reinterpret_cast<const uint8_t*>(payload.data()),
                    payload.size());
}

void PutEvent(const EdgeEvent& event, std::string* out) {
  PutU32(out, event.edge.src);
  PutU32(out, event.edge.dst);
  PutI64(out, event.edge.created_at);
  PutU8(out, static_cast<uint8_t>(event.action));
}

bool GetEvent(ByteReader* reader, EdgeEvent* event) {
  uint8_t action = 0;
  if (!reader->GetU32(&event->edge.src) || !reader->GetU32(&event->edge.dst) ||
      !reader->GetI64(&event->edge.created_at) || !reader->GetU8(&action)) {
    return false;
  }
  event->action = static_cast<ActionType>(action);
  event->sequence = 0;  // assigned by the receiving broker
  return true;
}

Status Truncated(const char* what) {
  return Status::InvalidArgument(StrFormat("truncated %s payload", what));
}

Status TrailingGarbage(const char* what) {
  return Status::InvalidArgument(
      StrFormat("%s payload has trailing bytes", what));
}

}  // namespace

std::string_view MessageTagName(MessageTag tag) {
  switch (tag) {
    case MessageTag::kPublishBatch: return "publish-batch";
    case MessageTag::kTakeRecommendations: return "take-recommendations";
    case MessageTag::kDrain: return "drain";
    case MessageTag::kCheckpoint: return "checkpoint";
    case MessageTag::kKillReplica: return "kill-replica";
    case MessageTag::kRecoverReplica: return "recover-replica";
    case MessageTag::kStatsText: return "stats-text";
    case MessageTag::kPing: return "ping";
    case MessageTag::kHello: return "hello";
    case MessageTag::kMuxRequest: return "mux-request";
    case MessageTag::kAck: return "ack";
    case MessageTag::kError: return "error";
    case MessageTag::kRecommendationsReply: return "recommendations-reply";
    case MessageTag::kStatsTextReply: return "stats-text-reply";
    case MessageTag::kHelloReply: return "hello-reply";
    case MessageTag::kMuxResponse: return "mux-response";
  }
  return "unknown";
}

bool IsOrderSensitive(MessageTag tag) {
  switch (tag) {
    case MessageTag::kPublishBatch:
    case MessageTag::kDrain:
    case MessageTag::kCheckpoint:
    case MessageTag::kKillReplica:
    case MessageTag::kRecoverReplica:
      return true;
    default:
      return false;
  }
}

// --- frame assembly ----------------------------------------------------------

void AppendFrame(MessageTag tag, std::string_view payload, std::string* out) {
  const size_t body_len = 1 + payload.size();
  PutU32(out, static_cast<uint32_t>(body_len));
  const size_t crc_pos = out->size();
  PutU32(out, 0);  // crc placeholder
  PutU8(out, static_cast<uint8_t>(tag));
  out->append(payload);
  const uint32_t crc = MaskCrc(
      Crc32c(out->data() + crc_pos + sizeof(uint32_t), body_len));
  std::memcpy(out->data() + crc_pos, &crc, sizeof(crc));
}

Status DecodeFrameHeader(const uint8_t header[kFrameHeaderBytes],
                         uint32_t* body_len, uint32_t* masked_crc) {
  ByteReader reader(header, kFrameHeaderBytes);
  reader.GetU32(body_len);
  reader.GetU32(masked_crc);
  if (*body_len == 0) {
    return Status::InvalidArgument("frame body must carry at least a tag");
  }
  if (*body_len > kMaxFrameBodyBytes) {
    return Status::ResourceExhausted(
        StrFormat("frame body of %u bytes exceeds the %zu-byte limit",
                  *body_len, kMaxFrameBodyBytes));
  }
  return Status::OK();
}

Status DecodeFrameBody(const uint8_t* body, size_t body_len,
                       uint32_t masked_crc, MessageTag* tag) {
  if (body_len == 0) {
    return Status::InvalidArgument("frame body must carry at least a tag");
  }
  if (Crc32c(body, body_len) != UnmaskCrc(masked_crc)) {
    return Status::Corruption("frame body CRC mismatch");
  }
  *tag = static_cast<MessageTag>(body[0]);
  return Status::OK();
}

// --- requests ----------------------------------------------------------------

void AppendPublishBatch(std::span<const EdgeEvent> events, std::string* out,
                        uint64_t batch_sequence, const TraceContext* trace) {
  const bool has_trace = trace != nullptr && trace->active();
  std::string payload;
  payload.reserve(4 + events.size() * kEventBytes +
                  (batch_sequence != 0 ? kBatchSequenceTailBytes : 0) +
                  (has_trace ? TraceTailBytes(*trace) : 0));
  PutU32(&payload, static_cast<uint32_t>(events.size()));
  for (const EdgeEvent& event : events) PutEvent(event, &payload);
  if (batch_sequence != 0) {
    PutU8(&payload, kBatchSequenceMarker);
    PutU64(&payload, batch_sequence);
  }
  if (has_trace) PutTraceTail(*trace, &payload);
  AppendFrame(MessageTag::kPublishBatch, payload, out);
}

void AppendEmptyRequest(MessageTag tag, std::string* out) {
  AppendFrame(tag, {}, out);
}

void AppendCheckpoint(Timestamp created_at, std::string* out) {
  std::string payload;
  PutI64(&payload, created_at);
  AppendFrame(MessageTag::kCheckpoint, payload, out);
}

void AppendTakeRecommendations(uint64_t broker, std::span<const TakeAck> acks,
                               std::string* out) {
  std::string payload;
  PutU64(&payload, broker);
  PutU32(&payload, static_cast<uint32_t>(acks.size()));
  for (const TakeAck& ack : acks) {
    PutU32(&payload, ack.partition);
    PutU64(&payload, ack.take);
  }
  AppendFrame(MessageTag::kTakeRecommendations, payload, out);
}

void AppendReplicaOp(MessageTag tag, uint32_t partition, uint32_t replica,
                     std::string* out) {
  std::string payload;
  PutU32(&payload, partition);
  PutU32(&payload, replica);
  AppendFrame(tag, payload, out);
}

Status DecodePublishBatch(std::string_view payload,
                          std::vector<EdgeEvent>* events,
                          uint64_t* batch_sequence, TraceContext* trace) {
  if (trace != nullptr) *trace = TraceContext{};  // absent tail = no trace
  ByteReader reader = ReaderOf(payload);
  uint32_t count = 0;
  if (!reader.GetU32(&count)) return Truncated("publish-batch");
  // Validate the count against the actual byte budget BEFORE reserving, so a
  // forged count cannot become a multi-gigabyte allocation. Whatever follows
  // the events must be marker-led tails (tail-growth versioning, see
  // wire.h) — length alone never turns stray bytes into a sequence or a
  // trace.
  const uint64_t event_bytes = static_cast<uint64_t>(count) * kEventBytes;
  if (event_bytes > reader.remaining()) {
    return Status::InvalidArgument(StrFormat(
        "publish-batch count %u does not match %zu payload bytes", count,
        reader.remaining()));
  }
  events->clear();
  events->reserve(count);
  EdgeEvent event;
  for (uint32_t i = 0; i < count; ++i) {
    if (!GetEvent(&reader, &event)) return Truncated("publish-batch");
    events->push_back(event);
  }
  // Tail loop: the idempotency tail (0x01, fixed size), then optionally the
  // trace tail (0x02, variable size, always last and exactly consuming).
  uint64_t sequence = 0;
  bool saw_sequence = false;
  while (reader.remaining() != 0) {
    uint8_t marker = 0;
    reader.GetU8(&marker);
    if (marker == kBatchSequenceMarker && !saw_sequence) {
      if (!reader.GetU64(&sequence)) return Truncated("publish-batch");
      saw_sequence = true;
      continue;
    }
    if (marker == kTraceMarker) {
      TraceContext decoded;
      const Status status = GetTraceTail(&reader, "publish-batch", &decoded);
      if (!status.ok()) return status;
      if (trace != nullptr) *trace = std::move(decoded);
      break;  // GetTraceTail consumed the payload exactly
    }
    return Status::InvalidArgument(
        "publish-batch sequence tail lacks its presence marker");
  }
  if (batch_sequence != nullptr) *batch_sequence = sequence;
  return Status::OK();
}

Status DecodeCheckpoint(std::string_view payload, Timestamp* created_at) {
  ByteReader reader = ReaderOf(payload);
  if (!reader.GetI64(created_at)) return Truncated("checkpoint");
  if (reader.remaining() != 0) return TrailingGarbage("checkpoint");
  return Status::OK();
}

Status DecodeTakeRecommendations(std::string_view payload, uint64_t* broker,
                                 std::vector<TakeAck>* acks) {
  ByteReader reader = ReaderOf(payload);
  uint32_t count = 0;
  if (!reader.GetU64(broker) || !reader.GetU32(&count)) {
    return Truncated("take-recommendations");
  }
  // partition:u32 ack:u64 per entry, checked before anything is reserved.
  if (static_cast<uint64_t>(count) * 12 != reader.remaining()) {
    return Status::InvalidArgument(StrFormat(
        "take-recommendations count %u does not match %zu payload bytes",
        count, reader.remaining()));
  }
  acks->resize(count);
  for (TakeAck& ack : *acks) {
    reader.GetU32(&ack.partition);
    reader.GetU64(&ack.take);
  }
  return Status::OK();
}

Status DecodeReplicaOp(std::string_view payload, uint32_t* partition,
                       uint32_t* replica) {
  ByteReader reader = ReaderOf(payload);
  if (!reader.GetU32(partition) || !reader.GetU32(replica)) {
    return Truncated("replica-op");
  }
  if (reader.remaining() != 0) return TrailingGarbage("replica-op");
  return Status::OK();
}

// --- session negotiation / multiplexing ---------------------------------------

namespace {

/// Splits one complete frame off the front of `bytes`: *body is the frame
/// body (tag + payload), *rest what follows. False when `bytes` does not
/// start with a complete frame.
bool SplitFrame(std::string_view bytes, std::string_view* body,
                std::string_view* rest) {
  if (bytes.size() < kFrameHeaderBytes) return false;
  uint32_t body_len = 0;
  std::memcpy(&body_len, bytes.data(), sizeof(body_len));
  if (body_len == 0 ||
      bytes.size() < kFrameHeaderBytes + static_cast<size_t>(body_len)) {
    return false;
  }
  *body = bytes.substr(kFrameHeaderBytes, body_len);
  *rest = bytes.substr(kFrameHeaderBytes + body_len);
  return true;
}

}  // namespace

void AppendHello(uint32_t features, std::string* out) {
  std::string payload;
  PutU8(&payload, kHelloMarker);
  PutU32(&payload, kProtocolVersion);
  PutU32(&payload, features);
  AppendFrame(MessageTag::kHello, payload, out);
}

Status DecodeHello(std::string_view payload, uint32_t* proto_version,
                   uint32_t* features) {
  ByteReader reader = ReaderOf(payload);
  uint8_t marker = 0;
  if (!reader.GetU8(&marker) || marker != kHelloMarker) {
    return Status::InvalidArgument("hello payload lacks its marker");
  }
  if (!reader.GetU32(proto_version) || !reader.GetU32(features)) {
    return Truncated("hello");
  }
  // Tail-growth versioning: a newer peer may have appended fields this
  // decoder does not know; ignore them rather than reject the session.
  return Status::OK();
}

void AppendHelloReply(uint32_t features, uint32_t max_inflight,
                      const Placement& placement, std::string* out) {
  std::string payload;
  PutU32(&payload, kProtocolVersion);
  PutU32(&payload, features);
  PutU32(&payload, max_inflight);
  PutU32(&payload, placement.group_size);
  PutU32(&payload, placement.partition);
  PutU64(&payload, placement.salt);
  AppendFrame(MessageTag::kHelloReply, payload, out);
}

Status DecodeHelloReply(std::string_view payload, uint32_t* proto_version,
                        uint32_t* features, uint32_t* max_inflight,
                        Placement* placement) {
  ByteReader reader = ReaderOf(payload);
  if (!reader.GetU32(proto_version) || !reader.GetU32(features) ||
      !reader.GetU32(max_inflight) || !reader.GetU32(&placement->group_size) ||
      !reader.GetU32(&placement->partition) ||
      !reader.GetU64(&placement->salt)) {
    return Truncated("hello-reply");
  }
  return Status::OK();  // tail-growth: future fields are ignored
}

void AppendMuxRequest(uint64_t request_id, std::string_view frame,
                      std::string* out) {
  std::string_view body;
  std::string_view rest;
  const bool one_frame = SplitFrame(frame, &body, &rest) && rest.empty();
  assert(one_frame && "AppendMuxRequest needs exactly one complete frame");
  if (!one_frame) return;
  std::string payload;
  payload.reserve(kMuxRequestPrefixBytes + body.size());
  PutU64(&payload, request_id);
  payload.append(body);
  AppendFrame(MessageTag::kMuxRequest, payload, out);
}

Status DecodeMuxRequest(std::string_view payload, uint64_t* request_id,
                        Frame* inner) {
  ByteReader reader = ReaderOf(payload);
  uint8_t tag = 0;
  if (!reader.GetU64(request_id) || !reader.GetU8(&tag)) {
    return Truncated("mux-request");
  }
  inner->tag = static_cast<MessageTag>(tag);
  inner->payload.assign(
      payload.substr(kMuxRequestPrefixBytes + 1));
  return Status::OK();
}

void AppendMuxResponse(uint64_t request_id, bool last, std::string_view frame,
                       std::string* out) {
  std::string_view body;
  std::string_view rest;
  const bool one_frame = SplitFrame(frame, &body, &rest) && rest.empty();
  assert(one_frame && "AppendMuxResponse needs exactly one complete frame");
  if (!one_frame) return;
  std::string payload;
  payload.reserve(kMuxResponsePrefixBytes + body.size());
  PutU64(&payload, request_id);
  PutU8(&payload, last ? 1 : 0);
  payload.append(body);
  AppendFrame(MessageTag::kMuxResponse, payload, out);
}

Status WrapMuxResponses(uint64_t request_id, std::string_view frames,
                        std::string* out) {
  if (frames.empty()) {
    return Status::InvalidArgument("mux response wrap needs >= 1 frame");
  }
  while (!frames.empty()) {
    std::string_view body;
    std::string_view rest;
    if (!SplitFrame(frames, &body, &rest)) {
      return Status::InvalidArgument(
          "mux response wrap given a misaligned frame buffer");
    }
    std::string payload;
    payload.reserve(kMuxResponsePrefixBytes + body.size());
    PutU64(&payload, request_id);
    PutU8(&payload, rest.empty() ? 1 : 0);
    payload.append(body);
    AppendFrame(MessageTag::kMuxResponse, payload, out);
    frames = rest;
  }
  return Status::OK();
}

Status DecodeMuxResponse(std::string_view payload, uint64_t* request_id,
                         bool* last, Frame* inner) {
  ByteReader reader = ReaderOf(payload);
  uint8_t last_byte = 0;
  uint8_t tag = 0;
  if (!reader.GetU64(request_id) || !reader.GetU8(&last_byte) ||
      !reader.GetU8(&tag)) {
    return Truncated("mux-response");
  }
  *last = last_byte != 0;
  inner->tag = static_cast<MessageTag>(tag);
  inner->payload.assign(payload.substr(kMuxResponsePrefixBytes + 1));
  return Status::OK();
}

// --- responses ---------------------------------------------------------------

void AppendAck(std::string* out, const TraceContext* trace) {
  if (trace == nullptr || !trace->active()) {
    AppendFrame(MessageTag::kAck, {}, out);
    return;
  }
  std::string payload;
  payload.reserve(TraceTailBytes(*trace));
  PutTraceTail(*trace, &payload);
  AppendFrame(MessageTag::kAck, payload, out);
}

Status DecodeAck(std::string_view payload, TraceContext* trace) {
  if (trace != nullptr) *trace = TraceContext{};  // absent tail = no trace
  if (payload.empty()) return Status::OK();  // no trace tail
  ByteReader reader = ReaderOf(payload);
  uint8_t marker = 0;
  reader.GetU8(&marker);
  if (marker != kTraceMarker) {
    return Status::InvalidArgument("ack trace tail lacks its presence marker");
  }
  TraceContext decoded;
  const Status status = GetTraceTail(&reader, "ack", &decoded);
  if (!status.ok()) return status;
  if (trace != nullptr) *trace = std::move(decoded);
  return Status::OK();
}

void AppendError(const Status& status, std::string* out) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(status.code()));
  payload.append(status.message());
  AppendFrame(MessageTag::kError, payload, out);
}

namespace {

/// Encoded wire size of one recommendation.
size_t RecWireBytes(const Recommendation& rec) {
  return 4 + 4 + 4 + 4 + 8 + 4 + 4 * rec.witnesses.size();
}

/// In-place frame writer: reserves the 8-byte header + tag in the
/// destination string, lets the payload encode straight into it, then
/// patches the length and CRC over their placeholders — the arena-backed
/// alternative to staging the payload in a temporary string and having
/// AppendFrame copy it. Byte-identical to AppendFrame (the length and CRC
/// land via the same memcpy layout SplitFrame and the decoders read).
class FrameWriter {
 public:
  FrameWriter(MessageTag tag, std::string* out)
      : out_(out), frame_pos_(out->size()) {
    PutU32(out_, 0);  // body_len placeholder
    PutU32(out_, 0);  // crc placeholder
    PutU8(out_, static_cast<uint8_t>(tag));
  }

  std::string* payload() { return out_; }

  void Finish() {
    const size_t body_len = out_->size() - frame_pos_ - kFrameHeaderBytes;
    const uint32_t len = static_cast<uint32_t>(body_len);
    std::memcpy(out_->data() + frame_pos_, &len, sizeof(len));
    const uint32_t crc = MaskCrc(
        Crc32c(out_->data() + frame_pos_ + kFrameHeaderBytes, body_len));
    std::memcpy(out_->data() + frame_pos_ + sizeof(uint32_t), &crc,
                sizeof(crc));
  }

 private:
  std::string* out_;
  size_t frame_pos_;
};

}  // namespace

void AppendRecommendationsReply(std::span<const Recommendation> recs,
                                bool has_more, std::string* out,
                                uint64_t take) {
  size_t rec_bytes = 0;
  for (const Recommendation& rec : recs) rec_bytes += RecWireBytes(rec);
  out->reserve(out->size() + kFrameHeaderBytes + 1 + 1 + 8 + 4 + rec_bytes);
  FrameWriter frame(MessageTag::kRecommendationsReply, out);
  std::string* payload = frame.payload();
  PutU8(payload, has_more ? 1 : 0);
  PutU32(payload, static_cast<uint32_t>(recs.size()));
  for (const Recommendation& rec : recs) {
    PutU32(payload, rec.user);
    PutU32(payload, rec.item);
    PutU32(payload, rec.witness_count);
    PutU32(payload, rec.trigger);
    PutI64(payload, rec.event_time);
    PutU32(payload, static_cast<uint32_t>(rec.witnesses.size()));
    for (const VertexId witness : rec.witnesses) PutU32(payload, witness);
  }
  PutU64(payload, take);
  frame.Finish();
}

void AppendRecommendationsReplyChunked(std::span<const Recommendation> recs,
                                       size_t max_payload_bytes,
                                       std::string* out, uint64_t take) {
  size_t begin = 0;
  do {
    size_t end = begin;
    size_t bytes = 0;
    while (end < recs.size() &&
           (end == begin || bytes + RecWireBytes(recs[end]) <=
                                max_payload_bytes)) {
      bytes += RecWireBytes(recs[end]);
      ++end;
    }
    AppendRecommendationsReply(recs.subspan(begin, end - begin),
                               /*has_more=*/end < recs.size(), out, take);
    begin = end;
  } while (begin < recs.size());
}

void AppendStatsTextReply(std::string_view text, std::string* out) {
  AppendFrame(MessageTag::kStatsTextReply, text, out);
}

Status DecodeStatsTextReply(std::string_view payload, std::string* text) {
  // The payload IS the text exposition; any byte sequence is valid.
  text->assign(payload);
  return Status::OK();
}

Status DecodeError(std::string_view payload) {
  ByteReader reader = ReaderOf(payload);
  uint8_t code = 0;
  if (!reader.GetU8(&code)) {
    return Status::Internal("server sent a truncated error payload");
  }
  if (code == static_cast<uint8_t>(StatusCode::kOk) ||
      code > static_cast<uint8_t>(StatusCode::kInternal)) {
    return Status::Internal(StrFormat("server sent unknown error code %u",
                                      static_cast<unsigned>(code)));
  }
  return Status(static_cast<StatusCode>(code),
                std::string(payload.substr(1)));
}

Status DecodeRecommendationsReply(std::string_view payload,
                                  std::vector<Recommendation>* recs,
                                  bool* has_more, uint64_t* take) {
  ByteReader reader = ReaderOf(payload);
  uint8_t more = 0;
  uint32_t count = 0;
  if (!reader.GetU8(&more) || !reader.GetU32(&count)) {
    return Truncated("recommendations-reply");
  }
  *has_more = more != 0;
  // Cheap sanity bound: each rec costs >= 28 bytes on the wire.
  if (static_cast<uint64_t>(count) * 28 > reader.remaining()) {
    return Status::InvalidArgument(
        "recommendations-reply count exceeds payload");
  }
  recs->reserve(recs->size() + count);
  for (uint32_t i = 0; i < count; ++i) {
    Recommendation rec;
    uint32_t num_witnesses = 0;
    if (!reader.GetU32(&rec.user) || !reader.GetU32(&rec.item) ||
        !reader.GetU32(&rec.witness_count) || !reader.GetU32(&rec.trigger) ||
        !reader.GetI64(&rec.event_time) || !reader.GetU32(&num_witnesses)) {
      return Truncated("recommendations-reply");
    }
    if (static_cast<uint64_t>(num_witnesses) * 4 > reader.remaining()) {
      return Status::InvalidArgument(
          "recommendations-reply witness count exceeds payload");
    }
    rec.witnesses.resize(num_witnesses);
    for (uint32_t w = 0; w < num_witnesses; ++w) {
      reader.GetU32(&rec.witnesses[w]);
    }
    recs->push_back(std::move(rec));
  }
  uint64_t take_id = 0;
  if (!reader.GetU64(&take_id)) return Truncated("recommendations-reply");
  if (take != nullptr) *take = take_id;
  if (reader.remaining() != 0) return TrailingGarbage("recommendations-reply");
  return Status::OK();
}

}  // namespace magicrecs::net
