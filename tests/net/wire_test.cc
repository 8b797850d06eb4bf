// Byte-level wire protocol tests: every message round-trips, and every
// malformed input — truncation, oversized length prefix, CRC damage,
// unknown tags, forged counts — decodes to a Status error without crashing
// or allocating absurd amounts.

#include "net/wire.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/codec.h"

namespace magicrecs::net {
namespace {

EdgeEvent MakeEvent(VertexId src, VertexId dst, Timestamp t,
                    ActionType action = ActionType::kFollow) {
  EdgeEvent event;
  event.edge = TimestampedEdge{src, dst, t};
  event.action = action;
  event.sequence = 999;  // must NOT survive the wire: broker assigns
  return event;
}

/// Splits a single encoded frame into (header, body) and decodes the body
/// tag, asserting the framing is valid.
struct SplitFrame {
  uint32_t body_len = 0;
  uint32_t masked_crc = 0;
  std::string body;
};

SplitFrame Split(const std::string& frame) {
  SplitFrame split;
  EXPECT_GE(frame.size(), kFrameHeaderBytes);
  const Status s = DecodeFrameHeader(
      reinterpret_cast<const uint8_t*>(frame.data()), &split.body_len,
      &split.masked_crc);
  EXPECT_TRUE(s.ok()) << s;
  EXPECT_EQ(frame.size(), kFrameHeaderBytes + split.body_len);
  split.body = frame.substr(kFrameHeaderBytes);
  return split;
}

/// Full header+body validation; returns the decoded Frame.
Frame DecodeWhole(const std::string& frame) {
  const SplitFrame split = Split(frame);
  MessageTag tag;
  const Status s = DecodeFrameBody(
      reinterpret_cast<const uint8_t*>(split.body.data()), split.body.size(),
      split.masked_crc, &tag);
  EXPECT_TRUE(s.ok()) << s;
  Frame out;
  out.tag = tag;
  out.payload = split.body.substr(1);
  return out;
}

TEST(WireTest, PublishBatchRoundTrip) {
  std::vector<EdgeEvent> events;
  for (int i = 0; i < 100; ++i) {
    events.push_back(MakeEvent(i, i + 1, Seconds(i),
                               i % 2 == 0 ? ActionType::kFollow
                                          : ActionType::kRetweet));
  }
  std::string frame;
  AppendPublishBatch(events, &frame);
  const Frame decoded = DecodeWhole(frame);
  EXPECT_EQ(decoded.tag, MessageTag::kPublishBatch);
  std::vector<EdgeEvent> out;
  ASSERT_TRUE(DecodePublishBatch(decoded.payload, &out).ok());
  ASSERT_EQ(out.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(out[i].edge, events[i].edge);
    EXPECT_EQ(out[i].action, events[i].action);
    EXPECT_EQ(out[i].sequence, 0u) << "sequence must be assigned by the broker";
  }
}

TEST(WireTest, ReplicaOpAndCheckpointRoundTrip) {
  std::string frame;
  AppendReplicaOp(MessageTag::kKillReplica, 7, 3, &frame);
  Frame decoded = DecodeWhole(frame);
  EXPECT_EQ(decoded.tag, MessageTag::kKillReplica);
  uint32_t partition = 0, replica = 0;
  ASSERT_TRUE(DecodeReplicaOp(decoded.payload, &partition, &replica).ok());
  EXPECT_EQ(partition, 7u);
  EXPECT_EQ(replica, 3u);

  frame.clear();
  AppendCheckpoint(-42, &frame);
  decoded = DecodeWhole(frame);
  EXPECT_EQ(decoded.tag, MessageTag::kCheckpoint);
  Timestamp created_at = 0;
  ASSERT_TRUE(DecodeCheckpoint(decoded.payload, &created_at).ok());
  EXPECT_EQ(created_at, -42);
}

TEST(WireTest, ErrorRoundTripPreservesCodeAndMessage) {
  std::string frame;
  AppendError(Status::NotFound("no such snapshot"), &frame);
  const Frame decoded = DecodeWhole(frame);
  EXPECT_EQ(decoded.tag, MessageTag::kError);
  const Status status = DecodeError(decoded.payload);
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_EQ(status.message(), "no such snapshot");
}

TEST(WireTest, RecommendationsReplyRoundTrip) {
  std::vector<Recommendation> recs(2);
  recs[0].user = 1;
  recs[0].item = 2;
  recs[0].witness_count = 5;
  recs[0].witnesses = {10, 11, 12};
  recs[0].event_time = Seconds(9);
  recs[0].trigger = 12;
  recs[1].user = 3;
  recs[1].item = 4;
  recs[1].witness_count = 2;  // witnesses capped away entirely
  recs[1].event_time = -1;
  recs[1].trigger = 8;

  std::string frame;
  AppendRecommendationsReply(recs, /*has_more=*/false, &frame,
                             /*take=*/0x1122334455667788);
  const Frame decoded = DecodeWhole(frame);
  EXPECT_EQ(decoded.tag, MessageTag::kRecommendationsReply);
  std::vector<Recommendation> out;
  bool has_more = true;
  uint64_t take = 0;
  ASSERT_TRUE(
      DecodeRecommendationsReply(decoded.payload, &out, &has_more, &take)
          .ok());
  EXPECT_EQ(out, recs);
  EXPECT_FALSE(has_more);
  EXPECT_EQ(take, 0x1122334455667788u);
}

TEST(WireTest, TakeRequestRoundTrips) {
  const std::vector<TakeAck> acks = {
      {0, 7}, {1, 0}, {Placement::kAllPartitions, 0xfeedbeefcafe}};
  std::string frame;
  AppendTakeRecommendations(0xabcdef0123456789, acks, &frame);
  const Frame decoded = DecodeWhole(frame);
  EXPECT_EQ(decoded.tag, MessageTag::kTakeRecommendations);
  uint64_t broker = 0;
  std::vector<TakeAck> out;
  ASSERT_TRUE(DecodeTakeRecommendations(decoded.payload, &broker, &out).ok());
  EXPECT_EQ(broker, 0xabcdef0123456789u);
  EXPECT_EQ(out, acks);

  frame.clear();
  AppendTakeRecommendations(7, {}, &frame);
  ASSERT_TRUE(
      DecodeTakeRecommendations(DecodeWhole(frame).payload, &broker, &out)
          .ok());
  EXPECT_EQ(broker, 7u);
  EXPECT_TRUE(out.empty());
}

TEST(WireTest, TakeRequestRejectsForgedCountsAndCuts) {
  std::string frame;
  AppendTakeRecommendations(5, std::vector<TakeAck>{{2, 9}, {3, 10}}, &frame);
  const std::string payload = DecodeWhole(frame).payload;
  uint64_t broker = 0;
  std::vector<TakeAck> acks;
  // Every cut, the empty payload included, and one appended byte.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_TRUE(
        DecodeTakeRecommendations(payload.substr(0, cut), &broker, &acks)
            .IsInvalidArgument())
        << cut << "-byte cut";
  }
  EXPECT_TRUE(DecodeTakeRecommendations(payload + '\0', &broker, &acks)
                  .IsInvalidArgument());
  // A count claiming 1M entries backed by two (it follows the broker id).
  std::string forged = payload;
  const uint32_t count = 1'000'000;
  std::memcpy(forged.data() + sizeof(uint64_t), &count, sizeof(count));
  EXPECT_TRUE(
      DecodeTakeRecommendations(forged, &broker, &acks).IsInvalidArgument());
}

TEST(WireTest, ChunkedRecommendationsReassemble) {
  // 100 recommendations against a deliberately tiny per-frame budget must
  // split into many frames, all but the last flagged has_more, and
  // reassemble into the original list in order.
  std::vector<Recommendation> recs(100);
  for (size_t i = 0; i < recs.size(); ++i) {
    recs[i].user = static_cast<VertexId>(i);
    recs[i].item = static_cast<VertexId>(i + 1);
    recs[i].witness_count = 3;
    recs[i].witnesses = {1, 2, 3};
    recs[i].event_time = Seconds(static_cast<int64_t>(i));
    recs[i].trigger = 3;
  }
  std::string frames;
  AppendRecommendationsReplyChunked(recs, /*max_payload_bytes=*/256, &frames);

  std::vector<Recommendation> out;
  size_t pos = 0;
  size_t num_frames = 0;
  bool has_more = true;
  while (has_more) {
    ASSERT_GE(frames.size() - pos, kFrameHeaderBytes);
    uint32_t body_len = 0, masked_crc = 0;
    ASSERT_TRUE(DecodeFrameHeader(
                    reinterpret_cast<const uint8_t*>(frames.data() + pos),
                    &body_len, &masked_crc)
                    .ok());
    pos += kFrameHeaderBytes;
    MessageTag tag;
    ASSERT_TRUE(DecodeFrameBody(
                    reinterpret_cast<const uint8_t*>(frames.data() + pos),
                    body_len, masked_crc, &tag)
                    .ok());
    ASSERT_EQ(tag, MessageTag::kRecommendationsReply);
    const std::string_view payload(frames.data() + pos + 1, body_len - 1);
    ASSERT_TRUE(DecodeRecommendationsReply(payload, &out, &has_more).ok());
    pos += body_len;
    ++num_frames;
  }
  EXPECT_EQ(pos, frames.size()) << "no trailing bytes after the last chunk";
  EXPECT_GT(num_frames, 5u) << "a 256-byte budget must split 100 recs";
  EXPECT_EQ(out, recs);

  // An empty gather still produces exactly one (empty, final) frame.
  frames.clear();
  AppendRecommendationsReplyChunked({}, 256, &frames);
  const Frame only = DecodeWhole(frames);
  out.clear();
  has_more = true;
  ASSERT_TRUE(DecodeRecommendationsReply(only.payload, &out, &has_more).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(has_more);
}

// --- robustness --------------------------------------------------------------

TEST(WireTest, OversizedLengthPrefixIsResourceExhausted) {
  uint8_t header[kFrameHeaderBytes] = {};
  const uint32_t huge = kMaxFrameBodyBytes + 1;
  std::memcpy(header, &huge, sizeof(huge));
  uint32_t body_len = 0, masked_crc = 0;
  const Status s = DecodeFrameHeader(header, &body_len, &masked_crc);
  EXPECT_TRUE(s.IsResourceExhausted()) << s;
}

TEST(WireTest, ZeroLengthBodyIsInvalid) {
  uint8_t header[kFrameHeaderBytes] = {};
  uint32_t body_len = 0, masked_crc = 0;
  EXPECT_TRUE(
      DecodeFrameHeader(header, &body_len, &masked_crc).IsInvalidArgument());
}

TEST(WireTest, CrcMismatchIsCorruption) {
  std::string frame;
  AppendCheckpoint(3, &frame);
  frame[frame.size() - 1] ^= 0x40;  // flip one payload bit
  const SplitFrame split = Split(frame);
  MessageTag tag;
  const Status s = DecodeFrameBody(
      reinterpret_cast<const uint8_t*>(split.body.data()), split.body.size(),
      split.masked_crc, &tag);
  EXPECT_TRUE(s.IsCorruption()) << s;
}

TEST(WireTest, TruncatedPayloadsAreInvalidNotCrash) {
  // Every decoder must reject every strict prefix of a valid payload.
  std::string frame;
  AppendCheckpoint(3, &frame);
  const std::string payload = DecodeWhole(frame).payload;
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    Timestamp created_at = 0;
    EXPECT_FALSE(DecodeCheckpoint(payload.substr(0, cut), &created_at).ok())
        << cut;
  }

  frame.clear();
  AppendReplicaOp(MessageTag::kRecoverReplica, 1, 2, &frame);
  const std::string replica_payload = DecodeWhole(frame).payload;
  for (size_t cut = 0; cut < replica_payload.size(); ++cut) {
    uint32_t partition = 0, replica = 0;
    EXPECT_FALSE(
        DecodeReplicaOp(replica_payload.substr(0, cut), &partition, &replica)
            .ok())
        << cut;
  }
}

TEST(WireTest, TrailingGarbageRejected) {
  std::string frame;
  AppendCheckpoint(3, &frame);
  std::string payload = DecodeWhole(frame).payload;
  payload.push_back('\0');
  Timestamp created_at = 0;
  EXPECT_TRUE(DecodeCheckpoint(payload, &created_at).IsInvalidArgument());
}

TEST(WireTest, ForgedBatchCountDoesNotAllocate) {
  // A count of 2^31 with a 17-byte payload must fail fast on the byte
  // budget check, not reserve gigabytes.
  std::string payload;
  const uint32_t forged = 1u << 31;
  payload.append(reinterpret_cast<const char*>(&forged), sizeof(forged));
  payload.append(17, '\0');
  std::vector<EdgeEvent> events;
  EXPECT_TRUE(DecodePublishBatch(payload, &events).IsInvalidArgument());
  EXPECT_TRUE(events.empty());
}

TEST(WireTest, ForgedRecommendationCountsRejected) {
  std::string frame;
  AppendRecommendationsReply({}, false, &frame);
  std::string payload = DecodeWhole(frame).payload;
  // Rewrite the count to claim 1M recommendations backed by zero bytes
  // (count sits after the has_more byte).
  const uint32_t forged = 1'000'000;
  std::memcpy(payload.data() + 1, &forged, sizeof(forged));
  std::vector<Recommendation> recs;
  bool has_more = false;
  EXPECT_TRUE(DecodeRecommendationsReply(payload, &recs, &has_more)
                  .IsInvalidArgument());

  // Same for a forged per-recommendation witness count.
  std::vector<Recommendation> one(1);
  one[0].witnesses = {1, 2};
  frame.clear();
  AppendRecommendationsReply(one, false, &frame);
  payload = DecodeWhole(frame).payload;
  const size_t witness_count_offset = 1 + 4 + 4 + 4 + 4 + 4 + 8;
  std::memcpy(payload.data() + witness_count_offset, &forged, sizeof(forged));
  EXPECT_TRUE(DecodeRecommendationsReply(payload, &recs, &has_more)
                  .IsInvalidArgument());
}

TEST(WireTest, PublishBatchSequenceTailRoundTrips) {
  const std::vector<EdgeEvent> events = {MakeEvent(1, 2, 100),
                                         MakeEvent(3, 4, 200)};
  std::string frame;
  AppendPublishBatch(events, &frame, /*batch_sequence=*/0xfeedbeefcafe);
  const Frame split = DecodeWhole(frame);
  EXPECT_EQ(split.tag, MessageTag::kPublishBatch);
  std::vector<EdgeEvent> decoded;
  uint64_t sequence = 0;
  ASSERT_TRUE(DecodePublishBatch(split.payload, &decoded, &sequence).ok());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].edge.src, 1u);
  EXPECT_EQ(decoded[1].edge.dst, 4u);
  EXPECT_EQ(sequence, 0xfeedbeefcafeull);
}

TEST(WireTest, PublishBatchWithoutSequenceTailIsByteIdenticalAndDecodes) {
  // Sequence 0 omits the tail (the codec's default call shape), and the
  // decoder reads that as "no sequence" — the value a server refuses.
  const std::vector<EdgeEvent> events = {MakeEvent(7, 8, 300)};
  std::string old_frame;
  AppendPublishBatch(events, &old_frame);
  std::string explicit_zero;
  AppendPublishBatch(events, &explicit_zero, /*batch_sequence=*/0);
  EXPECT_EQ(old_frame, explicit_zero);

  std::vector<EdgeEvent> decoded;
  uint64_t sequence = 99;
  ASSERT_TRUE(DecodePublishBatch(DecodeWhole(old_frame).payload, &decoded,
                                 &sequence)
                  .ok());
  EXPECT_EQ(sequence, 0u);
  // The old call shape (no out-param) still works.
  ASSERT_TRUE(DecodePublishBatch(DecodeWhole(old_frame).payload, &decoded)
                  .ok());
}

TEST(WireTest, PublishBatchRejectsMangledSequenceTail) {
  const std::vector<EdgeEvent> events = {MakeEvent(1, 2, 100)};
  std::string frame;
  AppendPublishBatch(events, &frame, /*batch_sequence=*/5);
  std::string payload = DecodeWhole(frame).payload;
  payload.resize(payload.size() - 3);  // tail is now neither 0 nor 9 bytes
  std::vector<EdgeEvent> decoded;
  EXPECT_TRUE(DecodePublishBatch(payload, &decoded).IsInvalidArgument());
}

TEST(WireTest, PublishBatchRejectsTailWithoutPresenceMarker) {
  // Exactly tail-sized trailing residue whose first byte is not the
  // presence marker must be rejected, never consumed as a sequence — this
  // is the shape a corrupted/forged count produces, and before the marker
  // existed it would silently misattribute 8 bytes of "sequence".
  const std::vector<EdgeEvent> events = {MakeEvent(1, 2, 100)};
  std::string frame;
  AppendPublishBatch(events, &frame);  // no sequence tail
  std::string payload = DecodeWhole(frame).payload;
  payload.append(9, '\0');  // marker 0x00 + 8 garbage bytes
  std::vector<EdgeEvent> decoded;
  uint64_t sequence = 0;
  EXPECT_TRUE(
      DecodePublishBatch(payload, &decoded, &sequence).IsInvalidArgument());

  // A bare markerless u64 (the pre-marker tail shape) is likewise a
  // count/length mismatch, not a sequence.
  payload.resize(payload.size() - 1);
  EXPECT_TRUE(
      DecodePublishBatch(payload, &decoded, &sequence).IsInvalidArgument());
}

TEST(WireTest, PublishBatchRejectsCorruptedPresenceMarker) {
  const std::vector<EdgeEvent> events = {MakeEvent(1, 2, 100)};
  std::string frame;
  AppendPublishBatch(events, &frame, /*batch_sequence=*/7);
  std::string payload = DecodeWhole(frame).payload;
  payload[4 + 17] = '\x02';  // the marker byte, after count + one event
  std::vector<EdgeEvent> decoded;
  EXPECT_TRUE(DecodePublishBatch(payload, &decoded).IsInvalidArgument());
}

TEST(WireTest, RecommendationsReplyRejectsAnyTrailingByte) {
  // Nothing follows the take id: any residue is corruption, including a
  // tail in the retired layout (a 0x01 coverage tail or a 0x02 trace tail).
  std::vector<Recommendation> recs(1);
  recs[0].user = 11;
  recs[0].witnesses = {1, 2};
  std::string frame;
  AppendRecommendationsReply(recs, false, &frame);
  const std::string payload = DecodeWhole(frame).payload;

  std::string coverage_tail;  // marker, total, answered, one missing id
  persist::PutU8(&coverage_tail, 0x01);
  persist::PutU32(&coverage_tail, 2);
  persist::PutU32(&coverage_tail, 1);
  persist::PutU32(&coverage_tail, 1);
  persist::PutU32(&coverage_tail, 0);
  std::string trace_tail;  // marker, trace id, origin, zero stamps
  persist::PutU8(&trace_tail, 0x02);
  persist::PutU64(&trace_tail, 7);
  persist::PutI64(&trace_tail, 1);
  persist::PutU8(&trace_tail, 0);
  for (const std::string& residue :
       {std::string(1, '\0'), std::string(1, '\x01'), std::string(1, '\x02'),
        coverage_tail, trace_tail, coverage_tail + trace_tail}) {
    std::vector<Recommendation> decoded;
    bool has_more = false;
    EXPECT_TRUE(DecodeRecommendationsReply(payload + residue, &decoded,
                                           &has_more)
                    .IsInvalidArgument())
        << residue.size() << "-byte residue";
  }
}

TEST(WireTest, EveryTagHasAName) {
  for (const MessageTag tag :
       {MessageTag::kPublishBatch,
        MessageTag::kTakeRecommendations, MessageTag::kDrain,
        MessageTag::kCheckpoint, MessageTag::kKillReplica,
        MessageTag::kRecoverReplica, MessageTag::kPing,
        MessageTag::kHello, MessageTag::kMuxRequest, MessageTag::kStatsText,
        MessageTag::kAck, MessageTag::kError,
        MessageTag::kRecommendationsReply,
        MessageTag::kHelloReply, MessageTag::kMuxResponse,
        MessageTag::kStatsTextReply}) {
    EXPECT_NE(MessageTagName(tag), "unknown");
  }
  EXPECT_EQ(MessageTagName(static_cast<MessageTag>(0x55)), "unknown");
  // The retired tags stay unassigned: 0x01 (the single-event publish),
  // 0x08 and 0x83 (the typed stats request and reply).
  for (const uint8_t retired : {0x01, 0x08, 0x83}) {
    EXPECT_EQ(MessageTagName(static_cast<MessageTag>(retired)), "unknown");
  }
}

// --- trace propagation -------------------------------------------------------

TraceContext MakeTrace() {
  TraceContext trace;
  trace.trace_id = 0xABCDEF0123456789ull;
  trace.origin_us = 1'700'000'000'000'000;
  trace.Stamp(TraceStage::kBrokerEncode, kTracePartyBroker,
              trace.origin_us + 12);
  trace.Stamp(TraceStage::kDaemonDequeue, 3, trace.origin_us + 480);
  trace.Stamp(TraceStage::kDetectorApply, 3, trace.origin_us + 950);
  return trace;
}

TEST(WireTest, PublishBatchTraceTailRoundTrips) {
  const std::vector<EdgeEvent> events = {MakeEvent(1, 2, 100),
                                         MakeEvent(3, 4, 200)};
  const TraceContext trace = MakeTrace();
  std::string frame;
  AppendPublishBatch(events, &frame, /*batch_sequence=*/77, &trace);
  std::vector<EdgeEvent> decoded;
  uint64_t sequence = 0;
  TraceContext out;
  ASSERT_TRUE(DecodePublishBatch(DecodeWhole(frame).payload, &decoded,
                                 &sequence, &out)
                  .ok());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(sequence, 77u) << "sequence tail must coexist with the trace";
  EXPECT_EQ(out, trace);

  // The codec also carries the trace tail without a sequence.
  frame.clear();
  AppendPublishBatch(events, &frame, /*batch_sequence=*/0, &trace);
  sequence = 99;
  out = TraceContext{};
  ASSERT_TRUE(DecodePublishBatch(DecodeWhole(frame).payload, &decoded,
                                 &sequence, &out)
                  .ok());
  EXPECT_EQ(sequence, 0u);
  EXPECT_EQ(out, trace);
}

TEST(WireTest, UnsampledPublishBatchIsByteIdenticalToPreTraceEncoding) {
  // An unsampled publish (no trace, or an inactive context) emits exactly
  // the untraced bytes, so only sampled batches pay for the tail.
  const std::vector<EdgeEvent> events = {MakeEvent(7, 8, 300)};
  std::string pre_trace;
  AppendPublishBatch(events, &pre_trace, /*batch_sequence=*/5);
  std::string null_trace;
  AppendPublishBatch(events, &null_trace, 5, nullptr);
  EXPECT_EQ(pre_trace, null_trace);
  std::string inactive_trace;
  const TraceContext inactive;  // trace_id == 0: "no trace"
  AppendPublishBatch(events, &inactive_trace, 5, &inactive);
  EXPECT_EQ(pre_trace, inactive_trace);

  // And decoding the pre-trace bytes reports "no trace", clearing stale
  // out-param state.
  std::vector<EdgeEvent> decoded;
  uint64_t sequence = 0;
  TraceContext out = MakeTrace();
  ASSERT_TRUE(DecodePublishBatch(DecodeWhole(pre_trace).payload, &decoded,
                                 &sequence, &out)
                  .ok());
  EXPECT_FALSE(out.active());
}

TEST(WireTest, PublishBatchRejectsForgedTraceStampCount) {
  const std::vector<EdgeEvent> events = {MakeEvent(1, 2, 100)};
  const TraceContext trace = MakeTrace();
  std::string frame;
  AppendPublishBatch(events, &frame, 0, &trace);
  std::string payload = DecodeWhole(frame).payload;
  // The stamp count byte sits right before the 13-byte stamps at the tail.
  const size_t count_pos = payload.size() - trace.stamps.size() * 13 - 1;
  payload[count_pos] = '\xff';  // 255 stamps: over the 64 cap
  std::vector<EdgeEvent> decoded;
  uint64_t sequence = 0;
  TraceContext out;
  EXPECT_TRUE(DecodePublishBatch(payload, &decoded, &sequence, &out)
                  .IsInvalidArgument());
  // An in-cap count that overstates the actual bytes is a mismatch too.
  payload[count_pos] = '\x08';
  EXPECT_TRUE(DecodePublishBatch(payload, &decoded, &sequence, &out)
                  .IsInvalidArgument());
  // And a truncated stamp list is rejected, never partially decoded.
  std::string truncated = DecodeWhole(frame).payload;
  truncated.resize(truncated.size() - 5);
  EXPECT_TRUE(DecodePublishBatch(truncated, &decoded, &sequence, &out)
                  .IsInvalidArgument());
}

TEST(WireTest, AckTraceEchoRoundTrips) {
  // The plain ack stays byte-empty (legacy shape)...
  std::string plain;
  AppendAck(&plain);
  const Frame plain_decoded = DecodeWhole(plain);
  EXPECT_EQ(plain_decoded.tag, MessageTag::kAck);
  EXPECT_TRUE(plain_decoded.payload.empty());
  TraceContext out = MakeTrace();
  ASSERT_TRUE(DecodeAck(plain_decoded.payload, &out).ok());
  EXPECT_FALSE(out.active()) << "stale out-param state must be cleared";

  // ...and the traced ack echoes the daemon's stamps.
  const TraceContext trace = MakeTrace();
  std::string traced;
  AppendAck(&traced, &trace);
  ASSERT_TRUE(DecodeAck(DecodeWhole(traced).payload, &out).ok());
  EXPECT_EQ(out, trace);

  // Residue that does not lead with the trace marker is corruption.
  std::string mangled = DecodeWhole(traced).payload;
  mangled[0] = '\x7d';
  EXPECT_TRUE(DecodeAck(mangled, &out).IsInvalidArgument());
}

TEST(WireTest, StatsTextReplyRoundTrips) {
  const std::string text =
      "# source broker\ncounter rpc_requests_served 42\n";
  std::string frame;
  AppendStatsTextReply(text, &frame);
  const Frame decoded = DecodeWhole(frame);
  EXPECT_EQ(decoded.tag, MessageTag::kStatsTextReply);
  std::string out;
  ASSERT_TRUE(DecodeStatsTextReply(decoded.payload, &out).ok());
  EXPECT_EQ(out, text);

  // Empty exposition is legal (a fresh registry).
  frame.clear();
  AppendStatsTextReply("", &frame);
  ASSERT_TRUE(DecodeStatsTextReply(DecodeWhole(frame).payload, &out).ok());
  EXPECT_TRUE(out.empty());
}

// --- session negotiation / multiplexing --------------------------------------

TEST(WireTest, HelloRoundTrip) {
  std::string frame;
  AppendHello(kFeatureMux, &frame);
  const Frame decoded = DecodeWhole(frame);
  EXPECT_EQ(decoded.tag, MessageTag::kHello);
  uint32_t version = 0, features = 0;
  ASSERT_TRUE(DecodeHello(decoded.payload, &version, &features).ok());
  EXPECT_EQ(version, kProtocolVersion);
  EXPECT_EQ(features, kFeatureMux);
}

TEST(WireTest, HelloToleratesFutureTailButNotMissingMarker) {
  std::string frame;
  AppendHello(kFeatureMux, &frame);
  Frame decoded = DecodeWhole(frame);
  // Tail-growth: a future peer appends fields; this decoder ignores them.
  decoded.payload += std::string(12, '\x5a');
  uint32_t version = 0, features = 0;
  EXPECT_TRUE(DecodeHello(decoded.payload, &version, &features).ok());
  // But the leading marker is mandatory — residue is never a hello.
  std::string mangled = decoded.payload;
  mangled[0] = '\x7e';
  EXPECT_TRUE(
      DecodeHello(mangled, &version, &features).IsInvalidArgument());
  EXPECT_TRUE(DecodeHello("", &version, &features).IsInvalidArgument());
}

TEST(WireTest, HelloReplyRoundTrip) {
  const Placement placement{.group_size = 20, .partition = 7,
                            .salt = 0xfeedface'0000beefull};
  std::string frame;
  AppendHelloReply(kFeatureMux, 64, placement, &frame);
  const Frame decoded = DecodeWhole(frame);
  EXPECT_EQ(decoded.tag, MessageTag::kHelloReply);
  uint32_t version = 0, features = 0, max_inflight = 0;
  Placement out;
  ASSERT_TRUE(DecodeHelloReply(decoded.payload, &version, &features,
                               &max_inflight, &out)
                  .ok());
  EXPECT_EQ(version, kProtocolVersion);
  EXPECT_EQ(features, kFeatureMux);
  EXPECT_EQ(max_inflight, 64u);
  EXPECT_EQ(out, placement);
  EXPECT_TRUE(DecodeHelloReply("\x01\x02", &version, &features, &max_inflight,
                               &out)
                  .IsInvalidArgument());
}

TEST(WireTest, HelloReplyWithoutWholePlacementIsRejected) {
  // The placement is what a broker checks on every dial, so a reply that
  // lacks it, or cuts it short anywhere, is malformed — while bytes after
  // the salt are a newer server's tail and are ignored. The version is
  // still read, so a client can name version skew first.
  std::string frame;
  AppendHelloReply(kFeatureMux, 64, Placement{}, &frame);
  const std::string whole = DecodeWhole(frame).payload;
  uint32_t version = 0, features = 0, max_inflight = 0;
  Placement out;
  for (size_t cut = 12; cut < whole.size(); ++cut) {
    version = 0;
    EXPECT_TRUE(DecodeHelloReply(whole.substr(0, cut), &version, &features,
                                 &max_inflight, &out)
                    .IsInvalidArgument())
        << cut << " of " << whole.size() << " bytes";
    EXPECT_EQ(version, kProtocolVersion) << cut << " bytes";
  }
  EXPECT_TRUE(DecodeHelloReply(whole + "future", &version, &features,
                               &max_inflight, &out)
                  .ok());
}

TEST(WireTest, MuxRequestRoundTrip) {
  std::string inner;
  AppendCheckpoint(42, &inner);
  std::string envelope;
  AppendMuxRequest(0xDEADBEEFCAFE, inner, &envelope);
  const Frame decoded = DecodeWhole(envelope);
  EXPECT_EQ(decoded.tag, MessageTag::kMuxRequest);
  uint64_t id = 0;
  Frame unwrapped;
  ASSERT_TRUE(DecodeMuxRequest(decoded.payload, &id, &unwrapped).ok());
  EXPECT_EQ(id, 0xDEADBEEFCAFEull);
  EXPECT_EQ(unwrapped.tag, MessageTag::kCheckpoint);
  Timestamp created_at = 0;
  ASSERT_TRUE(DecodeCheckpoint(unwrapped.payload, &created_at).ok());
  EXPECT_EQ(created_at, 42);
}

TEST(WireTest, MuxResponseRoundTripWithLastFlag) {
  std::string inner;
  AppendAck(&inner);
  std::string envelope;
  AppendMuxResponse(17, /*last=*/true, inner, &envelope);
  const Frame decoded = DecodeWhole(envelope);
  EXPECT_EQ(decoded.tag, MessageTag::kMuxResponse);
  uint64_t id = 0;
  bool last = false;
  Frame unwrapped;
  ASSERT_TRUE(DecodeMuxResponse(decoded.payload, &id, &last, &unwrapped).ok());
  EXPECT_EQ(id, 17u);
  EXPECT_TRUE(last);
  EXPECT_EQ(unwrapped.tag, MessageTag::kAck);
}

TEST(WireTest, WrapMuxResponsesMarksOnlyTheFinalFrameLast) {
  // A chunked reply: three recommendation frames wrapped under one id.
  std::vector<Recommendation> recs(7);
  for (size_t i = 0; i < recs.size(); ++i) {
    recs[i].user = static_cast<VertexId>(i);
    recs[i].item = static_cast<VertexId>(100 + i);
  }
  std::string frames;
  AppendRecommendationsReplyChunked(recs, /*max_payload_bytes=*/64, &frames);
  std::string wrapped;
  ASSERT_TRUE(WrapMuxResponses(99, frames, &wrapped).ok());

  // Walk the envelopes: same id on each, `last` only on the final one,
  // and the unwrapped chunks re-assemble the original list.
  std::vector<Recommendation> reassembled;
  size_t offset = 0;
  size_t envelopes = 0;
  bool saw_last = false;
  while (offset < wrapped.size()) {
    uint32_t body_len = 0;
    std::memcpy(&body_len, wrapped.data() + offset, sizeof(body_len));
    const std::string frame = wrapped.substr(
        offset, kFrameHeaderBytes + body_len);
    offset += frame.size();
    const Frame decoded = DecodeWhole(frame);
    ASSERT_EQ(decoded.tag, MessageTag::kMuxResponse);
    uint64_t id = 0;
    bool last = false;
    Frame inner;
    ASSERT_TRUE(DecodeMuxResponse(decoded.payload, &id, &last, &inner).ok());
    EXPECT_EQ(id, 99u);
    EXPECT_FALSE(saw_last) << "frames after the last-marked one";
    saw_last = last;
    bool has_more = false;
    ASSERT_TRUE(DecodeRecommendationsReply(inner.payload, &reassembled,
                                           &has_more)
                    .ok());
    EXPECT_EQ(has_more, !last) << "chunk has_more and envelope last disagree";
    envelopes++;
  }
  EXPECT_TRUE(saw_last);
  EXPECT_GT(envelopes, 1u) << "test meant to exercise a multi-frame reply";
  ASSERT_EQ(reassembled.size(), recs.size());
  EXPECT_TRUE(WrapMuxResponses(1, "", &wrapped).IsInvalidArgument());
  EXPECT_TRUE(WrapMuxResponses(1, "garbage", &wrapped).IsInvalidArgument());
}

TEST(WireTest, TruncatedMuxPayloadsAreInvalidNotCrash) {
  uint64_t id = 0;
  bool last = false;
  Frame inner;
  EXPECT_TRUE(DecodeMuxRequest("", &id, &inner).IsInvalidArgument());
  EXPECT_TRUE(DecodeMuxRequest("1234567", &id, &inner).IsInvalidArgument());
  EXPECT_TRUE(DecodeMuxRequest("12345678", &id, &inner).IsInvalidArgument())
      << "id but no inner tag";
  EXPECT_TRUE(DecodeMuxResponse("", &id, &last, &inner).IsInvalidArgument());
  EXPECT_TRUE(
      DecodeMuxResponse("123456781", &id, &last, &inner).IsInvalidArgument())
      << "id + last but no inner tag";
}

TEST(WireTest, OrderSensitivityClassification) {
  // The mutating requests must never be reordered; the reads may overtake.
  for (const MessageTag tag :
       {MessageTag::kPublishBatch, MessageTag::kDrain, MessageTag::kCheckpoint,
        MessageTag::kKillReplica, MessageTag::kRecoverReplica}) {
    EXPECT_TRUE(IsOrderSensitive(tag)) << MessageTagName(tag);
  }
  for (const MessageTag tag :
       {MessageTag::kTakeRecommendations, MessageTag::kStatsText,
        MessageTag::kPing, MessageTag::kHello}) {
    EXPECT_FALSE(IsOrderSensitive(tag)) << MessageTagName(tag);
  }
}

}  // namespace
}  // namespace magicrecs::net
