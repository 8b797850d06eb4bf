// The magicrecs wire protocol: dependency-free, length-prefixed binary
// frames over a byte stream, reusing the persist/ codec primitives and the
// masked CRC-32C that already guards the WAL.
//
// Endianness: the wire format is DEFINED as little-endian and implemented
// with the persist/codec.h memcpy primitives, which are correct on every
// supported (LE) target; a big-endian port byte-swaps in codec.h and
// nowhere else — the same stance the on-disk formats take.
//
// Frame layout (little-endian, same framing discipline as a WAL record):
//
//   frame := body_len:u32  masked_crc32c(body):u32  body
//   body  := tag:u8  payload
//
// Session (protocol version 5). There is one session protocol: every
// connection opens with a hello, and every request after it travels in a
// mux envelope.
//   kHello              marker:u8=0x01 proto_version:u32 features:u32
//   kHelloReply         proto_version:u32 features:u32 max_inflight:u32
//                       group_size:u32 partition:u32 salt:u64
//   kMuxRequest         request_id:u64 inner_tag:u8 inner_payload
//   kMuxResponse        request_id:u64 last:u8 inner_tag:u8 inner_payload
//     The first frame a client sends is kHello naming kProtocolVersion and
//     asking for kFeatureMux. The hello is the protocol's one version
//     gate: both sides compare proto_version, and a mismatch fails the
//     session (the server answers kError(FailedPrecondition) and closes;
//     the client fails the dial). The server answers kHelloReply granting
//     kFeatureMux | kFeatureTrace plus the per-connection in-flight request
//     cap it enforces, then its placement (ClusterTransport::placement()):
//     the deployment's partition count, the one global partition it hosts
//     (UINT32_MAX when it hosts every partition) and its partitioner salt.
//     A fan-out broker checks the placement on every dial. A reply that
//     lacks any of it is rejected; bytes after the salt are ignored (tail
//     growth). Any other first frame, a second hello, or a hello
//     that does not ask for mux is refused the same way: kError
//     (FailedPrecondition), then the connection is closed. After the hello,
//     each request is a kMuxRequest envelope around an ordinary request
//     body; every reply frame comes back as a kMuxResponse envelope
//     carrying the same request_id, and replies for DIFFERENT request_ids
//     may arrive in any order (frames of one chunked reply stay ordered;
//     `last` marks its final frame). Request ids are chosen by the client
//     and opaque to the server; reusing an id while it is in flight is a
//     client bug. After the hello reply a server sends a bare frame only
//     as a kError: one that precedes a close, or the answer to an envelope
//     too short to decode.
//
// Request bodies (inside a kMuxRequest):
//   0x01                  retired (the single-event publish); never reuse
//   kPublishBatch       count:u32  (src dst created_at action)*
//                       marker:u8=0x01 batch_seq:u64  [trace-tail]
//     Every batch carries a non-zero batch_seq, and the server refuses a
//     batch without one (InvalidArgument). The sequence makes the frame
//     idempotent: a broker that timed out on a slow daemon replays the
//     same frame (same sequence) on a fresh connection, and the server
//     acks the duplicate without applying it (rpc_server.h, the dedup
//     window). The marker byte means presence is never inferred from
//     payload length alone: a forged count that leaves tail-sized residue
//     is rejected, not silently decoded as a sequence. The codec itself
//     still encodes and decodes a batch without the tail (a sequence of 0).
//   kTakeRecommendations  broker:u64 count:u32 (partition:u32 ack:u64)*
//     `broker` is the taking broker's random per-incarnation id, never 0.
//     The entries are its gather cursor for every daemon, so one encoded
//     request serves every lane: each names a daemon by the partition its
//     placement hosts (UINT32_MAX for an all-hosting daemon) and the take
//     id of the last reply the broker merged from it. A daemon reads its
//     own entry; a missing entry means ack 0, which no take id uses. A take
//     is acknowledged, not destructive: the daemon keeps each broker's last
//     reply until that broker's ack names the reply's id, and carries it
//     into that broker's next reply otherwise (rpc_server.h, "Acknowledged
//     takes"). A forged count that the payload cannot back is rejected.
//   kDrain                (empty)
//   kCheckpoint         created_at:i64
//   kKillReplica        partition:u32 replica:u32
//   kRecoverReplica     partition:u32 replica:u32
//   0x08                  retired (the typed stats request); never reuse
//   kPing                 (empty)
//     Answered by kAck: a liveness probe that touches no cluster state.
//   kStatsText            (empty)
//     Answered by kStatsTextReply: the serving process's metrics registry
//     rendered in the stable text exposition (docs/observability.md), the
//     protocol's one stats surface.
//
// Reply bodies (inside a kMuxResponse):
//   kAck                  (empty)
//                         [marker:u8=0x02 trace-tail]
//     The bracketed trace tail echoes a publish-batch's TraceContext back
//     with the daemon's stamps added (see "Trace propagation" below). It is
//     emitted only when the acked request itself carried a trace — trace
//     in, trace out.
//   kError              code:u8 message-bytes (to end of payload)
//   kRecommendationsReply has_more:u8 count:u32 rec* take:u64   where
//     rec := user:u32 item:u32 witness_count:u32 trigger:u32
//            event_time:i64  nwitnesses:u32 witness:u32*
//     A gather too large for one frame streams as several reply frames;
//     has_more != 0 on all but the last. One request, N ordered frames,
//     every one naming the same take id: the value the broker's next take
//     acks once it merged the whole stream. Nothing follows the take id:
//     a trailing byte is rejected.
//   0x83                  retired (the typed stats reply); never reuse
//   kStatsTextReply       the registry text exposition, raw UTF-8 bytes
//
// Growth: payloads grow only at the tail, behind a marker byte. Any
// change an older peer cannot read bumps kProtocolVersion, so mixed
// versions fail at the hello instead of mid-stream
// (docs/wire-protocol.md, "Versioning and compatibility").
//
// Trace propagation:
//   trace-tail := marker:u8=0x02 trace_id:u64 origin_us:i64 count:u8
//                 (stage:u8 party:u32 at_us:i64)*
//     A sampled publish-batch appends the trace tail AFTER the batch_seq
//     tail (tails keep their introduction order; a 0x02 tail may appear
//     without a 0x01 tail but never before one). The daemon stamps
//     daemon-dequeue and detector-apply and echoes the context in the ack's
//     trace tail; no other payload carries one. count is capped at
//     kMaxTraceStamps (64) — a forged count is rejected before allocating.
//     Unsampled batches carry no trace tail.
//
// Ordering: requests that mutate the event stream (publish-batch, drain,
// checkpoint, replica ops) are applied in per-connection arrival order;
// out-of-order completion is only allowed for reads (gather, stats-text,
// ping), which may overtake a stalled write. Sequence numbers
// for published EVENTS are not carried: the server's broker assigns them
// at ingest, exactly as the in-process broker does (batch_seq identifies
// a frame, not an event).
//
// Robustness contract (tests/net/): a truncated frame, an oversized length
// prefix, a CRC mismatch, or an unknown tag decodes to a Status error —
// never a crash, an allocation bomb, or a hang.

#ifndef MAGICRECS_NET_WIRE_H_
#define MAGICRECS_NET_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cluster/transport.h"
#include "core/recommendation.h"
#include "stream/event.h"
#include "util/result.h"
#include "util/status.h"
#include "util/trace.h"
#include "util/types.h"

namespace magicrecs::net {

/// Message discriminator, first byte of every frame body. Requests occupy
/// the low range, responses have the top bit set.
enum class MessageTag : uint8_t {
  // 0x01 is retired (the single-event publish) and must never be reused.
  kPublishBatch = 0x02,
  kTakeRecommendations = 0x03,
  kDrain = 0x04,
  kCheckpoint = 0x05,
  kKillReplica = 0x06,
  kRecoverReplica = 0x07,
  // 0x08 is retired (the typed stats request) and must never be reused.
  kPing = 0x09,
  kHello = 0x0A,
  kMuxRequest = 0x0B,
  kStatsText = 0x0C,

  kAck = 0x80,
  kError = 0x81,
  kRecommendationsReply = 0x82,
  // 0x83 is retired (the typed stats reply) and must never be reused.
  kHelloReply = 0x84,
  kMuxResponse = 0x85,
  kStatsTextReply = 0x86,
};

/// Wire protocol version carried by the hello exchange; both sides refuse
/// a peer that names another. Version 2 made the hello mandatory, every
/// publish-batch's batch_seq required, and retired tag 0x01 — a version-1
/// peer would fail on those mid-stream, so it is refused at the hello.
/// Version 3 ended the stats reply at the salt, a layout a version-2
/// decoder rejects. Version 4 retires the stats request and reply (tags
/// 0x08 and 0x83) and ends kHelloReply with the server's placement, which a
/// version-3 client never reads. Version 5 makes the take acknowledged: the
/// request carries the broker's id and cursors and every reply chunk names
/// its take id, layouts a version-4 decoder rejects.
inline constexpr uint32_t kProtocolVersion = 5;

/// Hello feature bits. A client asks for kFeatureMux; the server grants
/// both bits to every hello that does.
inline constexpr uint32_t kFeatureMux = 1u << 0;
inline constexpr uint32_t kFeatureTrace = 1u << 1;

/// True for requests that must be applied in per-connection arrival order
/// (they mutate the event stream or durable state); false for reads, which
/// a multiplexing server may run concurrently and answer out of order.
bool IsOrderSensitive(MessageTag tag);

std::string_view MessageTagName(MessageTag tag);

/// body_len:u32 + masked_crc:u32.
inline constexpr size_t kFrameHeaderBytes = 8;

/// Upper bound on a frame body. Guards the daemon against allocation bombs
/// from hostile or desynchronized peers: a length prefix above this is a
/// protocol error, not an allocation.
inline constexpr size_t kMaxFrameBodyBytes = 16u << 20;

/// One decoded frame.
struct Frame {
  MessageTag tag;
  std::string payload;  // body minus the tag byte
};

// --- frame assembly ----------------------------------------------------------

/// Appends a complete frame (header + tag + payload) to *out.
void AppendFrame(MessageTag tag, std::string_view payload, std::string* out);

/// Validates a frame header. On success *body_len / *masked_crc are set;
/// InvalidArgument for a zero-length body, ResourceExhausted for a length
/// above kMaxFrameBodyBytes (the caller must NOT allocate body_len first).
Status DecodeFrameHeader(const uint8_t header[kFrameHeaderBytes],
                         uint32_t* body_len, uint32_t* masked_crc);

/// Validates the body CRC and extracts the tag. Corruption on mismatch.
Status DecodeFrameBody(const uint8_t* body, size_t body_len,
                       uint32_t masked_crc, MessageTag* tag);

// --- request encoders / decoders ---------------------------------------------

/// `batch_sequence` != 0 appends the idempotency tail (see the payload
/// table); 0 omits it, which a server refuses. A non-null active() `trace`
/// appends the trace tail after it.
void AppendPublishBatch(std::span<const EdgeEvent> events, std::string* out,
                        uint64_t batch_sequence = 0,
                        const TraceContext* trace = nullptr);
void AppendEmptyRequest(MessageTag tag, std::string* out);  // drain/ping/...
void AppendCheckpoint(Timestamp created_at, std::string* out);

/// One entry of a take request: the daemon hosting `partition` last had
/// its reply `take` merged (0: none yet).
struct TakeAck {
  uint32_t partition = 0;
  uint64_t take = 0;

  friend bool operator==(const TakeAck&, const TakeAck&) = default;
};
/// `broker` is the taking broker's id (the daemon refuses 0).
void AppendTakeRecommendations(uint64_t broker, std::span<const TakeAck> acks,
                               std::string* out);
void AppendReplicaOp(MessageTag tag, uint32_t partition, uint32_t replica,
                     std::string* out);

/// `*batch_sequence` (optional) receives the idempotency tail, or 0 when
/// the payload has none. `*trace` (optional) receives the trace tail, or
/// an inactive context when absent.
Status DecodePublishBatch(std::string_view payload,
                          std::vector<EdgeEvent>* events,
                          uint64_t* batch_sequence = nullptr,
                          TraceContext* trace = nullptr);
Status DecodeCheckpoint(std::string_view payload, Timestamp* created_at);
Status DecodeTakeRecommendations(std::string_view payload, uint64_t* broker,
                                 std::vector<TakeAck>* acks);
Status DecodeReplicaOp(std::string_view payload, uint32_t* partition,
                       uint32_t* replica);

// --- session negotiation / multiplexing ---------------------------------------

void AppendHello(uint32_t features, std::string* out);
Status DecodeHello(std::string_view payload, uint32_t* proto_version,
                   uint32_t* features);

void AppendHelloReply(uint32_t features, uint32_t max_inflight,
                      const Placement& placement, std::string* out);

/// Rejects a reply without the whole placement. *proto_version is set
/// whenever the payload holds one, even if the rest is rejected, so a
/// caller can report version skew ahead of the decode error.
Status DecodeHelloReply(std::string_view payload, uint32_t* proto_version,
                        uint32_t* features, uint32_t* max_inflight,
                        Placement* placement);

/// Wraps ONE complete frame (header + body, as produced by the Append*
/// encoders) into a kMuxRequest envelope frame. `frame` must hold exactly
/// one frame; violations are programming errors caught by assert.
void AppendMuxRequest(uint64_t request_id, std::string_view frame,
                      std::string* out);

/// Unwraps a kMuxRequest payload into the id and the inner frame.
Status DecodeMuxRequest(std::string_view payload, uint64_t* request_id,
                        Frame* inner);

/// Wraps one reply frame into a kMuxResponse envelope; `last` marks the
/// final frame of the logical reply.
void AppendMuxResponse(uint64_t request_id, bool last, std::string_view frame,
                       std::string* out);

/// Walks a buffer of complete reply frames (e.g. a chunked recommendations
/// reply) and wraps each into a kMuxResponse envelope, marking the final
/// one `last`. InvalidArgument if `frames` is empty or not frame-aligned.
Status WrapMuxResponses(uint64_t request_id, std::string_view frames,
                        std::string* out);

/// Unwraps a kMuxResponse payload.
Status DecodeMuxResponse(std::string_view payload, uint64_t* request_id,
                         bool* last, Frame* inner);

// --- response encoders / decoders --------------------------------------------

/// A non-null active() `trace` appends the ack's trace tail — echo a trace
/// only when the acked request itself carried one.
void AppendAck(std::string* out, const TraceContext* trace = nullptr);
void AppendError(const Status& status, std::string* out);

/// `*trace` (optional) receives the ack's trace tail, or an inactive
/// context when absent (the empty payload).
Status DecodeAck(std::string_view payload, TraceContext* trace = nullptr);

/// One reply frame holding exactly these recommendations, named `take`.
void AppendRecommendationsReply(std::span<const Recommendation> recs,
                                bool has_more, std::string* out,
                                uint64_t take = 0);

/// Splits a gather across as many reply frames as its encoded size needs
/// (target payload <= max_payload_bytes, one oversized rec still ships
/// alone), each named `take`. Always emits at least one frame so an empty
/// gather gets its empty reply.
void AppendRecommendationsReplyChunked(std::span<const Recommendation> recs,
                                       size_t max_payload_bytes,
                                       std::string* out, uint64_t take = 0);

/// The registry text exposition as a kStatsTextReply frame. The payload is
/// the raw text; DecodeStatsTextReply exists for symmetry.
void AppendStatsTextReply(std::string_view text, std::string* out);
Status DecodeStatsTextReply(std::string_view payload, std::string* text);

/// Default chunk budget: comfortably under kMaxFrameBodyBytes.
inline constexpr size_t kRecommendationsChunkBytes = 4u << 20;

/// Rebuilds the Status carried by a kError payload (always non-OK; a
/// mangled error payload decodes to Internal).
Status DecodeError(std::string_view payload);

/// APPENDS the frame's recommendations to *recs (the caller accumulates
/// across a chunked reply) and reports whether more frames follow and,
/// in `*take` (optional), the take id the frame names.
Status DecodeRecommendationsReply(std::string_view payload,
                                  std::vector<Recommendation>* recs,
                                  bool* has_more, uint64_t* take = nullptr);

}  // namespace magicrecs::net

#endif  // MAGICRECS_NET_WIRE_H_
