// Cross-process trace context for the publish -> recommendation pipeline.
//
// A sampled batch carries one TraceContext across the wire: the broker
// stamps it at encode time, every daemon stamps dequeue and detector-apply,
// and the broker stamps the gather that finally carries the batch's
// recommendations back. The stamps, ordered by (party, stage), are the
// paper's "where did the latency go" decomposition measured on a live
// deployment instead of in a bench harness.
//
// The context is deliberately tiny and value-typed: a 64-bit id, the origin
// timestamp, and a bounded stamp list. Unsampled batches carry no context
// at all (the wire tail is absent and the fast path never touches a clock).

#ifndef MAGICRECS_UTIL_TRACE_H_
#define MAGICRECS_UTIL_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace magicrecs {

/// Pipeline stages a trace is stamped at. Values are wire-visible; never
/// renumber (tail-growth versioning applies to enums too: add at the end).
enum class TraceStage : uint8_t {
  kBrokerEncode = 1,   ///< broker serialized the batch into frames
  kDaemonDequeue = 2,  ///< daemon's RPC layer picked the request up
  /// The daemon's PublishBatch returned: applied by every replica detector
  /// in inline mode; in threaded mode only sequenced, logged and queued for
  /// the window thread (the name predates the threaded handoff).
  kDetectorApply = 3,
  kGather = 4,         ///< broker merged the gather carrying the results
};

std::string_view TraceStageName(TraceStage stage);

/// `party` values identifying who stamped. Partition-group daemons use
/// their global partition id; these two sentinels cover everyone else.
inline constexpr uint32_t kTracePartyBroker = 0xFFFFFFFFu;
inline constexpr uint32_t kTracePartyAllHosting = 0xFFFFFFFEu;

/// Upper bound on stamps per context, enforced by Stamp() and by the wire
/// decoder (a forged stamp count must not allocate).
inline constexpr size_t kMaxTraceStamps = 64;

/// One (who, what, when) entry.
struct TraceStamp {
  uint8_t stage = 0;    ///< TraceStage value
  uint32_t party = 0;   ///< partition id or a kTraceParty* sentinel
  int64_t at_us = 0;    ///< microseconds since the UNIX epoch

  bool operator==(const TraceStamp&) const = default;
};

/// The wire-carried span: id + origin + stamps. trace_id == 0 means "no
/// trace" and is never emitted (mirrors the batch-sequence convention).
struct TraceContext {
  uint64_t trace_id = 0;
  int64_t origin_us = 0;  ///< when the broker created the context
  std::vector<TraceStamp> stamps;

  bool active() const { return trace_id != 0; }

  /// Appends a stamp; silently drops past kMaxTraceStamps (a trace is a
  /// diagnostic, overflowing one must never fail a publish).
  void Stamp(TraceStage stage, uint32_t party, int64_t at_us);

  /// Latest stamp for `stage`, or nullptr.
  const TraceStamp* Find(TraceStage stage) const;

  /// Appends `other`'s stamps that are not already present (exact
  /// equality), respecting the cap. The broker folds each daemon's ack
  /// echo into the originating context with this: every echo repeats the
  /// broker-encode stamp, which must not duplicate per daemon.
  void MergeStampsFrom(const TraceContext& other);

  /// "trace 0xID origin=... broker-encode@+120us p3:daemon-dequeue@+310us ..."
  /// — offsets are relative to origin_us, stamps in recorded order.
  std::string ToString() const;

  bool operator==(const TraceContext&) const = default;
};

}  // namespace magicrecs

#endif  // MAGICRECS_UTIL_TRACE_H_
