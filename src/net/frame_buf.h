// Refcounted frame buffers and the iovec outbox chain — the zero-copy
// egress layer under the reactor and the mux client.
//
// A FrameBuf is an immutable sequence of byte segments that together form
// one or more complete wire frames (net/wire.h framing). Each segment is a
// [block, off, len) slice of a refcounted heap block, so the same payload
// bytes can ride many frames at once: the fan-out broker encodes a publish
// batch ONCE and every per-daemon kMuxRequest envelope, every in-flight
// pipeline slot, and every replay queue entry shares that block instead of
// copying it. Frame headers (length, CRC, tag, envelope prefix) live in a
// small owned block per frame with the CRC patched in place — the bytes on
// the wire are byte-identical to the flat-string encoders, which the egress
// tests lock.
//
// An OutboxChain is what a connection owes its peer: a FIFO of FrameBufs
// plus a front cursor. FillIov exposes the unsent bytes as an iovec array
// for scatter/gather writev; Advance moves the cursor over however many
// bytes the kernel took. Nothing is ever concatenated or memmoved — the
// compaction (`erase(0, off)`) the old string outbox needed under
// backpressure is gone structurally, so a slow reader draining a 24 MiB
// reply costs O(bytes), not O(bytes^2).
//
// Thread-compatibility: FrameBuf and OutboxChain are plain values — the
// refcount on the shared blocks is the only cross-thread state, and
// shared_ptr's control block makes concurrent copies/destructions of
// DIFFERENT FrameBufs over the SAME block safe (the TSan fan-out suite
// exercises exactly this). A single FrameBuf/OutboxChain instance is
// confined to one thread or an external lock, like any value type.

#ifndef MAGICRECS_NET_FRAME_BUF_H_
#define MAGICRECS_NET_FRAME_BUF_H_

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/wire.h"
#include "util/result.h"
#include "util/status.h"

namespace magicrecs::net {

/// Upper bound on iovec entries handed to one writev/sendmsg call — kept
/// well under any platform IOV_MAX so a long chain simply flushes in
/// several calls.
inline constexpr int kMaxIovPerWritev = 64;

class FrameBuf {
 public:
  /// A refcounted, immutable byte block. Payload bytes are encoded once
  /// into a block; every frame that carries them holds a reference.
  using Block = std::shared_ptr<const std::string>;

  /// One contiguous slice of a block.
  struct Segment {
    Block block;
    size_t off = 0;
    size_t len = 0;
    const char* data() const { return block->data() + off; }
  };

  FrameBuf() = default;

  static Block MakeBlock(std::string bytes);

  /// Takes ownership of an already-framed byte string (one or more
  /// complete frames, e.g. a flat-encoder output) as a single-block buf.
  static FrameBuf Wrap(std::string bytes);

  /// Wraps an existing block (all of it) without copying.
  static FrameBuf FromBlock(Block block);

  /// Encodes one frame whose body is [tag, prefix, body...]: builds an
  /// owned header block `len:u32 crc:u32 tag:u8 prefix`, chains the CRC
  /// across the shared body segments, and patches it in place —
  /// byte-identical to AppendFrame over the flattened body. `prefix` is
  /// the owned leading piece of the body (e.g. a mux envelope's
  /// request_id), `body` the shared tail (may be empty). When `body_crc`
  /// is given (the unmasked CRC-32C over the concatenated body segments,
  /// seed 0) the frame CRC is derived by combine instead of re-walking
  /// the payload — same bytes, O(log n) instead of O(n).
  static FrameBuf Frame(MessageTag tag, std::string_view prefix,
                        const std::vector<Segment>& body,
                        const uint32_t* body_crc = nullptr);

  /// The frame body (tag + payload) of a single-frame buf as shared
  /// segments — the 8-byte frame header is sliced off. Used to build
  /// envelope frames that re-carry an inner frame's body without copying
  /// it. Empty when the buf does not hold exactly one well-formed frame.
  std::vector<Segment> BodySegments() const;

  /// Splices `other`'s segments onto the end (steals its references).
  void Append(FrameBuf other);

  size_t size() const { return size_; }
  size_t frame_count() const { return frame_count_; }
  bool empty() const { return size_ == 0; }
  const std::vector<Segment>& segments() const { return segments_; }

  /// Concatenates every segment — tests compare this against the flat
  /// encoders; production egress never flattens.
  std::string Flatten() const;

 private:
  std::vector<Segment> segments_;
  size_t size_ = 0;
  size_t frame_count_ = 0;
};

/// Client-side mux envelope that shares the request frame's payload block:
/// byte-identical to AppendMuxRequest(request_id, frame.Flatten()).
/// `frame` must hold exactly one complete frame.
FrameBuf WrapMuxRequestShared(uint64_t request_id, const FrameBuf& frame);

/// Server-side mux response wrap that shares the inner reply block: one
/// kMuxResponse envelope per frame in `frames` (last flagged), each body a
/// slice of `frames` — byte-identical to WrapMuxResponses(request_id, ...).
/// InvalidArgument when `frames` is empty or not frame-aligned.
Result<FrameBuf> WrapMuxResponsesShared(uint64_t request_id,
                                        FrameBuf::Block frames);

/// What a connection owes its peer: FrameBufs in send order plus a cursor
/// over the partially-sent front. No byte is ever copied or moved after
/// Append — flushing is FillIov -> writev -> Advance.
class OutboxChain {
 public:
  void Append(FrameBuf buf);

  bool empty() const { return pending_bytes_ == 0; }
  size_t pending_bytes() const { return pending_bytes_; }

  /// Fills up to `max_iov` iovec entries with the unsent bytes, starting
  /// at the cursor. Returns the entry count (0 when empty). The pointers
  /// stay valid until Advance or Clear touches the segments they cover.
  int FillIov(struct iovec* iov, int max_iov) const;

  /// Moves the cursor forward `bytes` (as reported by writev). Returns how
  /// many frames were fully retired by this advance — the
  /// rpc_frames_per_writev histogram's sample. `bytes` must not exceed
  /// pending_bytes().
  size_t Advance(size_t bytes);

  void Clear();

 private:
  std::deque<FrameBuf> bufs_;
  size_t front_seg_ = 0;    ///< index of the cursor segment in bufs_.front()
  size_t front_off_ = 0;    ///< bytes of that segment already sent
  size_t pending_bytes_ = 0;
};

}  // namespace magicrecs::net

#endif  // MAGICRECS_NET_FRAME_BUF_H_
