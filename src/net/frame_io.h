// Frame <-> socket plumbing shared by the server and the client: one place
// that knows a frame is "8-byte header, then body", so both sides enforce
// the same length / CRC discipline before a single payload byte is trusted.

#ifndef MAGICRECS_NET_FRAME_IO_H_
#define MAGICRECS_NET_FRAME_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "net/socket.h"
#include "net/wire.h"
#include "util/status.h"

namespace magicrecs::net {

/// Reads one complete frame. `*clean_eof` (optional) is set when the peer
/// closed the connection between frames — the orderly end of a session.
/// Errors:
///   Unavailable       — connection closed or reset (incl. mid-frame)
///   InvalidArgument   — zero-length body
///   ResourceExhausted — length prefix above kMaxFrameBodyBytes (nothing
///                       is allocated; the stream is desynchronized)
///   Corruption        — body CRC mismatch
Status ReadFrame(TcpSocket* socket, Frame* frame, bool* clean_eof = nullptr);

/// Writes pre-assembled frame bytes (from the Append* wire encoders).
Status WriteFrames(TcpSocket* socket, const std::string& bytes);

/// Incremental frame parser for the non-blocking reactor: bytes arrive in
/// arbitrary slices (a header split across two reads, ten frames in one),
/// Append() buffers them, Next() pulls complete frames one at a time.
///
/// Enforces the same discipline as ReadFrame — the length bound BEFORE any
/// allocation, the body CRC before a payload byte is trusted — so the
/// reactor and the blocking client reader share one robustness contract.
/// After Next() returns an error the stream is desynchronized and the
/// connection must be dropped.
class FrameAssembler {
 public:
  /// Buffers `n` more bytes from the wire.
  void Append(const char* data, size_t n);

  /// Extracts the next complete frame into *frame. `*ready` is false (with
  /// an OK status) when the buffered bytes do not yet hold one. Errors:
  ///   InvalidArgument   — zero-length body
  ///   ResourceExhausted — length prefix above kMaxFrameBodyBytes (the
  ///                       oversized body is never buffered whole: the
  ///                       check runs as soon as the 8 header bytes exist)
  ///   Corruption        — body CRC mismatch
  Status Next(Frame* frame, bool* ready);

  /// True when a partial frame is buffered — EOF now means a truncated
  /// frame, not an orderly close.
  bool mid_frame() const { return buffer_.size() - consumed_ > 0; }

  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  size_t consumed_ = 0;  ///< parsed-and-released prefix of buffer_
};

}  // namespace magicrecs::net

#endif  // MAGICRECS_NET_FRAME_IO_H_
