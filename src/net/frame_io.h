// The one ingress parser for the wire: FrameAssembler turns socket bytes
// into frames at both ends. The daemon's epoll loop feeds it from
// non-blocking reads; the broker's MuxConnection, and every scripted peer in
// the tests, feed it from blocking reads through ReceiveInto/ReceiveFrame
// below. Either way a frame is "8-byte header, then body", the length bound
// is checked before any allocation and the body CRC before a payload byte is
// trusted, in one place.

#ifndef MAGICRECS_NET_FRAME_IO_H_
#define MAGICRECS_NET_FRAME_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "net/socket.h"
#include "net/wire.h"
#include "util/status.h"

namespace magicrecs::net {

/// Bytes one read asks the kernel for, at either end of the wire: a read
/// may complete many small frames (a run of acks) or one slice of a large
/// one.
inline constexpr size_t kReadChunkBytes = 64u << 10;

/// Incremental frame parser: bytes arrive in arbitrary slices (a header
/// split across two reads, ten frames in one), Append() buffers them,
/// Next() pulls complete frames one at a time.
///
/// Checks the length bound BEFORE any allocation and the body CRC before a
/// payload byte is trusted. After Next() returns an error the stream is
/// desynchronized and the connection must be dropped; the frames Next()
/// returned before the error were complete and intact.
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

/// One blocking read of up to kReadChunkBytes from `socket`, appended to
/// `assembler`. A socket must be read through one assembler for its whole
/// life: a read may carry bytes past the frame its caller wanted. Errors
/// (every one ends the session):
///   Unavailable — the peer closed the connection (between frames or in
///                 the middle of one), reset it, or stayed silent past the
///                 socket's SO_RCVTIMEO (TcpSocket::SetRecvTimeout)
///   Internal    — any other socket error
Status ReceiveInto(TcpSocket* socket, FrameAssembler* assembler);

/// Blocks until `assembler` holds the next complete frame, reading `socket`
/// through ReceiveInto as needed. Errors are ReceiveInto's and Next()'s.
Status ReceiveFrame(TcpSocket* socket, FrameAssembler* assembler,
                    Frame* frame);

}  // namespace magicrecs::net

#endif  // MAGICRECS_NET_FRAME_IO_H_
