#include "net/frame_io.h"

#include "util/str_format.h"

namespace magicrecs::net {

void FrameAssembler::Append(const char* data, size_t n) {
  // Compact opportunistically: once everything parsed so far has been
  // consumed, drop the dead prefix instead of growing without bound.
  if (consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > (64u << 10) && consumed_ > buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, n);
}

Status FrameAssembler::Next(Frame* frame, bool* ready) {
  *ready = false;
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return Status::OK();
  const uint8_t* header =
      reinterpret_cast<const uint8_t*>(buffer_.data() + consumed_);
  uint32_t body_len = 0;
  uint32_t masked_crc = 0;
  // The length bound is enforced the moment the header is complete: an
  // oversized claim is refused before its body ever accumulates here.
  MAGICRECS_RETURN_IF_ERROR(
      DecodeFrameHeader(header, &body_len, &masked_crc));
  if (available < kFrameHeaderBytes + body_len) return Status::OK();
  const uint8_t* body = header + kFrameHeaderBytes;
  MAGICRECS_RETURN_IF_ERROR(
      DecodeFrameBody(body, body_len, masked_crc, &frame->tag));
  frame->payload.assign(reinterpret_cast<const char*>(body) + 1,
                        body_len - 1);
  consumed_ += kFrameHeaderBytes + body_len;
  *ready = true;
  return Status::OK();
}

Status ReceiveInto(TcpSocket* socket, FrameAssembler* assembler) {
  char buf[kReadChunkBytes];
  MAGICRECS_ASSIGN_OR_RETURN(IoChunk chunk,
                             socket->ReadChunk(buf, sizeof(buf)));
  if (chunk.would_block) {
    // SO_RCVTIMEO expired (see SetRecvTimeout). Unavailable, like every
    // other condition that forces the connection to be abandoned.
    return Status::Unavailable(StrFormat(
        "recv timed out (%zu bytes of a frame buffered)",
        assembler->buffered()));
  }
  if (chunk.eof) {
    return assembler->mid_frame()
               ? Status::Unavailable(StrFormat(
                     "connection closed mid-frame (%zu bytes buffered)",
                     assembler->buffered()))
               : Status::Unavailable("connection closed by peer");
  }
  assembler->Append(buf, chunk.bytes);
  return Status::OK();
}

Status ReceiveFrame(TcpSocket* socket, FrameAssembler* assembler,
                    Frame* frame) {
  while (true) {
    bool ready = false;
    MAGICRECS_RETURN_IF_ERROR(assembler->Next(frame, &ready));
    if (ready) return Status::OK();
    MAGICRECS_RETURN_IF_ERROR(ReceiveInto(socket, assembler));
  }
}

}  // namespace magicrecs::net
