#include "net/frame_io.h"

#include <cstdint>

#include "persist/crc32.h"

namespace magicrecs::net {

Status ReadFrame(TcpSocket* socket, Frame* frame, bool* clean_eof) {
  uint8_t header[kFrameHeaderBytes];
  MAGICRECS_RETURN_IF_ERROR(
      socket->ReadFull(header, kFrameHeaderBytes, clean_eof));
  uint32_t body_len = 0;
  uint32_t masked_crc = 0;
  MAGICRECS_RETURN_IF_ERROR(
      DecodeFrameHeader(header, &body_len, &masked_crc));
  // Read the tag and the payload straight into their destinations; the body
  // CRC is seed-chained over the two parts, so the payload is never staged
  // in (and copied out of) a temporary body buffer.
  uint8_t tag_byte = 0;
  MAGICRECS_RETURN_IF_ERROR(socket->ReadFull(&tag_byte, 1));
  frame->payload.resize(body_len - 1);
  if (body_len > 1) {
    MAGICRECS_RETURN_IF_ERROR(
        socket->ReadFull(frame->payload.data(), body_len - 1));
  }
  uint32_t crc = persist::Crc32c(&tag_byte, 1);
  crc = persist::Crc32c(frame->payload.data(), frame->payload.size(), crc);
  if (crc != persist::UnmaskCrc(masked_crc)) {
    return Status::Corruption("frame body CRC mismatch");
  }
  frame->tag = static_cast<MessageTag>(tag_byte);
  return Status::OK();
}

Status WriteFrames(TcpSocket* socket, const std::string& bytes) {
  return socket->WriteAll(bytes.data(), bytes.size());
}

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

}  // namespace magicrecs::net
