// A hand-driven peer for the daemon's one session protocol: a raw TCP
// socket that sends the opening hello itself and wraps requests in mux
// envelopes by hand. The hostile-input suites (rpc_robustness_test,
// epoll_server_test, the dedup race in fanout_degraded_test, egress_test)
// use it to control every byte the server sees — and to damage any of
// them — while still getting past the session gate.

#ifndef MAGICRECS_TESTS_NET_RAW_SESSION_H_
#define MAGICRECS_TESTS_NET_RAW_SESSION_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/frame_io.h"
#include "net/socket.h"
#include "net/wire.h"
#include "util/result.h"
#include "util/status.h"
#include "util/str_format.h"

namespace magicrecs::net_test {

/// The hello a well-behaved client sends (what MuxConnection::Dial sends).
inline std::string HelloFrame() {
  std::string frame;
  net::AppendHello(net::kFeatureMux | net::kFeatureTrace, &frame);
  return frame;
}

/// `frame` (exactly one request frame) wrapped in a kMuxRequest envelope.
inline std::string MuxWrap(uint64_t request_id, const std::string& frame) {
  std::string envelope;
  net::AppendMuxRequest(request_id, frame, &envelope);
  return envelope;
}

inline std::string EmptyRequest(net::MessageTag tag) {
  std::string frame;
  net::AppendEmptyRequest(tag, &frame);
  return frame;
}

/// A take by broker `broker` whose one cursor entry acknowledges `ack` for
/// the daemon hosting `partition` (by default an all-hosting one, the
/// stub's placement); ack 0 acknowledges nothing.
inline std::string TakeRequest(
    uint64_t ack = 0, uint32_t partition = Placement::kAllPartitions,
    uint64_t broker = 1) {
  std::string frame;
  const net::TakeAck entry{partition, ack};
  net::AppendTakeRecommendations(broker, std::span(&entry, 1), &frame);
  return frame;
}

class RawSession {
 public:
  /// Connects without saying hello (the session-gate tests send their own
  /// first frame).
  static Result<RawSession> Connect(uint16_t port) {
    MAGICRECS_ASSIGN_OR_RETURN(net::TcpSocket socket,
                               net::TcpSocket::Connect("127.0.0.1", port));
    return RawSession(std::move(socket));
  }

  /// Connects and completes the hello exchange.
  static Result<RawSession> Open(uint16_t port) {
    MAGICRECS_ASSIGN_OR_RETURN(RawSession session, Connect(port));
    MAGICRECS_RETURN_IF_ERROR(session.Write(HelloFrame()));
    net::Frame reply;
    MAGICRECS_RETURN_IF_ERROR(session.Read(&reply));
    if (reply.tag != net::MessageTag::kHelloReply) {
      return Status::FailedPrecondition(
          StrFormat("hello answered with %s",
                    std::string(net::MessageTagName(reply.tag)).c_str()));
    }
    return session;
  }

  net::TcpSocket& socket() { return socket_; }

  Status Write(std::string_view bytes) {
    return socket_.WriteAll(bytes.data(), bytes.size());
  }

  /// Sends one request frame inside a kMuxRequest envelope.
  Status Send(uint64_t request_id, const std::string& frame) {
    return Write(MuxWrap(request_id, frame));
  }

  /// Reads one raw frame (the hello reply, a bare kError, or an envelope).
  Status Read(net::Frame* frame) {
    return net::ReceiveFrame(&socket_, &assembler_, frame);
  }

  /// Reads one kMuxResponse and unwraps it. Any other frame is an error;
  /// a bare kError is returned as the Status it carries.
  Status ReadReply(net::Frame* inner, uint64_t* request_id = nullptr,
                   bool* last = nullptr) {
    net::Frame frame;
    MAGICRECS_RETURN_IF_ERROR(Read(&frame));
    if (frame.tag == net::MessageTag::kError) {
      return net::DecodeError(frame.payload);
    }
    if (frame.tag != net::MessageTag::kMuxResponse) {
      return Status::Internal(
          StrFormat("expected a mux response, got %s",
                    std::string(net::MessageTagName(frame.tag)).c_str()));
    }
    uint64_t id = 0;
    bool is_last = false;
    MAGICRECS_RETURN_IF_ERROR(
        net::DecodeMuxResponse(frame.payload, &id, &is_last, inner));
    if (request_id != nullptr) *request_id = id;
    if (last != nullptr) *last = is_last;
    return Status::OK();
  }

  /// Reads one whole (possibly chunked) recommendations reply, appending
  /// its recommendations to *recs and setting *take to the id it names.
  Status ReadRecommendations(std::vector<Recommendation>* recs,
                             uint64_t* take) {
    bool has_more = true;
    while (has_more) {
      net::Frame reply;
      MAGICRECS_RETURN_IF_ERROR(ReadReply(&reply));
      if (reply.tag != net::MessageTag::kRecommendationsReply) {
        return Status::Internal(
            StrFormat("expected a recommendations reply, got %s",
                      std::string(net::MessageTagName(reply.tag)).c_str()));
      }
      MAGICRECS_RETURN_IF_ERROR(net::DecodeRecommendationsReply(
          reply.payload, recs, &has_more, take));
    }
    return Status::OK();
  }

  /// True when the server has closed the connection: nothing is buffered
  /// and the next read hits end of stream (or a reset) instead of a byte.
  bool Closed() {
    if (assembler_.buffered() > 0) return false;
    return net::ReceiveInto(&socket_, &assembler_).IsUnavailable();
  }

 private:
  explicit RawSession(net::TcpSocket socket) : socket_(std::move(socket)) {}

  net::TcpSocket socket_;
  /// Every read of socket_ goes through this one parser: a read may buffer
  /// bytes past the frame it was asked for.
  net::FrameAssembler assembler_;
};

}  // namespace magicrecs::net_test

#endif  // MAGICRECS_TESTS_NET_RAW_SESSION_H_
