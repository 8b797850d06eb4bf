// Zero-copy egress acceptance: the FrameBuf/OutboxChain layer must emit
// bytes EXACTLY identical to the flat-string encoders it replaced (the
// wire-compatibility lock), survive the partial-writev state machine one
// byte at a time, drain a 24 MiB backlog without the old string outbox's
// quadratic compaction, and keep concurrent mux callers from convoying
// behind one jumbo frame now that no lock is held across blocking sends.

#include "net/frame_buf.h"

#include <sys/socket.h>
#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "raw_session.h"
#include "stub_transport.h"

#include "net/frame_io.h"
#include "net/mux_connection.h"
#include "net/rpc_server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "util/metrics.h"

namespace magicrecs::net {
namespace {

using net_test::StubTransport;

std::string PingFrame() {
  std::string frame;
  AppendEmptyRequest(MessageTag::kPing, &frame);
  return frame;
}

// --- FrameBuf byte-identity locks -------------------------------------------

TEST(FrameBufTest, WrapRoundTripsFramesAndCountsThem) {
  std::string bytes = PingFrame();
  AppendEmptyRequest(MessageTag::kDrain, &bytes);
  const FrameBuf buf = FrameBuf::Wrap(bytes);
  EXPECT_EQ(buf.size(), bytes.size());
  EXPECT_EQ(buf.frame_count(), 2u);
  EXPECT_EQ(buf.Flatten(), bytes);
  EXPECT_TRUE(FrameBuf().empty());
}

TEST(FrameBufTest, FrameByteIdenticalToAppendFrameAcrossSegments) {
  // The same logical body, once as a flat string through AppendFrame, once
  // as an owned prefix plus THREE shared slices of one block through
  // FrameBuf::Frame. Every byte — length, masked CRC, tag, body — must
  // match, or a zero-copy server breaks old clients.
  const std::string prefix = "req-id-prefix";
  const std::string body = "the payload bytes that ride as shared segments";
  std::string flat;
  AppendFrame(MessageTag::kAck, prefix + body, &flat);

  const FrameBuf::Block block = FrameBuf::MakeBlock(body);
  const size_t third = body.size() / 3;
  const std::vector<FrameBuf::Segment> segments = {
      {block, 0, third},
      {block, third, third},
      {block, 2 * third, body.size() - 2 * third},
  };
  const FrameBuf framed = FrameBuf::Frame(MessageTag::kAck, prefix, segments);
  EXPECT_EQ(framed.frame_count(), 1u);
  EXPECT_EQ(framed.Flatten(), flat);
}

TEST(FrameBufTest, WrapMuxRequestSharedByteIdenticalAndSharesTheBlock) {
  const std::string inner = net_test::TakeRequest(/*ack=*/9);
  std::string flat;
  AppendMuxRequest(77, inner, &flat);

  const FrameBuf request = FrameBuf::Wrap(inner);
  const FrameBuf wrapped = WrapMuxRequestShared(77, request);
  EXPECT_EQ(wrapped.Flatten(), flat);
  // The envelope must reference the request's payload block, not a copy:
  // the fan-out broker counts on N daemons sharing one encode.
  ASSERT_FALSE(request.segments().empty());
  bool shares = false;
  for (const FrameBuf::Segment& segment : wrapped.segments()) {
    if (segment.block == request.segments().front().block) shares = true;
  }
  EXPECT_TRUE(shares) << "mux envelope copied the payload instead of "
                         "referencing the caller's block";
}

TEST(FrameBufTest, WrapMuxResponsesSharedByteIdenticalForChunkedReplies) {
  // A chunked gather reply: several inner frames in one block, each owed
  // its own kMuxResponse envelope with the last flagged.
  std::vector<Recommendation> recs(2000);
  for (size_t i = 0; i < recs.size(); ++i) {
    recs[i].user = static_cast<VertexId>(i);
    recs[i].item = static_cast<VertexId>(i + 1);
    recs[i].witnesses.assign(8, static_cast<VertexId>(i));
  }
  std::string inner;
  AppendRecommendationsReplyChunked(recs, /*max_payload_bytes=*/16 << 10,
                                    &inner);
  std::string flat;
  ASSERT_TRUE(WrapMuxResponses(42, inner, &flat).ok());

  Result<FrameBuf> shared =
      WrapMuxResponsesShared(42, FrameBuf::MakeBlock(inner));
  ASSERT_TRUE(shared.ok()) << shared.status();
  EXPECT_GT(shared->frame_count(), 1u);
  EXPECT_EQ(shared->Flatten(), flat);
}

TEST(FrameBufTest, WrapMuxResponsesSharedRejectsEmptyAndMisaligned) {
  EXPECT_TRUE(WrapMuxResponsesShared(1, FrameBuf::MakeBlock(""))
                  .status()
                  .IsInvalidArgument());
  std::string truncated = PingFrame();
  truncated.pop_back();
  EXPECT_TRUE(WrapMuxResponsesShared(1, FrameBuf::MakeBlock(truncated))
                  .status()
                  .IsInvalidArgument());
}

// --- OutboxChain cursor mechanics -------------------------------------------

TEST(OutboxChainTest, FillIovAdvanceResumesMidSegmentAndRetiresFrames) {
  OutboxChain chain;
  const std::string a = PingFrame();
  std::string b;
  AppendEmptyRequest(MessageTag::kDrain, &b);
  AppendEmptyRequest(MessageTag::kStatsText, &b);
  chain.Append(FrameBuf::Wrap(a));
  chain.Append(FrameBuf::Wrap(b));  // two frames in one buf
  ASSERT_EQ(chain.pending_bytes(), a.size() + b.size());

  // Drain three bytes at a time, rebuilding the iovec after every advance
  // (exactly the reactor's flush loop), and reassemble what "the kernel"
  // took. Frames retire only when their last byte goes.
  std::string sent;
  size_t frames_retired = 0;
  while (!chain.empty()) {
    struct iovec iov[kMaxIovPerWritev];
    const int iovcnt = chain.FillIov(iov, kMaxIovPerWritev);
    ASSERT_GT(iovcnt, 0);
    size_t take = 3;
    for (int i = 0; i < iovcnt && take > 0; ++i) {
      const size_t n = std::min(take, iov[i].iov_len);
      sent.append(static_cast<const char*>(iov[i].iov_base), n);
      take -= n;
    }
    frames_retired += chain.Advance(3 - take);
  }
  EXPECT_EQ(sent, a + b);
  EXPECT_EQ(frames_retired, 3u);
  EXPECT_EQ(chain.pending_bytes(), 0u);
}

TEST(OutboxChainTest, FillIovHonorsTheEntryCap) {
  OutboxChain chain;
  for (int i = 0; i < kMaxIovPerWritev + 20; ++i) {
    chain.Append(FrameBuf::Wrap(PingFrame()));
  }
  struct iovec iov[kMaxIovPerWritev];
  EXPECT_EQ(chain.FillIov(iov, kMaxIovPerWritev), kMaxIovPerWritev);
  EXPECT_EQ(chain.FillIov(iov, 7), 7);
}

TEST(OutboxChainTest, SlowReaderDrainOf24MiBIsLinearNotQuadratic) {
  // The regression the chain exists for: the string outbox compacted with
  // erase(0, off) — a memmove of everything unsent — every flush cycle, so
  // a slow reader draining a 24 MiB reply in 32 KiB nibbles moved ~9 GB of
  // bytes. The chain must advance a cursor instead: ~770 small advances
  // over 24 MiB complete in well under a second even on a loaded CI box.
  constexpr size_t kReplyBytes = 24u << 20;
  constexpr size_t kNibble = 32u << 10;
  OutboxChain chain;
  chain.Append(FrameBuf::Wrap(std::string(kReplyBytes, 'r')));
  const auto start = std::chrono::steady_clock::now();
  while (!chain.empty()) {
    struct iovec iov[kMaxIovPerWritev];
    ASSERT_GT(chain.FillIov(iov, kMaxIovPerWritev), 0);
    chain.Advance(std::min(kNibble, chain.pending_bytes()));
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000)
      << "draining 24 MiB in 32 KiB steps should be O(bytes); a compaction "
         "memmove per step is O(bytes^2)";
}

// --- scatter/gather syscalls over a squeezed socketpair ---------------------

/// A connected AF_UNIX pair with a tiny send buffer on the writer side, so
/// every multi-segment write exercises the partial-write carry.
void TinySocketPair(TcpSocket* writer, TcpSocket* reader) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int tiny = 4096;
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny)),
            0);
  *writer = TcpSocket(fds[0]);
  *reader = TcpSocket(fds[1]);
}

TEST(WritevTest, WritevChunkReportsWouldBlockInsteadOfBlocking) {
  TcpSocket writer, reader;
  TinySocketPair(&writer, &reader);

  const std::string payload(256 << 10, 'w');
  size_t sent = 0;
  bool saw_would_block = false;
  std::atomic<bool> drain{false};
  std::thread drainer([&] {
    // Idle until the writer has provably hit a full buffer, then drain.
    while (!drain.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::string sink(payload.size(), '\0');
    size_t got = 0;
    while (got < sink.size()) {
      Result<IoChunk> chunk = reader.ReadChunk(sink.data() + got,
                                               sink.size() - got);
      ASSERT_TRUE(chunk.ok()) << chunk.status();
      ASSERT_FALSE(chunk->eof);
      got += chunk->bytes;
    }
    EXPECT_EQ(sink, payload);
  });
  while (sent < payload.size()) {
    struct iovec iov;
    iov.iov_base = const_cast<char*>(payload.data()) + sent;
    iov.iov_len = payload.size() - sent;
    Result<IoChunk> chunk = writer.WritevChunk(&iov, 1);
    ASSERT_TRUE(chunk.ok()) << chunk.status();
    sent += chunk->bytes;
    if (chunk->would_block) {
      saw_would_block = true;
      drain.store(true, std::memory_order_release);
      Result<bool> writable = writer.PollWritable(1000);
      ASSERT_TRUE(writable.ok()) << writable.status();
    }
  }
  drain.store(true, std::memory_order_release);
  drainer.join();
  EXPECT_TRUE(saw_would_block)
      << "256 KiB against a 4 KiB send buffer never filled it?";
}

// --- end-to-end byte identity through the reactor ---------------------------

class EgressServerTest : public ::testing::Test {
 protected:
  void StartServer() {
    auto server = RpcServer::Start(&transport_, {});
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(server).value();
  }

  StubTransport transport_;
  std::unique_ptr<RpcServer> server_;
};

TEST_F(EgressServerTest, ChunkedGatherBytesIdenticalToTheStringEncoders) {
  // The wire-compatibility lock: a chunked multi-frame gather reply read
  // raw off the socket must equal, byte for byte, what the flat-string
  // encoder produces for the same recommendations. ~9 MiB => three chunked
  // frames through the zero-copy path.
  std::vector<Recommendation> canned(22'000);
  for (size_t i = 0; i < canned.size(); ++i) {
    canned[i].user = static_cast<VertexId>(i);
    canned[i].item = static_cast<VertexId>(i * 3 + 1);
    canned[i].witnesses.assign(96, static_cast<VertexId>(i));
  }
  transport_.set_recommendations(canned);
  StartServer();

  auto session = net_test::RawSession::Open(server_->port());
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_TRUE(session->Send(7, net_test::TakeRequest()).ok());

  // Each envelope re-encoded from its parsed tag and payload: the header is
  // a function of the body, so these are the bytes on the wire. The take
  // id the server drew is read off the first chunk.
  std::string raw;
  std::string expected_wrapped;
  do {
    Frame envelope;
    ASSERT_TRUE(session->Read(&envelope).ok());
    AppendFrame(envelope.tag, envelope.payload, &raw);
    if (expected_wrapped.empty()) {
      uint64_t id = 0;
      bool last = false;
      Frame inner;
      ASSERT_TRUE(DecodeMuxResponse(envelope.payload, &id, &last, &inner).ok());
      std::vector<Recommendation> first;
      bool has_more = false;
      uint64_t take = 0;
      ASSERT_TRUE(
          DecodeRecommendationsReply(inner.payload, &first, &has_more, &take)
              .ok());
      std::string expected;
      AppendRecommendationsReplyChunked(canned, kRecommendationsChunkBytes,
                                        &expected, take);
      ASSERT_TRUE(WrapMuxResponses(7, expected, &expected_wrapped).ok());
    }
  } while (raw.size() < expected_wrapped.size());
  EXPECT_TRUE(raw == expected_wrapped)
      << "zero-copy egress changed the wire bytes";
}

TEST_F(EgressServerTest, MuxedCallBytesDecodeAndEgressMetricsCount) {
  transport_.set_recommendations({});
  StartServer();
  auto conn = MuxConnection::Dial("127.0.0.1", server_->port(), {});
  ASSERT_TRUE(conn.ok()) << conn.status();
  std::vector<Frame> reply;
  ASSERT_TRUE((*conn)->CallOne(PingFrame(), 0, &reply).ok());
  ASSERT_EQ(reply.size(), 1u);
  EXPECT_EQ(reply[0].tag, MessageTag::kAck);
  // Every reply left through the writev path; the counters must say so.
  const std::string text = MetricsRegistry::Default()->RenderText();
  EXPECT_NE(text.find("rpc_writev_calls"), std::string::npos);
  EXPECT_NE(text.find("rpc_egress_bytes"), std::string::npos);
  EXPECT_NE(text.find("rpc_frames_per_writev"), std::string::npos);
}

// --- the convoy regression (send_mu_ held across a blocking jumbo write) ----

TEST(MuxEgressTest, SmallStartIsNotConvoyedBehindAJumboFrameWrite) {
  // A fake daemon that answers the hello, then reads NOTHING until told:
  // the client's first Start (a 12 MiB jumbo) must block in the kernel with
  // every socket buffer full, while a second thread's small Start returns
  // promptly — under the old code it parked on send_mu_ for the whole
  // jumbo write. The wire must still carry jumbo-then-ping, in order.
  auto listener = TcpListener::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  const int tiny = 16 << 10;
  ASSERT_EQ(::setsockopt(listener->fd(), SOL_SOCKET, SO_RCVBUF, &tiny,
                         sizeof(tiny)),
            0);

  std::string jumbo;
  AppendFrame(MessageTag::kPublishBatch, std::string(12u << 20, 'j'), &jumbo);
  const std::string ping = PingFrame();

  std::atomic<bool> jumbo_started{false};
  std::atomic<bool> jumbo_done{false};
  std::vector<Frame> received;  // the unwrapped kMuxRequest bodies
  std::thread server([&] {
    Result<TcpSocket> peer = listener->Accept();
    ASSERT_TRUE(peer.ok()) << peer.status();
    FrameAssembler assembler;
    Frame hello;
    ASSERT_TRUE(ReceiveFrame(&*peer, &assembler, &hello).ok());
    ASSERT_EQ(hello.tag, MessageTag::kHello);
    std::string reply;
    AppendHelloReply(kFeatureMux, /*max_inflight=*/64, Placement{}, &reply);
    ASSERT_TRUE(peer->WriteAll(reply.data(), reply.size()).ok());
    // Hold every byte in flight until the small Start has come back.
    while (!jumbo_started.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (int i = 0; i < 2; ++i) {
      Frame envelope;
      ASSERT_TRUE(ReceiveFrame(&*peer, &assembler, &envelope).ok());
      ASSERT_EQ(envelope.tag, MessageTag::kMuxRequest);
      uint64_t request_id = 0;
      Frame inner;
      ASSERT_TRUE(DecodeMuxRequest(envelope.payload, &request_id, &inner).ok());
      received.push_back(std::move(inner));
    }
  });

  auto conn = MuxConnection::Dial("127.0.0.1", listener->port(), {});
  ASSERT_TRUE(conn.ok()) << conn.status();

  std::thread jumbo_writer([&] {
    Result<MuxConnection::CallHandle> call =
        (*conn)->Start(jumbo);
    EXPECT_TRUE(call.ok()) << call.status();
    jumbo_done.store(true, std::memory_order_release);
  });
  // Give the jumbo thread time to become the writer and wedge on the full
  // socket buffers (the server is not reading yet).
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  Result<MuxConnection::CallHandle> small =
      (*conn)->Start(ping);
  ASSERT_TRUE(small.ok()) << small.status();
  EXPECT_FALSE(jumbo_done.load(std::memory_order_acquire))
      << "the small Start waited for the whole jumbo write: sends are "
         "convoyed again";
  jumbo_started.store(true, std::memory_order_release);

  server.join();
  jumbo_writer.join();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0].tag, MessageTag::kPublishBatch);
  EXPECT_EQ(received[0].payload, std::string(12u << 20, 'j'));
  EXPECT_EQ(received[1].tag, MessageTag::kPing);
  (*conn)->Shutdown();
}

// --- refcount sharing across fan-out threads (the TSan target) --------------

TEST(FrameBufTest, ConcurrentLanesShareOneBlockSafely) {
  // The fan-out shape: one encode, N threads each wrapping, flushing, and
  // dropping envelopes around the same payload block concurrently. Run
  // under TSan this locks the only cross-thread state — the block
  // refcount — as data-race free.
  std::string inner;
  AppendFrame(MessageTag::kPublishBatch, std::string(64 << 10, 'p'), &inner);
  const FrameBuf canonical = FrameBuf::Wrap(std::move(inner));
  constexpr int kLanes = 8;
  std::vector<std::thread> lanes;
  std::atomic<int> mismatches{0};
  for (int lane = 0; lane < kLanes; ++lane) {
    lanes.emplace_back([&, lane] {
      for (int i = 0; i < 200; ++i) {
        const FrameBuf wrapped =
            WrapMuxRequestShared(static_cast<uint64_t>(lane * 1000 + i),
                                 canonical);
        OutboxChain chain;
        chain.Append(wrapped);
        size_t drained = 0;
        while (!chain.empty()) {
          struct iovec iov[kMaxIovPerWritev];
          const int iovcnt = chain.FillIov(iov, kMaxIovPerWritev);
          for (int s = 0; s < iovcnt; ++s) drained += iov[s].iov_len;
          chain.Advance(chain.pending_bytes());
        }
        if (drained != wrapped.size()) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& lane : lanes) lane.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace magicrecs::net
