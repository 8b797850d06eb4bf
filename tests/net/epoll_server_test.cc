// Partial-I/O and scaling acceptance for the epoll reactor:
//   * frames delivered one byte at a time decode exactly like whole ones;
//   * replies larger than the socket buffer drain through the partial-
//     write state machine (EPOLLOUT + carry, counted);
//   * pipelined requests before a framing error are all answered, in
//     order, before the error reply severs the connection;
//   * the per-connection in-flight cap applies backpressure instead of
//     unbounded buffering;
//   * 256 concurrent connections are served without 256 threads
//     (asserted via /proc/self/task).

#include "net/epoll_reactor.h"

#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "stub_transport.h"

#include "net/frame_io.h"
#include "net/rpc_server.h"
#include "net/socket.h"
#include "net/wire.h"

namespace magicrecs::net {
namespace {

using net_test::StubTransport;

/// Threads in this process right now (/proc/self/task entries).
long CountThreads() {
  long count = 0;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (const dirent* entry = ::readdir(dir)) {
      if (entry->d_name[0] != '.') count++;
    }
    ::closedir(dir);
  }
  return count;
}

class EpollServerTest : public ::testing::Test {
 protected:
  void StartServer(const RpcServerOptions& options = {}) {
    auto server = RpcServer::Start(&transport_, options);
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(server).value();
  }

  Result<TcpSocket> RawConnection() {
    return TcpSocket::Connect("127.0.0.1", server_->port());
  }

  StubTransport transport_;
  std::unique_ptr<RpcServer> server_;
};

TEST_F(EpollServerTest, FramesDeliveredOneByteAtATimeDecode) {
  StartServer();
  auto socket = RawConnection();
  ASSERT_TRUE(socket.ok()) << socket.status();

  // A publish frame and a ping frame, dribbled one byte per write: the
  // assembler must stitch split headers and split bodies back together.
  std::string bytes;
  EdgeEvent event;
  event.edge = TimestampedEdge{3, 7, 42};
  AppendPublish(event, &bytes);
  AppendEmptyRequest(MessageTag::kPing, &bytes);
  for (const char byte : bytes) {
    ASSERT_TRUE(socket->WriteAll(&byte, 1).ok());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  Frame reply;
  ASSERT_TRUE(ReadFrame(&*socket, &reply).ok());
  EXPECT_EQ(reply.tag, MessageTag::kAck);  // the publish
  ASSERT_TRUE(ReadFrame(&*socket, &reply).ok());
  EXPECT_EQ(reply.tag, MessageTag::kAck);  // the ping
  EXPECT_EQ(transport_.publishes(), 1u);
  EXPECT_GT(server_->stats().partial_reads, 0u)
      << "byte-dribbled frames should have exercised the partial-read path";
}

TEST_F(EpollServerTest, ReplyLargerThanSocketBufferDrains) {
  // ~24 MiB of canned recommendations: far beyond any socket buffer, so
  // the reply must stream through several chunked frames and the
  // partial-write state machine while the client reads at its own pace.
  std::vector<Recommendation> canned(60'000);
  for (size_t i = 0; i < canned.size(); ++i) {
    canned[i].user = static_cast<VertexId>(i);
    canned[i].item = static_cast<VertexId>(i * 2);
    canned[i].witnesses.assign(96, static_cast<VertexId>(i));
  }
  transport_.set_recommendations(canned);
  StartServer();
  auto socket = RawConnection();
  ASSERT_TRUE(socket.ok()) << socket.status();

  std::string request;
  AppendEmptyRequest(MessageTag::kTakeRecommendations, &request);
  ASSERT_TRUE(socket->WriteAll(request.data(), request.size()).ok());
  // Let the server hit the full socket buffer before we start draining.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::vector<Recommendation> received;
  bool has_more = true;
  while (has_more) {
    Frame reply;
    ASSERT_TRUE(ReadFrame(&*socket, &reply).ok());
    ASSERT_EQ(reply.tag, MessageTag::kRecommendationsReply);
    ASSERT_TRUE(DecodeRecommendationsReply(reply.payload, &received,
                                           &has_more, nullptr)
                    .ok());
  }
  ASSERT_EQ(received.size(), canned.size());
  EXPECT_EQ(received.back().witnesses, canned.back().witnesses);
  EXPECT_GT(server_->stats().partial_writes, 0u)
      << "a 24 MiB reply cannot have fit the socket buffer whole";
}

TEST_F(EpollServerTest, PipelinedRequestsBeforeFramingErrorAnswerInOrder) {
  StartServer();
  auto socket = RawConnection();
  ASSERT_TRUE(socket.ok()) << socket.status();

  // Two good pings, then an oversized length prefix — all in one write.
  // The contract: both pings answered first, then the error reply, then
  // the connection is severed.
  std::string bytes;
  AppendEmptyRequest(MessageTag::kPing, &bytes);
  AppendEmptyRequest(MessageTag::kPing, &bytes);
  std::string bad_header(kFrameHeaderBytes, '\0');
  const uint32_t huge = 1u << 30;
  std::memcpy(bad_header.data(), &huge, sizeof(huge));
  bytes += bad_header;
  ASSERT_TRUE(socket->WriteAll(bytes.data(), bytes.size()).ok());

  Frame reply;
  ASSERT_TRUE(ReadFrame(&*socket, &reply).ok());
  EXPECT_EQ(reply.tag, MessageTag::kAck);
  ASSERT_TRUE(ReadFrame(&*socket, &reply).ok());
  EXPECT_EQ(reply.tag, MessageTag::kAck);
  ASSERT_TRUE(ReadFrame(&*socket, &reply).ok());
  ASSERT_EQ(reply.tag, MessageTag::kError);
  EXPECT_TRUE(DecodeError(reply.payload).IsResourceExhausted());
  char byte;
  EXPECT_TRUE(socket->ReadFull(&byte, 1).IsUnavailable())
      << "the stream is desynchronized; the server must sever";
}

TEST_F(EpollServerTest, InflightCapAppliesBackpressureNotUnboundedBuffering) {
  RpcServerOptions options;
  options.max_inflight_per_conn = 4;
  options.worker_threads = 2;
  StartServer(options);
  auto socket = RawConnection();
  ASSERT_TRUE(socket.ok()) << socket.status();

  // 200 pipelined pings, written before any reply is read. Every one must
  // be answered; the reactor must have paused reads at the cap along the
  // way rather than parking 200 decoded requests.
  constexpr int kPings = 200;
  std::string bytes;
  for (int i = 0; i < kPings; ++i) {
    AppendEmptyRequest(MessageTag::kPing, &bytes);
  }
  std::thread writer([&] {
    // A second thread: 200 pings can exceed the combined socket buffers
    // once the server stops reading, which is exactly the point.
    (void)socket->WriteAll(bytes.data(), bytes.size());
  });
  for (int i = 0; i < kPings; ++i) {
    Frame reply;
    ASSERT_TRUE(ReadFrame(&*socket, &reply).ok()) << "ping " << i;
    EXPECT_EQ(reply.tag, MessageTag::kAck);
  }
  writer.join();
  EXPECT_GT(server_->stats().inflight_stalls, 0u)
      << "200 pipelined requests against a cap of 4 never stalled?";
}

TEST_F(EpollServerTest, Soak256ConcurrentConnections) {
  StartServer();
  const long threads_before = CountThreads();
  constexpr size_t kConnections = 256;
  std::vector<TcpSocket> sockets;
  sockets.reserve(kConnections);
  for (size_t i = 0; i < kConnections; ++i) {
    auto socket = RawConnection();
    ASSERT_TRUE(socket.ok()) << "connection " << i << ": "
                             << socket.status();
    sockets.push_back(std::move(socket).value());
  }
  // Three ping waves across every connection: all served, none dropped.
  std::string ping;
  AppendEmptyRequest(MessageTag::kPing, &ping);
  for (int wave = 0; wave < 3; ++wave) {
    for (TcpSocket& socket : sockets) {
      ASSERT_TRUE(socket.WriteAll(ping.data(), ping.size()).ok());
    }
    for (TcpSocket& socket : sockets) {
      Frame reply;
      ASSERT_TRUE(ReadFrame(&socket, &reply).ok());
      EXPECT_EQ(reply.tag, MessageTag::kAck);
    }
  }
  EXPECT_GE(server_->stats().connections_accepted, kConnections);
  EXPECT_LT(CountThreads() - threads_before, 32)
      << "the reactor must serve 256 connections without a thread per "
         "connection";
  // Orderly teardown: close every socket; the server reaps them all.
  sockets.clear();
  for (int i = 0; i < 200; ++i) {
    if (server_->stats().connections_open == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server_->stats().connections_open, 0u);
  EXPECT_EQ(server_->stats().protocol_errors, 0u)
      << "orderly closes must not count as protocol errors";
}

}  // namespace
}  // namespace magicrecs::net
