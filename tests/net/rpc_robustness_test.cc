// Hostile-peer tests for the daemon side of the RPC layer: truncated
// frames, oversized length prefixes, CRC damage, and unknown tags must come
// back as Status errors (or a severed connection) — never a crash, a hang,
// or collateral damage to other connections.

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "cluster/transport.h"
#include "gen/figure1.h"
#include "net/fanout_cluster.h"
#include "net/frame_io.h"
#include "net/rpc_server.h"
#include "net/socket.h"
#include "net/wire.h"

namespace magicrecs::net {
namespace {

class RpcRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions options;
    options.num_partitions = 2;
    options.detector.k = 2;
    options.detector.window = Minutes(10);
    auto hosted = LocalClusterTransport::Create(
        figure1::FollowGraph(), options,
        LocalClusterTransport::Mode::kThreaded);
    ASSERT_TRUE(hosted.ok()) << hosted.status();
    hosted_ = std::move(hosted).value();
    auto server = RpcServer::Start(hosted_.get(), RpcServerOptions{});
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(server).value();
  }

  Result<TcpSocket> RawConnection() {
    return TcpSocket::Connect("127.0.0.1", server_->port());
  }

  /// The daemon must still serve a well-behaved client.
  void ExpectServerAlive() {
    FanoutClusterOptions options;
    options.endpoints.resize(1);
    options.endpoints[0].port = server_->port();
    auto broker = FanoutCluster::Connect(options);
    ASSERT_TRUE(broker.ok()) << broker.status();
    EXPECT_TRUE((*broker)->Ping().ok());
  }

  /// Handler threads for severed connections finish asynchronously; poll
  /// briefly instead of asserting a racy instantaneous counter.
  void WaitForProtocolErrors(uint64_t at_least) {
    for (int i = 0; i < 200; ++i) {
      if (server_->stats().protocol_errors >= at_least) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GE(server_->stats().protocol_errors, at_least);
  }

  std::unique_ptr<LocalClusterTransport> hosted_;
  std::unique_ptr<RpcServer> server_;
};

TEST_F(RpcRobustnessTest, OversizedLengthPrefixGetsErrorAndClose) {
  auto socket = RawConnection();
  ASSERT_TRUE(socket.ok());
  // Claim a 1 GiB body. The server must refuse without allocating it.
  std::string header(kFrameHeaderBytes, '\0');
  const uint32_t huge = 1u << 30;
  std::memcpy(header.data(), &huge, sizeof(huge));
  ASSERT_TRUE(socket->WriteAll(header.data(), header.size()).ok());

  Frame reply;
  ASSERT_TRUE(ReadFrame(&*socket, &reply).ok());
  ASSERT_EQ(reply.tag, MessageTag::kError);
  EXPECT_TRUE(DecodeError(reply.payload).IsResourceExhausted());

  // After a framing error the server drops the connection...
  char byte;
  EXPECT_TRUE(socket->ReadFull(&byte, 1).IsUnavailable());
  // ...but keeps serving everyone else.
  ExpectServerAlive();
}

TEST_F(RpcRobustnessTest, CrcMismatchGetsCorruptionErrorAndClose) {
  auto socket = RawConnection();
  ASSERT_TRUE(socket.ok());
  std::string frame;
  AppendEmptyRequest(MessageTag::kPing, &frame);
  frame.back() ^= 0x01;  // corrupt the tag byte after the CRC was computed
  ASSERT_TRUE(socket->WriteAll(frame.data(), frame.size()).ok());

  Frame reply;
  ASSERT_TRUE(ReadFrame(&*socket, &reply).ok());
  ASSERT_EQ(reply.tag, MessageTag::kError);
  EXPECT_TRUE(DecodeError(reply.payload).IsCorruption());
  char byte;
  EXPECT_TRUE(socket->ReadFull(&byte, 1).IsUnavailable());
  ExpectServerAlive();
}

TEST_F(RpcRobustnessTest, UnknownTagGetsErrorButConnectionSurvives) {
  auto socket = RawConnection();
  ASSERT_TRUE(socket.ok());
  // Well-framed body with a tag the server has never heard of: the stream
  // is still aligned, so the connection must stay usable.
  std::string frame;
  AppendFrame(static_cast<MessageTag>(0x5e), "payload", &frame);
  ASSERT_TRUE(socket->WriteAll(frame.data(), frame.size()).ok());
  Frame reply;
  ASSERT_TRUE(ReadFrame(&*socket, &reply).ok());
  ASSERT_EQ(reply.tag, MessageTag::kError);
  EXPECT_TRUE(DecodeError(reply.payload).IsUnimplemented());

  // Same connection, valid ping: still served.
  frame.clear();
  AppendEmptyRequest(MessageTag::kPing, &frame);
  ASSERT_TRUE(socket->WriteAll(frame.data(), frame.size()).ok());
  ASSERT_TRUE(ReadFrame(&*socket, &reply).ok());
  EXPECT_EQ(reply.tag, MessageTag::kAck);
}

TEST_F(RpcRobustnessTest, MalformedPayloadGetsStatusErrorConnectionSurvives) {
  auto socket = RawConnection();
  ASSERT_TRUE(socket.ok());
  // A kPublish frame whose payload is three bytes short: framing is fine,
  // payload decoding fails -> InvalidArgument response, connection lives.
  std::string frame;
  AppendFrame(MessageTag::kPublish, std::string(14, '\0'), &frame);
  ASSERT_TRUE(socket->WriteAll(frame.data(), frame.size()).ok());
  Frame reply;
  ASSERT_TRUE(ReadFrame(&*socket, &reply).ok());
  ASSERT_EQ(reply.tag, MessageTag::kError);
  EXPECT_TRUE(DecodeError(reply.payload).IsInvalidArgument());

  frame.clear();
  AppendEmptyRequest(MessageTag::kPing, &frame);
  ASSERT_TRUE(socket->WriteAll(frame.data(), frame.size()).ok());
  ASSERT_TRUE(ReadFrame(&*socket, &reply).ok());
  EXPECT_EQ(reply.tag, MessageTag::kAck);
}

TEST_F(RpcRobustnessTest, TruncatedFrameThenDisconnectIsHarmless) {
  {
    auto socket = RawConnection();
    ASSERT_TRUE(socket.ok());
    // Half a header, then hang up.
    ASSERT_TRUE(socket->WriteAll("\x20\x00", 2).ok());
  }
  {
    auto socket = RawConnection();
    ASSERT_TRUE(socket.ok());
    // A full header promising 32 body bytes, deliver 5, hang up.
    std::string frame;
    AppendEmptyRequest(MessageTag::kPing, &frame);
    uint32_t lied = 32;
    std::memcpy(frame.data(), &lied, sizeof(lied));
    ASSERT_TRUE(socket->WriteAll(frame.data(), frame.size()).ok());
  }
  ExpectServerAlive();
  WaitForProtocolErrors(1);
}

TEST_F(RpcRobustnessTest, GarbageFloodNeverCrashesTheDaemon) {
  // Deterministic pseudo-garbage, several connections' worth.
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int conn = 0; conn < 8; ++conn) {
    auto socket = RawConnection();
    ASSERT_TRUE(socket.ok());
    std::string garbage(733 + 97 * conn, '\0');
    for (char& c : garbage) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      c = static_cast<char>(x);
    }
    // The server may sever mid-write once it hits a framing error; that is
    // the expected outcome, not a failure.
    (void)socket->WriteAll(garbage.data(), garbage.size());
  }
  ExpectServerAlive();
  WaitForProtocolErrors(1);
}

TEST_F(RpcRobustnessTest, StopWithOpenConnectionsDoesNotHang) {
  auto a = RawConnection();
  auto b = RawConnection();
  ASSERT_TRUE(a.ok() && b.ok());
  // Neither connection sends anything; Stop() must still return promptly
  // (the test harness timeout is the hang detector).
  server_->Stop();
}

}  // namespace
}  // namespace magicrecs::net
