// Session-layer acceptance: the mandatory hello (the protocol's version
// gate), request-id multiplexing with out-of-order completion on one
// socket, timeout-abandon keeping the connection usable, and bounded waits
// at the in-flight cap.

#include "net/mux_connection.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "stub_transport.h"

#include "cluster/transport.h"
#include "net/frame_io.h"
#include "net/rpc_server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "persist/codec.h"

namespace magicrecs::net {
namespace {

using net_test::StubTransport;

std::string PingFrame() {
  std::string frame;
  AppendEmptyRequest(MessageTag::kPing, &frame);
  return frame;
}

std::string DrainFrame() {
  std::string frame;
  AppendEmptyRequest(MessageTag::kDrain, &frame);
  return frame;
}

struct Harness {
  StubTransport transport;
  std::unique_ptr<RpcServer> server;
};

std::unique_ptr<Harness> StartServer(const RpcServerOptions& options = {}) {
  auto h = std::make_unique<Harness>();
  auto server = RpcServer::Start(&h->transport, options);
  EXPECT_TRUE(server.ok()) << server.status();
  h->server = std::move(server).value();
  return h;
}

TEST(MuxConnectionTest, NegotiatesWithTheServer) {
  auto h = StartServer();
  auto conn = MuxConnection::Dial("127.0.0.1", h->server->port(), {});
  ASSERT_TRUE(conn.ok()) << conn.status();
  EXPECT_EQ((*conn)->server_max_inflight(), 64u);
  std::vector<Frame> reply;
  ASSERT_TRUE((*conn)->CallOne(PingFrame(), 0, &reply).ok());
  ASSERT_EQ(reply.size(), 1u);
  EXPECT_EQ(reply[0].tag, MessageTag::kAck);
  EXPECT_EQ(h->server->stats().mux_connections, 1u);

  // Every session's stats reply carries the server-loop counters (loop
  // byte 2, the reactor).
  std::string stats_request;
  AppendEmptyRequest(MessageTag::kStats, &stats_request);
  ASSERT_TRUE((*conn)->CallOne(stats_request, 0, &reply).ok());
  ASSERT_EQ(reply.size(), 1u);
  ClusterStats stats;
  ASSERT_TRUE(DecodeStatsReply(reply[0].payload, &stats).ok());
  EXPECT_EQ(stats.server.loop, 2);
  EXPECT_EQ(stats.server.mux_connections, 1u);
}

TEST(MuxConnectionTest, DialFailsAgainstAServerWithoutHello) {
  // A peer that answers the hello with kError(Unimplemented) — what a
  // daemon that never learned the handshake does — must fail the dial:
  // the client has no in-order fallback to downgrade to.
  auto listener = TcpListener::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  std::thread server([&] {
    Result<TcpSocket> peer = listener->Accept();
    ASSERT_TRUE(peer.ok()) << peer.status();
    Frame hello;
    ASSERT_TRUE(ReadFrame(&*peer, &hello).ok());
    EXPECT_EQ(hello.tag, MessageTag::kHello);
    std::string error;
    AppendError(Status::Unimplemented("unknown message tag 0x0a"), &error);
    ASSERT_TRUE(WriteFrames(&*peer, error).ok());
    char byte;
    (void)peer->ReadFull(&byte, 1);  // hold the socket until the client exits
  });
  {
    auto conn = MuxConnection::Dial("127.0.0.1", listener->port(), {});
    EXPECT_FALSE(conn.ok());
    EXPECT_TRUE(conn.status().IsFailedPrecondition()) << conn.status();
    EXPECT_NE(conn.status().ToString().find("did not negotiate mux"),
              std::string::npos)
        << conn.status();
  }  // the client hangs up here, releasing the fake server
  server.join();
}

TEST(MuxConnectionTest, DialFailsAgainstAnotherProtocolVersion) {
  // The hello is the version gate on the client side too: a reply naming
  // another protocol version fails the dial even though it grants mux.
  auto listener = TcpListener::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  std::thread server([&] {
    Result<TcpSocket> peer = listener->Accept();
    ASSERT_TRUE(peer.ok()) << peer.status();
    Frame hello;
    ASSERT_TRUE(ReadFrame(&*peer, &hello).ok());
    uint32_t version = 0;
    uint32_t features = 0;
    ASSERT_TRUE(DecodeHello(hello.payload, &version, &features).ok());
    EXPECT_EQ(version, kProtocolVersion);
    std::string payload;
    persist::PutU32(&payload, kProtocolVersion + 1);
    persist::PutU32(&payload, kFeatureMux | kFeatureTrace);
    persist::PutU32(&payload, 64);
    std::string reply;
    AppendFrame(MessageTag::kHelloReply, payload, &reply);
    ASSERT_TRUE(WriteFrames(&*peer, reply).ok());
    char byte;
    (void)peer->ReadFull(&byte, 1);  // hold the socket until the client exits
  });
  {
    auto conn = MuxConnection::Dial("127.0.0.1", listener->port(), {});
    EXPECT_FALSE(conn.ok());
    EXPECT_TRUE(conn.status().IsFailedPrecondition()) << conn.status();
    EXPECT_NE(conn.status().ToString().find("protocol version"),
              std::string::npos)
        << conn.status();
  }  // the client hangs up here, releasing the fake server
  server.join();
}

TEST(MuxConnectionTest, OrderFreeReadOvertakesAStalledWriteOnOneSocket) {
  // The reason mux exists: a gated Drain holds its worker on the epoll
  // server while a Ping issued LATER on the SAME connection completes
  // first — out-of-order replies demultiplexed by request_id.
  auto h = StartServer();
  h->transport.GateDrains();
  auto conn = MuxConnection::Dial("127.0.0.1", h->server->port(), {});
  ASSERT_TRUE(conn.ok()) << conn.status();

  auto drain = (*conn)->Start(DrainFrame());
  ASSERT_TRUE(drain.ok()) << drain.status();
  for (int i = 0; i < 500 && !h->transport.drain_blocked(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(h->transport.drain_blocked());

  // The ping (order-free) must answer while the drain is still parked.
  std::vector<Frame> ping_reply;
  ASSERT_TRUE((*conn)->CallOne(PingFrame(), /*timeout_ms=*/5'000,
                               &ping_reply)
                  .ok())
      << "the ping should overtake the gated drain";
  EXPECT_EQ(ping_reply[0].tag, MessageTag::kAck);

  h->transport.Release();
  std::vector<Frame> drain_reply;
  ASSERT_TRUE((*conn)->Await(*drain, 5'000, &drain_reply).ok());
  EXPECT_EQ(drain_reply[0].tag, MessageTag::kAck);
}

TEST(MuxConnectionTest, TimedOutCallIsAbandonedAndTheConnectionSurvives) {
  // The property the old leased-socket pool could not offer: a deadline
  // miss forgets the request id instead of poisoning the stream. The late
  // reply is discarded and the SAME connection keeps serving.
  auto h = StartServer();
  h->transport.GateDrains();
  auto conn = MuxConnection::Dial("127.0.0.1", h->server->port(), {});
  ASSERT_TRUE(conn.ok()) << conn.status();

  std::vector<Frame> reply;
  const Status timed_out =
      (*conn)->CallOne(DrainFrame(), /*timeout_ms=*/50, &reply);
  ASSERT_TRUE(timed_out.IsUnavailable()) << timed_out;
  EXPECT_FALSE((*conn)->broken());

  h->transport.Release();  // the late ack will arrive and be discarded
  for (int i = 0; i < 20; ++i) {
    std::vector<Frame> ping_reply;
    ASSERT_TRUE((*conn)->CallOne(PingFrame(), 5'000, &ping_reply).ok())
        << "connection must stay usable after an abandoned call";
    EXPECT_EQ(ping_reply[0].tag, MessageTag::kAck);
  }
}

TEST(MuxConnectionTest, CapWaitIsBoundedAgainstASilentServer) {
  // A daemon that stops answering stops freeing in-flight slots. A Start
  // blocked at the cap must fail within its bound — without poisoning the
  // connection — instead of hanging ahead of every Await-side timeout.
  RpcServerOptions options;
  options.max_inflight_per_conn = 1;
  auto h = StartServer(options);
  h->transport.GateDrains();

  auto conn = MuxConnection::Dial("127.0.0.1", h->server->port(), {});
  ASSERT_TRUE(conn.ok()) << conn.status();
  ASSERT_EQ((*conn)->server_max_inflight(), 1u);
  auto drain = (*conn)->Start(DrainFrame());
  ASSERT_TRUE(drain.ok()) << drain.status();

  std::vector<Frame> reply;
  const Status capped = (*conn)->CallOne(PingFrame(), 200, &reply);
  ASSERT_TRUE(capped.IsUnavailable()) << capped;
  EXPECT_NE(capped.ToString().find("in-flight slot"), std::string::npos)
      << capped;
  EXPECT_FALSE((*conn)->broken())
      << "a cap-wait miss fails the call, not the connection";

  h->transport.Release();
  std::vector<Frame> drain_reply;
  ASSERT_TRUE((*conn)->Await(*drain, 5'000, &drain_reply).ok());
  ASSERT_TRUE((*conn)->CallOne(PingFrame(), 5'000, &reply).ok());
  EXPECT_EQ(reply[0].tag, MessageTag::kAck);
}

TEST(MuxConnectionTest, ManyThreadsShareOneConnection) {
  auto h = StartServer();
  auto conn = MuxConnection::Dial("127.0.0.1", h->server->port(), {});
  ASSERT_TRUE(conn.ok()) << conn.status();
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        std::vector<Frame> reply;
        if (!(*conn)->CallOne(PingFrame(), 10'000, &reply).ok() ||
            reply.size() != 1 || reply[0].tag != MessageTag::kAck) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(h->server->stats().requests_served,
            static_cast<uint64_t>(kThreads * kCallsPerThread) + 1)
      << "every call (plus the hello) answered exactly once";
}

TEST(MuxConnectionTest, ShutdownFailsInflightCallsAndFutureStarts) {
  auto h = StartServer();
  h->transport.GateDrains();
  auto conn = MuxConnection::Dial("127.0.0.1", h->server->port(), {});
  ASSERT_TRUE(conn.ok()) << conn.status();
  auto call = (*conn)->Start(DrainFrame());
  ASSERT_TRUE(call.ok());
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    (*conn)->Shutdown();
  });
  std::vector<Frame> reply;
  const Status awaited = (*conn)->Await(*call, 0, &reply);
  EXPECT_TRUE(awaited.IsUnavailable()) << awaited;
  closer.join();
  EXPECT_TRUE((*conn)->broken());
  EXPECT_TRUE((*conn)->Start(PingFrame()).status().IsFailedPrecondition());
  h->transport.Release();  // let the parked worker finish before teardown
}

TEST(MuxConnectionTest, FailedDialReturnsErrorNotCrash) {
  // Nothing listens on the reserved port: the dial must come back as a
  // Status.
  auto conn = MuxConnection::Dial("127.0.0.1", 1, {});
  EXPECT_FALSE(conn.ok());
  EXPECT_TRUE(conn.status().IsUnavailable()) << conn.status();
}

}  // namespace
}  // namespace magicrecs::net
