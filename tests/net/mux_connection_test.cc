// Session-layer acceptance: the mandatory hello (the protocol's version
// gate), request-id multiplexing with out-of-order completion on one
// socket, timeout-abandon keeping the connection usable, bounded waits at
// the in-flight cap and in the hello read, a span of calls longer than the
// cap that writes its queue before it waits, and a seeded ingress fuzz of the
// reply reader over a real socket; rerun a failure with
//   MAGICRECS_FUZZ_SEED=<seed> ./net_mux_connection_test

#include "net/mux_connection.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
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
#include "util/random.h"

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
    FrameAssembler assembler;
    Frame hello;
    ASSERT_TRUE(ReceiveFrame(&*peer, &assembler, &hello).ok());
    EXPECT_EQ(hello.tag, MessageTag::kHello);
    std::string error;
    AppendError(Status::Unimplemented("unknown message tag 0x0a"), &error);
    ASSERT_TRUE(peer->WriteAll(error.data(), error.size()).ok());
    // Hold the socket until the client exits.
    (void)ReceiveInto(&*peer, &assembler);
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
    FrameAssembler assembler;
    Frame hello;
    ASSERT_TRUE(ReceiveFrame(&*peer, &assembler, &hello).ok());
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
    ASSERT_TRUE(peer->WriteAll(reply.data(), reply.size()).ok());
    // Hold the socket until the client exits.
    (void)ReceiveInto(&*peer, &assembler);
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

TEST(MuxConnectionTest, SpanPastTheCapWritesItsQueueBeforeItWaits) {
  // Ten calls in one Start against a cap of 4: the first four are queued
  // together, and only their replies can free the slots the rest wait
  // for, so Start must write them before it waits. Otherwise the wait
  // runs out its bound with nothing on the wire.
  RpcServerOptions options;
  options.max_inflight_per_conn = 4;
  auto h = StartServer(options);
  auto conn = MuxConnection::Dial("127.0.0.1", h->server->port(), {});
  ASSERT_TRUE(conn.ok()) << conn.status();
  const std::vector<FrameBuf> pings(10, FrameBuf::Wrap(PingFrame()));
  std::vector<MuxConnection::CallHandle> calls;
  ASSERT_TRUE((*conn)->Start(pings, 5'000, &calls).ok());
  ASSERT_EQ(calls.size(), pings.size());
  for (const MuxConnection::CallHandle& call : calls) {
    std::vector<Frame> reply;
    ASSERT_TRUE((*conn)->Await(call, 5'000, &reply).ok());
    ASSERT_EQ(reply.size(), 1u);
    EXPECT_EQ(reply[0].tag, MessageTag::kAck);
  }
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

TEST(MuxConnectionTest, HelloTimeoutBoundsTheDial) {
  // The kernel completes the handshake for a listener that never accepts,
  // so the hello is sent and no reply ever comes: the recv timeout must
  // fail the dial with Unavailable instead of hanging it.
  auto listener = TcpListener::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  MuxConnectionOptions options;
  options.hello_timeout_ms = 100;
  auto dialed = std::async(std::launch::async, [&] {
    return MuxConnection::Dial("127.0.0.1", listener->port(), options);
  });
  const bool in_time = dialed.wait_for(std::chrono::seconds(5)) ==
                       std::future_status::ready;
  // Closing the listener resets the connection it never accepted, which
  // releases a dial that ignored its timeout.
  { TcpListener closed = std::move(*listener); }
  auto conn = dialed.get();
  EXPECT_TRUE(in_time) << "the hello read outlived hello_timeout_ms";
  EXPECT_FALSE(conn.ok());
  EXPECT_TRUE(conn.status().IsUnavailable()) << conn.status();
}

TEST(MuxConnectionTest, FailedDialReturnsErrorNotCrash) {
  // Nothing listens on the reserved port: the dial must come back as a
  // Status.
  auto conn = MuxConnection::Dial("127.0.0.1", 1, {});
  EXPECT_FALSE(conn.ok());
  EXPECT_TRUE(conn.status().IsUnavailable()) << conn.status();
}

// --- the reply reader, seeded ------------------------------------------------

uint64_t FuzzSeed() {
  if (const char* env = std::getenv("MAGICRECS_FUZZ_SEED")) {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return 0x1d6e'55f0'2026ull;
}

/// How a trial's reply stream is damaged at one envelope.
enum class Damage { kNone, kCrc, kOversized, kTruncated, kBareError };

/// One kMuxResponse envelope of a scripted reply stream.
struct Envelope {
  size_t call = 0;  ///< index of the call it answers
  Frame inner;
  std::string bytes;  ///< the envelope on the wire
};

TEST(MuxConnectionTest, ReplyReaderFuzz) {
  // A scripted peer answers N started calls with interleaved, multi-frame
  // replies, coalesced and cut at random byte boundaries with short pauses
  // between writes. Every call must receive exactly its frames, in order.
  // A damaged stream must still deliver every complete frame ahead of the
  // damage, then fail the remaining calls with a Status.
  const uint64_t seed = FuzzSeed();
  SCOPED_TRACE("MAGICRECS_FUZZ_SEED=" + std::to_string(seed));
  Rng rng(seed);
  constexpr int kTrials = 40;
  const Damage damages[] = {Damage::kNone, Damage::kCrc, Damage::kOversized,
                            Damage::kTruncated, Damage::kBareError};
  const Status scripted_error = Status::ResourceExhausted("scripted sever");
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const Damage damage = damages[rng.UniformInt(std::size(damages))];
    const size_t calls = 1 + rng.UniformInt(12);

    // Each call's reply frames, and one call label per frame; shuffling
    // the labels interleaves the calls, and the k-th label c carries c's
    // k-th frame, so each call's frames stay in order.
    std::vector<std::vector<Frame>> expected(calls);
    std::vector<size_t> order;
    for (size_t c = 0; c < calls; ++c) {
      const size_t frames = 1 + rng.UniformInt(4);
      for (size_t f = 0; f < frames; ++f) {
        Frame frame;
        frame.tag = rng.Bernoulli(0.5) ? MessageTag::kRecommendationsReply
                                       : MessageTag::kAck;
        // Mostly small; now and then larger than one 64 KiB read.
        const size_t size = rng.Bernoulli(0.1) ? 60'000 + rng.UniformInt(90'000)
                                               : rng.UniformInt(300);
        frame.payload.resize(size);
        for (char& byte : frame.payload) {
          byte = static_cast<char>(rng.UniformInt(256));
        }
        expected[c].push_back(std::move(frame));
        order.push_back(c);
      }
    }
    rng.Shuffle(&order);
    std::vector<Envelope> envelopes;
    std::vector<size_t> next(calls, 0);
    for (size_t c : order) {
      Envelope envelope;
      envelope.call = c;
      envelope.inner = expected[c][next[c]++];
      envelopes.push_back(std::move(envelope));
    }

    const size_t damaged =
        damage == Damage::kNone ? envelopes.size()
                                : rng.UniformInt(envelopes.size());
    auto listener = TcpListener::Listen("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok()) << listener.status();
    std::thread peer_thread([&] {
      Result<TcpSocket> peer = listener->Accept();
      ASSERT_TRUE(peer.ok()) << peer.status();
      FrameAssembler assembler;
      Frame frame;
      ASSERT_TRUE(ReceiveFrame(&*peer, &assembler, &frame).ok());
      ASSERT_EQ(frame.tag, MessageTag::kHello);
      std::string stream;
      AppendHelloReply(kFeatureMux | kFeatureTrace, /*max_inflight=*/64,
                       Placement{}, &stream);
      ASSERT_TRUE(peer->WriteAll(stream.data(), stream.size()).ok());
      stream.clear();
      // The ids the client chose, in the order it started the calls.
      std::vector<uint64_t> ids;
      for (size_t c = 0; c < calls; ++c) {
        ASSERT_TRUE(ReceiveFrame(&*peer, &assembler, &frame).ok());
        uint64_t id = 0;
        Frame request;
        ASSERT_TRUE(DecodeMuxRequest(frame.payload, &id, &request).ok());
        ids.push_back(id);
      }
      std::vector<size_t> left(calls, 0);
      for (const Envelope& envelope : envelopes) left[envelope.call]++;
      for (size_t e = 0; e < envelopes.size(); ++e) {
        const Envelope& envelope = envelopes[e];
        std::string inner;
        AppendFrame(envelope.inner.tag, envelope.inner.payload, &inner);
        std::string bytes;
        AppendMuxResponse(ids[envelope.call], --left[envelope.call] == 0,
                          inner, &bytes);
        if (e == damaged) {
          switch (damage) {
            case Damage::kNone:
              break;
            case Damage::kCrc:
              bytes[4 + rng.UniformInt(4)] ^= 0x5a;
              break;
            case Damage::kOversized: {
              std::string length;
              persist::PutU32(&length,
                              static_cast<uint32_t>(kMaxFrameBodyBytes + 1));
              std::memcpy(bytes.data(), length.data(), length.size());
              break;
            }
            case Damage::kTruncated:
              bytes.resize(rng.UniformInt(bytes.size()));
              break;
            case Damage::kBareError:
              bytes.clear();
              AppendError(scripted_error, &bytes);
              break;
          }
        }
        stream += bytes;
        if (e == damaged && damage == Damage::kTruncated) break;
      }
      // Coalesced, then cut at random byte boundaries.
      for (size_t at = 0; at < stream.size();) {
        const size_t piece =
            std::min(stream.size() - at, 1 + rng.UniformInt(
                                                 rng.Bernoulli(0.5) ? 64
                                                                    : 100'000));
        if (!peer->WriteAll(stream.data() + at, piece).ok()) return;
        at += piece;
        if (rng.Bernoulli(0.2)) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(rng.UniformInt(500)));
        }
      }
      if (damage == Damage::kTruncated) return;  // close mid-stream
      // Hold the socket until the client hangs up.
      while (ReceiveInto(&*peer, &assembler).ok()) {
      }
    });

    {
      MuxConnectionOptions options;
      options.hello_timeout_ms = 10'000;
      auto conn = MuxConnection::Dial("127.0.0.1", listener->port(), options);
      ASSERT_TRUE(conn.ok()) << conn.status();
      std::vector<MuxConnection::CallHandle> handles;
      for (size_t c = 0; c < calls; ++c) {
        auto call = (*conn)->Start(PingFrame());
        ASSERT_TRUE(call.ok()) << call.status();
        handles.push_back(*call);
      }
      // What each call must hold once the stream ends: its frames ahead of
      // the damaged envelope, and whether its last one is among them.
      std::vector<size_t> delivered(calls, 0);
      for (size_t e = 0; e < damaged; ++e) delivered[envelopes[e].call]++;
      for (size_t c = 0; c < calls; ++c) {
        SCOPED_TRACE("call " + std::to_string(c));
        std::vector<Frame> reply;
        const Status awaited = (*conn)->Await(handles[c], 10'000, &reply);
        EXPECT_EQ(reply.size(), delivered[c]) << awaited;
        for (size_t f = 0; f < std::min(reply.size(), delivered[c]); ++f) {
          EXPECT_EQ(reply[f].tag, expected[c][f].tag) << "frame " << f;
          EXPECT_TRUE(reply[f].payload == expected[c][f].payload)
              << "frame " << f;
        }
        if (delivered[c] == expected[c].size()) {
          EXPECT_TRUE(awaited.ok()) << awaited;
          continue;
        }
        switch (damage) {
          case Damage::kNone:
            ADD_FAILURE() << "an undamaged reply is short: " << awaited;
            break;
          case Damage::kCrc:
            EXPECT_TRUE(awaited.IsCorruption()) << awaited;
            break;
          case Damage::kOversized:
            EXPECT_TRUE(awaited.IsResourceExhausted()) << awaited;
            break;
          case Damage::kTruncated:
            EXPECT_TRUE(awaited.IsUnavailable()) << awaited;
            EXPECT_EQ(awaited.ToString().find("call timed out"),
                      std::string::npos)
                << awaited;
            break;
          case Damage::kBareError:
            EXPECT_EQ(awaited.ToString(), scripted_error.ToString());
            break;
        }
      }
      EXPECT_EQ((*conn)->broken(), damage != Damage::kNone);
    }  // the client hangs up here, releasing the peer
    peer_thread.join();
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace magicrecs::net
