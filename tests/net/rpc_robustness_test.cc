// Hostile-peer tests for the daemon side of the RPC layer: session-gate
// violations, truncated frames, oversized length prefixes, CRC damage, and
// unknown tags must come back as Status errors (or a severed connection) —
// never a crash, a hang, or collateral damage to other connections. A
// seeded fuzz pipelines random request mixes down one connection; rerun a
// failure with
//
//   MAGICRECS_FUZZ_SEED=<seed> ./net_rpc_robustness_test

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "raw_session.h"
#include "stub_transport.h"

#include "cluster/cluster.h"
#include "gen/figure1.h"
#include "net/fanout_cluster.h"
#include "net/rpc_server.h"
#include "net/wire.h"
#include "persist/codec.h"
#include "util/random.h"

namespace magicrecs::net {
namespace {

using net_test::EmptyRequest;
using net_test::HelloFrame;
using net_test::MuxWrap;
using net_test::RawSession;

class RpcRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions options;
    options.num_partitions = 2;
    options.detector.k = 2;
    options.detector.window = Minutes(10);
    auto hosted = Cluster::Create(figure1::FollowGraph(), options);
    ASSERT_TRUE(hosted.ok()) << hosted.status();
    hosted_ = std::move(hosted).value();
    ASSERT_TRUE(hosted_->Start().ok());
    auto server = RpcServer::Start(hosted_.get(), RpcServerOptions{});
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(server).value();
  }

  /// A socket that has not said hello yet.
  RawSession Connect() {
    auto session = RawSession::Connect(server_->port());
    EXPECT_TRUE(session.ok()) << session.status();
    return std::move(session).value();
  }

  /// A socket past the session gate.
  RawSession Open() {
    auto session = RawSession::Open(server_->port());
    EXPECT_TRUE(session.ok()) << session.status();
    return std::move(session).value();
  }

  /// The connection's next frame is a bare kError carrying `code`, and the
  /// server closes the connection after it.
  static void ExpectErrorThenClose(RawSession* session, StatusCode code) {
    Frame reply;
    ASSERT_TRUE(session->Read(&reply).ok());
    ASSERT_EQ(reply.tag, MessageTag::kError);
    const Status error = DecodeError(reply.payload);
    EXPECT_EQ(error.code(), code) << error;
    EXPECT_TRUE(session->Closed()) << "the server must sever after " << error;
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

  std::unique_ptr<Cluster> hosted_;
  std::unique_ptr<RpcServer> server_;
};

// --- the session gate --------------------------------------------------------

TEST_F(RpcRobustnessTest, NonHelloFirstFrameIsRefusedAndClosed) {
  // A bare ping, a mux envelope, and a reply-range tag as the opening
  // frame: each is refused and the connection closed, before any request
  // reaches the transport.
  const std::string openers[] = {EmptyRequest(MessageTag::kPing),
                                 MuxWrap(1, EmptyRequest(MessageTag::kPing)),
                                 EmptyRequest(MessageTag::kAck)};
  for (const std::string& opener : openers) {
    RawSession session = Connect();
    ASSERT_TRUE(session.Write(opener).ok());
    ExpectErrorThenClose(&session, StatusCode::kFailedPrecondition);
  }
  EXPECT_EQ(server_->stats().mux_connections, 0u);
  WaitForProtocolErrors(3);
  ExpectServerAlive();
}

TEST_F(RpcRobustnessTest, SecondHelloIsRefusedAfterEarlierRepliesDrain) {
  // A second hello is a session violation. Its error must not overtake
  // the reply owed to the ping pipelined ahead of it.
  RawSession session = Open();
  std::string bytes = MuxWrap(7, EmptyRequest(MessageTag::kPing));
  bytes += HelloFrame();
  ASSERT_TRUE(session.Write(bytes).ok());
  Frame inner;
  uint64_t id = 0;
  ASSERT_TRUE(session.ReadReply(&inner, &id).ok());
  EXPECT_EQ(id, 7u);
  EXPECT_EQ(inner.tag, MessageTag::kAck);
  ExpectErrorThenClose(&session, StatusCode::kFailedPrecondition);
  ExpectServerAlive();
}

TEST_F(RpcRobustnessTest, HelloFromAnotherProtocolVersionIsRefused) {
  // The hello is the one version gate: a peer naming another version —
  // the previous one or a newer one — is refused at the door, not
  // discovered mid-stream.
  for (const uint32_t version : {kProtocolVersion - 1, kProtocolVersion + 1}) {
    std::string payload;
    persist::PutU8(&payload, 0x01);  // the hello marker
    persist::PutU32(&payload, version);
    persist::PutU32(&payload, kFeatureMux | kFeatureTrace);
    std::string hello;
    AppendFrame(MessageTag::kHello, payload, &hello);
    RawSession session = Connect();
    ASSERT_TRUE(session.Write(hello).ok());
    Frame reply;
    ASSERT_TRUE(session.Read(&reply).ok());
    ASSERT_EQ(reply.tag, MessageTag::kError);
    const Status refused = DecodeError(reply.payload);
    EXPECT_TRUE(refused.IsFailedPrecondition()) << refused;
    EXPECT_NE(refused.ToString().find("protocol version"), std::string::npos)
        << refused;
    EXPECT_TRUE(session.Closed()) << "version " << version;
  }
  EXPECT_EQ(server_->stats().mux_connections, 0u);
}

TEST_F(RpcRobustnessTest, HelloWithoutMuxAndMangledHelloAreRefused) {
  {
    std::string hello;
    AppendHello(kFeatureTrace, &hello);  // asks for trace only
    RawSession session = Connect();
    ASSERT_TRUE(session.Write(hello).ok());
    ExpectErrorThenClose(&session, StatusCode::kFailedPrecondition);
  }
  {
    std::string hello;
    AppendFrame(MessageTag::kHello, "\x7e", &hello);  // no marker
    RawSession session = Connect();
    ASSERT_TRUE(session.Write(hello).ok());
    ExpectErrorThenClose(&session, StatusCode::kInvalidArgument);
  }
  ExpectServerAlive();
}

TEST_F(RpcRobustnessTest, BareRequestAfterTheHelloIsRefused) {
  // After the hello every request travels in a mux envelope; there is no
  // second, bare request/response protocol to fall back to.
  RawSession session = Open();
  ASSERT_TRUE(session.Write(EmptyRequest(MessageTag::kPing)).ok());
  ExpectErrorThenClose(&session, StatusCode::kFailedPrecondition);
  ExpectServerAlive();
}

// --- framing and payload damage ----------------------------------------------

TEST_F(RpcRobustnessTest, OversizedLengthPrefixGetsErrorAndClose) {
  RawSession session = Open();
  // Claim a 1 GiB body. The server must refuse without allocating it.
  std::string header(kFrameHeaderBytes, '\0');
  const uint32_t huge = 1u << 30;
  std::memcpy(header.data(), &huge, sizeof(huge));
  ASSERT_TRUE(session.Write(header).ok());
  // After a framing error the server drops the connection...
  ExpectErrorThenClose(&session, StatusCode::kResourceExhausted);
  // ...but keeps serving everyone else.
  ExpectServerAlive();
}

TEST_F(RpcRobustnessTest, PreHelloOversizedLengthPrefixGetsErrorAndClose) {
  // Framing is checked before the session gate: a hostile first frame is
  // refused without its body being buffered.
  RawSession session = Connect();
  std::string header(kFrameHeaderBytes, '\0');
  const uint32_t huge = 1u << 30;
  std::memcpy(header.data(), &huge, sizeof(huge));
  ASSERT_TRUE(session.Write(header).ok());
  ExpectErrorThenClose(&session, StatusCode::kResourceExhausted);
  ExpectServerAlive();
}

TEST_F(RpcRobustnessTest, CrcMismatchGetsCorruptionErrorAndClose) {
  RawSession session = Open();
  std::string frame = MuxWrap(1, EmptyRequest(MessageTag::kPing));
  frame.back() ^= 0x01;  // corrupt the inner tag after the CRC was computed
  ASSERT_TRUE(session.Write(frame).ok());
  ExpectErrorThenClose(&session, StatusCode::kCorruption);
  ExpectServerAlive();
}

TEST_F(RpcRobustnessTest, UnknownTagGetsErrorButConnectionSurvives) {
  RawSession session = Open();
  // A well-framed envelope around a tag the server has never heard of: the
  // stream is still aligned, so the connection must stay usable.
  std::string unknown;
  AppendFrame(static_cast<MessageTag>(0x5e), "payload", &unknown);
  ASSERT_TRUE(session.Send(1, unknown).ok());
  Frame inner;
  uint64_t id = 0;
  ASSERT_TRUE(session.ReadReply(&inner, &id).ok());
  EXPECT_EQ(id, 1u);
  ASSERT_EQ(inner.tag, MessageTag::kError);
  EXPECT_TRUE(DecodeError(inner.payload).IsUnimplemented());

  // The retired single-event publish tag (0x01) is just as unknown.
  std::string retired;
  AppendFrame(static_cast<MessageTag>(0x01), std::string(17, '\0'), &retired);
  ASSERT_TRUE(session.Send(2, retired).ok());
  ASSERT_TRUE(session.ReadReply(&inner, &id).ok());
  EXPECT_EQ(id, 2u);
  ASSERT_EQ(inner.tag, MessageTag::kError);
  EXPECT_TRUE(DecodeError(inner.payload).IsUnimplemented());

  // Same connection, valid ping: still served.
  ASSERT_TRUE(session.Send(3, EmptyRequest(MessageTag::kPing)).ok());
  ASSERT_TRUE(session.ReadReply(&inner, &id).ok());
  EXPECT_EQ(id, 3u);
  EXPECT_EQ(inner.tag, MessageTag::kAck);
}

TEST_F(RpcRobustnessTest, MalformedPayloadGetsStatusErrorConnectionSurvives) {
  RawSession session = Open();
  // A publish-batch whose payload is a zero count plus ten stray bytes:
  // framing is fine, payload decoding fails -> InvalidArgument reply,
  // connection lives.
  std::string frame;
  AppendFrame(MessageTag::kPublishBatch, std::string(14, '\0'), &frame);
  ASSERT_TRUE(session.Send(1, frame).ok());
  Frame inner;
  ASSERT_TRUE(session.ReadReply(&inner).ok());
  ASSERT_EQ(inner.tag, MessageTag::kError);
  EXPECT_TRUE(DecodeError(inner.payload).IsInvalidArgument());

  // An envelope too short to carry an inner tag gets a bare error, and the
  // connection lives on too.
  std::string short_envelope;
  AppendFrame(MessageTag::kMuxRequest, "1234567", &short_envelope);
  ASSERT_TRUE(session.Write(short_envelope).ok());
  Frame bare;
  ASSERT_TRUE(session.Read(&bare).ok());
  ASSERT_EQ(bare.tag, MessageTag::kError);
  EXPECT_TRUE(DecodeError(bare.payload).IsInvalidArgument());

  ASSERT_TRUE(session.Send(2, EmptyRequest(MessageTag::kPing)).ok());
  ASSERT_TRUE(session.ReadReply(&inner).ok());
  EXPECT_EQ(inner.tag, MessageTag::kAck);
}

TEST_F(RpcRobustnessTest, PublishBatchWithoutASequenceIsRefused) {
  // Every batch is idempotent: one without its batch sequence cannot be
  // deduplicated, so the daemon refuses it instead of applying it.
  std::vector<EdgeEvent> events(3);
  for (uint32_t i = 0; i < events.size(); ++i) {
    events[i].edge = TimestampedEdge{i, i + 1, Seconds(i)};
  }
  std::string untagged;
  AppendPublishBatch(events, &untagged);
  RawSession session = Open();
  ASSERT_TRUE(session.Send(1, untagged).ok());
  Frame inner;
  ASSERT_TRUE(session.ReadReply(&inner).ok());
  ASSERT_EQ(inner.tag, MessageTag::kError);
  const Status refused = DecodeError(inner.payload);
  EXPECT_TRUE(refused.IsInvalidArgument()) << refused;
  ASSERT_TRUE(hosted_->Drain().ok());
  auto stats = hosted_->GetStats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->events_published, 0u);

  std::string tagged;
  AppendPublishBatch(events, &tagged, /*batch_sequence=*/42);
  ASSERT_TRUE(session.Send(2, tagged).ok());
  ASSERT_TRUE(session.ReadReply(&inner).ok());
  EXPECT_EQ(inner.tag, MessageTag::kAck);
}

TEST_F(RpcRobustnessTest, TruncatedFrameThenDisconnectIsHarmless) {
  {
    RawSession session = Open();
    // Half a header, then hang up.
    ASSERT_TRUE(session.Write(std::string_view("\x20\x00", 2)).ok());
  }
  {
    RawSession session = Open();
    // A full header promising 32 body bytes, deliver 5, hang up.
    std::string frame = EmptyRequest(MessageTag::kPing);
    uint32_t lied = 32;
    std::memcpy(frame.data(), &lied, sizeof(lied));
    ASSERT_TRUE(session.Write(frame).ok());
  }
  ExpectServerAlive();
  WaitForProtocolErrors(1);
}

TEST_F(RpcRobustnessTest, GarbageFloodNeverCrashesTheDaemon) {
  // Deterministic pseudo-garbage, several connections' worth: half of them
  // past the hello, half hitting the session gate.
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int conn = 0; conn < 8; ++conn) {
    RawSession session = conn % 2 == 0 ? Open() : Connect();
    std::string garbage(733 + 97 * conn, '\0');
    for (char& c : garbage) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      c = static_cast<char>(x);
    }
    // The server may sever mid-write once it hits a framing error; that is
    // the expected outcome, not a failure.
    (void)session.Write(garbage);
  }
  ExpectServerAlive();
  WaitForProtocolErrors(1);
}

TEST_F(RpcRobustnessTest, StopWithOpenConnectionsDoesNotHang) {
  RawSession a = Connect();
  RawSession b = Open();
  // Neither connection sends a request; Stop() must still return promptly
  // (the test harness timeout is the hang detector).
  server_->Stop();
}

// --- pipelined sessions, seeded ----------------------------------------------

uint64_t FuzzSeed() {
  if (const char* env = std::getenv("MAGICRECS_FUZZ_SEED")) {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return 0x919e'11ed'2026ull;
}

TEST(RpcPipelineFuzzTest, EveryRequestAnsweredOnceAndAppliedInOrder) {
  // Each trial pipelines a random mix down one connection of a fresh
  // server: valid publishes, publishes without a batch sequence, truncated
  // envelopes, replays of earlier batch sequences, pings and drains, under
  // a random in-flight cap and pool size, written in random slices. Every
  // request must get exactly one reply of the right kind; order-sensitive
  // requests must reach the transport in request order; each distinct
  // valid batch sequence must be applied exactly once.
  auto publish = [](VertexId src, uint64_t sequence) {
    EdgeEvent event;
    event.edge = TimestampedEdge{src, 7, 42};
    std::string frame;
    AppendPublishBatch(std::span(&event, 1), &frame, sequence);
    return frame;
  };
  const uint64_t seed = FuzzSeed();
  SCOPED_TRACE("MAGICRECS_FUZZ_SEED=" + std::to_string(seed));
  Rng rng(seed);
  constexpr int kTrials = 24;
  const size_t caps[] = {1, 2, 3, 8, 64};
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    net_test::StubTransport transport;
    RpcServerOptions options;
    options.max_inflight_per_conn = caps[rng.UniformInt(std::size(caps))];
    options.worker_threads = 1 + static_cast<int>(rng.UniformInt(4));
    auto server = RpcServer::Start(&transport, options);
    ASSERT_TRUE(server.ok()) << server.status();
    auto session = RawSession::Open((*server)->port());
    ASSERT_TRUE(session.ok()) << session.status();
    ASSERT_TRUE(session->socket().SetRecvTimeout(10'000).ok());

    // The requests and the oracle: the reply kind owed to each request id,
    // how many bare errors (envelopes too short for a request id and tag),
    // the transport calls in order, and the edge source of each applied
    // batch's one event (its batch sequence).
    std::string bytes;
    std::map<uint64_t, MessageTag> owed;
    size_t bare_errors = 0;
    uint64_t replays = 0;
    std::string calls;
    std::vector<VertexId> applied;
    std::vector<std::string> valid;  // valid publish frames, for replays
    uint64_t next_sequence = 1;
    const uint64_t requests = 1 + rng.UniformInt(120);
    for (uint64_t id = 1; id <= requests; ++id) {
      switch (rng.UniformInt(6)) {
        case 0: {
          const uint64_t sequence = next_sequence++;
          valid.push_back(publish(sequence, sequence));
          bytes += MuxWrap(id, valid.back());
          owed[id] = MessageTag::kAck;
          calls += 'P';
          applied.push_back(sequence);
          break;
        }
        case 1:
          bytes += MuxWrap(id, publish(id, 0));
          owed[id] = MessageTag::kError;
          break;
        case 2: {
          // A publish envelope cut short and re-framed: the frame is sound,
          // its payload is not. Too short for an id and a tag, it earns a
          // bare error; otherwise an error under its id.
          const std::string whole = MuxWrap(id, publish(id, 0));
          const std::string payload = whole.substr(kFrameHeaderBytes + 1);
          const size_t cut = rng.UniformInt(payload.size());
          AppendFrame(MessageTag::kMuxRequest, payload.substr(0, cut), &bytes);
          if (cut <= sizeof(uint64_t)) {
            bare_errors++;
          } else {
            owed[id] = MessageTag::kError;
          }
          break;
        }
        case 3:
          if (!valid.empty()) {
            bytes += MuxWrap(id, valid[rng.UniformInt(valid.size())]);
            owed[id] = MessageTag::kAck;
            replays++;
            break;
          }
          [[fallthrough]];
        case 4:
          bytes += MuxWrap(id, EmptyRequest(MessageTag::kPing));
          owed[id] = MessageTag::kAck;
          break;
        default:
          bytes += MuxWrap(id, EmptyRequest(MessageTag::kDrain));
          owed[id] = MessageTag::kAck;
          calls += 'D';
          break;
      }
    }
    std::vector<size_t> slices;
    for (size_t at = 0; at < bytes.size();) {
      const size_t slice = 1 + rng.UniformInt(rng.Bernoulli(0.5) ? 64 : 4096);
      slices.push_back(std::min(slice, bytes.size() - at));
      at += slices.back();
    }

    // A second thread writes: at a small cap the server stops reading, and
    // the replies must be read for it to go on.
    std::thread writer([&] {
      size_t at = 0;
      for (const size_t slice : slices) {
        if (!session->Write(std::string_view(bytes).substr(at, slice)).ok()) {
          return;
        }
        at += slice;
      }
    });
    size_t bare_seen = 0;
    const size_t replies = owed.size() + bare_errors;
    for (size_t i = 0; i < replies; ++i) {
      Frame frame;
      const Status read = session->Read(&frame);
      if (!read.ok()) {
        ADD_FAILURE() << "reply " << i << " of " << replies << ": " << read;
        break;
      }
      if (frame.tag == MessageTag::kError) {
        bare_seen++;
        continue;
      }
      uint64_t id = 0;
      bool last = false;
      Frame inner;
      if (frame.tag != MessageTag::kMuxResponse ||
          !DecodeMuxResponse(frame.payload, &id, &last, &inner).ok()) {
        ADD_FAILURE() << "reply " << i << " is no mux response";
        break;
      }
      EXPECT_TRUE(last);
      const auto it = owed.find(id);
      if (it == owed.end()) {
        ADD_FAILURE() << "request " << id << " answered twice, or never sent";
        continue;
      }
      EXPECT_EQ(inner.tag, it->second) << "request " << id;
      owed.erase(it);
    }
    // After a failure the writer may be blocked on a server that stopped
    // reading; cutting the connection releases it.
    if (::testing::Test::HasFailure()) session->socket().Shutdown();
    writer.join();
    EXPECT_TRUE(owed.empty()) << owed.size() << " requests unanswered";
    EXPECT_EQ(bare_seen, bare_errors);
    EXPECT_EQ(transport.call_order(), calls);
    std::vector<VertexId> sources;
    for (const EdgeEvent& event : transport.published()) {
      sources.push_back(event.edge.src);
    }
    EXPECT_EQ(sources, applied);
    const RpcServerStats stats = (*server)->stats();
    EXPECT_EQ(stats.duplicate_batches, replays);
    EXPECT_EQ(stats.requests_served, requests + 1) << "the hello, then each";
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace magicrecs::net
