// Partial-I/O and scaling acceptance for the epoll reactor, driven through
// raw hello+mux sessions (raw_session.h):
//   * frames delivered one byte at a time — the hello included — decode
//     exactly like whole ones;
//   * replies larger than the socket buffer drain through the partial-
//     write state machine (EPOLLOUT + carry, counted);
//   * pipelined requests before a framing error are all answered, in
//     order, before the error reply severs the connection;
//   * the per-connection in-flight cap applies backpressure instead of
//     unbounded buffering;
//   * 256 concurrent connections are served without 256 threads
//     (asserted via /proc/self/task);
//   * the lifecycle: a refused Start leaves no thread behind, a server
//     on a reused port counts from zero, and Stop waits out a handler
//     blocked in the transport before it closes every connection;
//   * publish-batches queued behind one another are served as one run —
//     one worker task, their acks in one write — and a run ends at every
//     other order-sensitive request, which runs alone;
//   * a burst of publish-batches larger than one read chunk, written at
//     once with nothing gated, is still one run: the loop dispatches only
//     after the readiness event is drained.

#include "net/rpc_server.h"

#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "raw_session.h"
#include "stub_transport.h"

#include "net/wire.h"
#include "util/histogram.h"
#include "util/metrics.h"
#include "util/str_format.h"

namespace magicrecs::net {
namespace {

using net_test::EmptyRequest;
using net_test::HelloFrame;
using net_test::MuxWrap;
using net_test::RawSession;
using net_test::StubTransport;
using net_test::TakeRequest;

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

/// CountThreads once /proc/self/task stops shrinking: a thread joined just
/// before can stay listed for a moment after its join returns. Waits at most
/// about a second.
long SettledThreadCount() {
  long count = CountThreads();
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const long now = CountThreads();
    if (now >= count) return now;
    count = now;
  }
  return count;
}

/// A one-event publish-batch whose edge source is `src`.
std::string OnePublish(VertexId src, uint64_t batch_sequence) {
  EdgeEvent event;
  event.edge = TimestampedEdge{src, 7, 42};
  std::string frame;
  AppendPublishBatch(std::span(&event, 1), &frame, batch_sequence);
  return frame;
}

/// A publish-batch of `n` events, sources from `first_src` on.
std::string PublishOf(size_t n, VertexId first_src, uint64_t batch_sequence) {
  std::vector<EdgeEvent> events(n);
  for (size_t i = 0; i < n; ++i) {
    events[i].edge = TimestampedEdge{first_src + static_cast<VertexId>(i), 7,
                                     42};
  }
  std::string frame;
  AppendPublishBatch(events, &frame, batch_sequence);
  return frame;
}

class EpollServerTest : public ::testing::Test {
 protected:
  void StartServer(const RpcServerOptions& options = {}) {
    auto server = RpcServer::Start(&transport_, options);
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(server).value();
  }

  /// A raw connection past the session gate.
  RawSession Open() {
    auto session = RawSession::Open(server_->port());
    EXPECT_TRUE(session.ok()) << session.status();
    return std::move(session).value();
  }

  StubTransport transport_;
  std::unique_ptr<RpcServer> server_;
};

TEST_F(EpollServerTest, FramesDeliveredOneByteAtATimeDecode) {
  StartServer();
  auto session = RawSession::Connect(server_->port());
  ASSERT_TRUE(session.ok()) << session.status();

  // The hello, a publish envelope and a ping envelope, dribbled one byte
  // per write: the assembler must stitch split headers and split bodies
  // back together.
  std::string publish;
  EdgeEvent event;
  event.edge = TimestampedEdge{3, 7, 42};
  AppendPublishBatch(std::span(&event, 1), &publish, /*batch_sequence=*/9);
  const std::string bytes = HelloFrame() + MuxWrap(1, publish) +
                            MuxWrap(2, EmptyRequest(MessageTag::kPing));
  for (const char byte : bytes) {
    ASSERT_TRUE(session->Write(std::string_view(&byte, 1)).ok());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  Frame reply;
  ASSERT_TRUE(session->Read(&reply).ok());
  EXPECT_EQ(reply.tag, MessageTag::kHelloReply);
  // The ping is order-free and may overtake the publish: match by id.
  uint64_t ids = 0;
  for (int i = 0; i < 2; ++i) {
    uint64_t id = 0;
    ASSERT_TRUE(session->ReadReply(&reply, &id).ok());
    EXPECT_EQ(reply.tag, MessageTag::kAck) << "request " << id;
    ids |= uint64_t{1} << id;
  }
  EXPECT_EQ(ids, 0b110u) << "each request answered exactly once";
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
  RawSession session = Open();
  ASSERT_TRUE(
      session.Send(1, TakeRequest()).ok());
  // Let the server hit the full socket buffer before we start draining.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::vector<Recommendation> received;
  bool has_more = true;
  while (has_more) {
    Frame reply;
    bool last = false;
    ASSERT_TRUE(session.ReadReply(&reply, nullptr, &last).ok());
    ASSERT_EQ(reply.tag, MessageTag::kRecommendationsReply);
    ASSERT_TRUE(
        DecodeRecommendationsReply(reply.payload, &received, &has_more).ok());
    EXPECT_EQ(last, !has_more);
  }
  ASSERT_EQ(received.size(), canned.size());
  EXPECT_EQ(received.back().witnesses, canned.back().witnesses);
  EXPECT_GT(server_->stats().partial_writes, 0u)
      << "a 24 MiB reply cannot have fit the socket buffer whole";
}

TEST_F(EpollServerTest, PipelinedRequestsBeforeFramingErrorAnswerInOrder) {
  StartServer();
  RawSession session = Open();

  // Two good pings, then an oversized length prefix — all in one write.
  // The contract: both pings answered first, then the error reply, then
  // the connection is severed.
  std::string bytes = MuxWrap(1, EmptyRequest(MessageTag::kPing)) +
                      MuxWrap(2, EmptyRequest(MessageTag::kPing));
  std::string bad_header(kFrameHeaderBytes, '\0');
  const uint32_t huge = 1u << 30;
  std::memcpy(bad_header.data(), &huge, sizeof(huge));
  bytes += bad_header;
  ASSERT_TRUE(session.Write(bytes).ok());

  Frame reply;
  ASSERT_TRUE(session.ReadReply(&reply).ok());
  EXPECT_EQ(reply.tag, MessageTag::kAck);
  ASSERT_TRUE(session.ReadReply(&reply).ok());
  EXPECT_EQ(reply.tag, MessageTag::kAck);
  ASSERT_TRUE(session.Read(&reply).ok());
  ASSERT_EQ(reply.tag, MessageTag::kError);
  EXPECT_TRUE(DecodeError(reply.payload).IsResourceExhausted());
  EXPECT_TRUE(session.Closed())
      << "the stream is desynchronized; the server must sever";
}

TEST_F(EpollServerTest, InflightCapAppliesBackpressureNotUnboundedBuffering) {
  RpcServerOptions options;
  options.max_inflight_per_conn = 4;
  options.worker_threads = 2;
  StartServer(options);
  RawSession session = Open();

  // 200 pipelined pings, written before any reply is read. Every one must
  // be answered; the reactor must have paused reads at the cap along the
  // way rather than parking 200 decoded requests.
  constexpr int kPings = 200;
  std::string bytes;
  for (int i = 0; i < kPings; ++i) {
    bytes += MuxWrap(i, EmptyRequest(MessageTag::kPing));
  }
  std::thread writer([&] {
    // A second thread: 200 pings can exceed the combined socket buffers
    // once the server stops reading, which is exactly the point.
    (void)session.Write(bytes);
  });
  for (int i = 0; i < kPings; ++i) {
    Frame reply;
    ASSERT_TRUE(session.ReadReply(&reply).ok()) << "ping " << i;
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
  std::vector<RawSession> sessions;
  sessions.reserve(kConnections);
  for (size_t i = 0; i < kConnections; ++i) {
    auto session = RawSession::Open(server_->port());
    ASSERT_TRUE(session.ok()) << "connection " << i << ": "
                              << session.status();
    sessions.push_back(std::move(session).value());
  }
  // Three ping waves across every connection: all served, none dropped.
  const std::string ping = EmptyRequest(MessageTag::kPing);
  for (int wave = 0; wave < 3; ++wave) {
    for (RawSession& session : sessions) {
      ASSERT_TRUE(session.Send(wave, ping).ok());
    }
    for (RawSession& session : sessions) {
      Frame reply;
      uint64_t id = 0;
      ASSERT_TRUE(session.ReadReply(&reply, &id).ok());
      EXPECT_EQ(reply.tag, MessageTag::kAck);
      EXPECT_EQ(id, static_cast<uint64_t>(wave));
    }
  }
  EXPECT_GE(server_->stats().connections_accepted, kConnections);
  EXPECT_EQ(server_->stats().mux_connections, kConnections);
  EXPECT_LT(CountThreads() - threads_before, 32)
      << "the reactor must serve 256 connections without a thread per "
         "connection";
  // Orderly teardown: close every socket; the server reaps them all.
  sessions.clear();
  for (int i = 0; i < 200; ++i) {
    if (server_->stats().connections_open == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server_->stats().connections_open, 0u);
  EXPECT_EQ(server_->stats().protocol_errors, 0u)
      << "orderly closes must not count as protocol errors";
}

TEST_F(EpollServerTest, RefusedStartLeavesNoThreadRunning) {
  StartServer();
  const long threads_before = SettledThreadCount();
  RpcServerOptions no_inflight;
  no_inflight.max_inflight_per_conn = 0;
  RpcServerOptions no_workers;
  no_workers.worker_threads = 0;
  RpcServerOptions taken_port;
  taken_port.port = server_->port();
  taken_port.health_interval_ms = 10;
  EXPECT_TRUE(RpcServer::Start(nullptr, {}).status().IsInvalidArgument());
  EXPECT_TRUE(
      RpcServer::Start(&transport_, no_inflight).status().IsInvalidArgument());
  EXPECT_TRUE(
      RpcServer::Start(&transport_, no_workers).status().IsInvalidArgument());
  EXPECT_FALSE(RpcServer::Start(&transport_, taken_port).ok())
      << "a second listener on a port in use";
  EXPECT_EQ(CountThreads(), threads_before);

  // The server that owns the port is untouched.
  RawSession session = Open();
  ASSERT_TRUE(session.Send(1, EmptyRequest(MessageTag::kPing)).ok());
  Frame reply;
  ASSERT_TRUE(session.ReadReply(&reply).ok());
  EXPECT_EQ(reply.tag, MessageTag::kAck);
}

TEST_F(EpollServerTest, ServerOnAReusedPortCountsFromZero) {
  StartServer();
  RawSession session = Open();
  ASSERT_TRUE(session.Send(1, EmptyRequest(MessageTag::kPing)).ok());
  Frame reply;
  ASSERT_TRUE(session.ReadReply(&reply).ok());
  const uint16_t port = server_->port();
  // The connection is still open: Stop must sever it and take the shared
  // rpc_connections_open gauge back down with it.
  server_->Stop();
  EXPECT_EQ(server_->stats().requests_served, 2u) << "hello + ping";

  // Same host:port, so the same registry counters: stats() must start
  // from the new server's baseline, not the old server's totals.
  RpcServerOptions options;
  options.port = port;
  StartServer(options);
  const RpcServerStats fresh = server_->stats();
  EXPECT_EQ(fresh.connections_accepted, 0u);
  EXPECT_EQ(fresh.requests_served, 0u);
  EXPECT_EQ(fresh.mux_connections, 0u);
  EXPECT_EQ(fresh.connections_open, 0u);
  EXPECT_EQ(fresh.protocol_errors, 0u);

  RawSession again = Open();
  ASSERT_TRUE(again.Send(1, EmptyRequest(MessageTag::kPing)).ok());
  ASSERT_TRUE(again.ReadReply(&reply).ok());
  const RpcServerStats served = server_->stats();
  EXPECT_EQ(served.connections_accepted, 1u);
  EXPECT_EQ(served.requests_served, 2u);
  EXPECT_EQ(served.mux_connections, 1u);
  EXPECT_EQ(served.connections_open, 1u);
}

TEST_F(EpollServerTest, StopWaitsOutABlockedHandler) {
  StartServer();
  RawSession session = Open();
  transport_.GateDrains();
  ASSERT_TRUE(session.Send(1, EmptyRequest(MessageTag::kDrain)).ok());
  for (int i = 0; i < 500 && !transport_.drain_blocked(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(transport_.drain_blocked());
  EXPECT_EQ(server_->stats().connections_open, 1u);

  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    server_->Stop();
    stopped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(stopped.load())
      << "Stop returned while a worker was still inside the transport";
  transport_.Release();
  stopper.join();
  EXPECT_EQ(server_->stats().connections_open, 0u);
  server_->Stop();  // idempotent
}

TEST_F(EpollServerTest, QueuedPublishesRunAsOneTaskAndOneWrite) {
  StartServer();
  RawSession session = Open();
  HistogramMetric* frames_per_writev = MetricsRegistry::Default()->GetHistogram(
      "rpc_frames_per_writev",
      {{"server", StrFormat("127.0.0.1:%u",
                            static_cast<unsigned>(server_->port()))}});
  // Only this test's samples count: an earlier server on the same port
  // shares the registry entry.
  const Histogram before = frames_per_writev->Snapshot();
  auto most_frames_per_writev = [&] {
    return frames_per_writev->Snapshot().DeltaSince(before).Max();
  };

  // The first publish is held in the transport; 15 more queue behind it in
  // one write. The ping after them is order-free, so its ack proves the
  // server has parked every publish ahead of it.
  transport_.GatePublishes();
  ASSERT_TRUE(session.Send(1, OnePublish(1, 1)).ok());
  for (int i = 0; i < 500 && !transport_.publish_blocked(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(transport_.publish_blocked());
  std::string bytes;
  for (uint64_t id = 2; id <= 16; ++id) bytes += MuxWrap(id, OnePublish(id, id));
  bytes += MuxWrap(100, EmptyRequest(MessageTag::kPing));
  ASSERT_TRUE(session.Write(bytes).ok());
  Frame reply;
  uint64_t id = 0;
  ASSERT_TRUE(session.ReadReply(&reply, &id).ok());
  EXPECT_EQ(id, 100u);
  EXPECT_EQ(reply.tag, MessageTag::kAck);

  transport_.Release();
  for (uint64_t want = 1; want <= 16; ++want) {
    ASSERT_TRUE(session.ReadReply(&reply, &id).ok()) << "publish " << want;
    EXPECT_EQ(reply.tag, MessageTag::kAck);
    EXPECT_EQ(id, want) << "publish acks leave in request order";
  }
  EXPECT_EQ(transport_.publishes(), 16u);
  EXPECT_EQ(transport_.call_order(), std::string(16, 'P'));
  // The loop records a writev's sample only after the kernel took the
  // bytes, so the acks can be read before it lands.
  for (int i = 0; i < 500 && most_frames_per_writev() < 15; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(most_frames_per_writev(), 15)
      << "the 15 queued publishes should be one run, acked in one write";
}

TEST_F(EpollServerTest, BurstLargerThanOneReadIsOneRunAndOneWrite) {
  StartServer();
  RawSession session = Open();
  HistogramMetric* frames_per_writev = MetricsRegistry::Default()->GetHistogram(
      "rpc_frames_per_writev",
      {{"server", StrFormat("127.0.0.1:%u",
                            static_cast<unsigned>(server_->port()))}});
  const Histogram before = frames_per_writev->Snapshot();
  const auto delta = [&] {
    return frames_per_writev->Snapshot().DeltaSince(before);
  };

  // 16 publish-batches of 256 events, the frames of one 4096-event broker
  // publish, written at once with no gate: more bytes than one read takes,
  // so the loop needs two reads for them. The kernel may still hand a
  // burst over in two readiness events (the loop can wake between the
  // two segments of one send), which the server cannot join; so up to
  // three bursts are sent, and one of them must come back as one run.
  constexpr uint64_t kFrames = 16;
  constexpr size_t kEventsPerFrame = 256;
  constexpr int kBursts = 3;
  uint64_t sent = 0;
  for (int burst = 0; burst < kBursts && delta().Max() < 16; ++burst) {
    std::string bytes;
    for (uint64_t f = 0; f < kFrames; ++f) {
      const uint64_t id = sent + f + 1;
      bytes += MuxWrap(id, PublishOf(kEventsPerFrame, id * 1000, id));
    }
    ASSERT_GT(bytes.size(), kReadChunkBytes);
    ASSERT_TRUE(session.Write(bytes).ok());
    for (uint64_t f = 0; f < kFrames; ++f) {
      Frame reply;
      uint64_t id = 0;
      ASSERT_TRUE(session.ReadReply(&reply, &id).ok()) << "publish " << f;
      EXPECT_EQ(reply.tag, MessageTag::kAck);
      EXPECT_EQ(id, sent + f + 1) << "publish acks leave in request order";
    }
    sent += kFrames;
    // The loop records a writev's sample only after the kernel took the
    // bytes, so the acks can be read before the last sample lands: wait
    // until every ack frame is counted.
    for (int i = 0; i < 500; ++i) {
      const Histogram acked = delta();
      if (acked.Mean() * static_cast<double>(acked.Count()) + 0.5 >=
          static_cast<double>(sent)) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_EQ(transport_.publishes(), sent * kEventsPerFrame);
  EXPECT_GE(delta().Max(), 16)
      << "a burst of 16 publishes spanning two reads should be one run, "
         "acked in one write";
}

TEST_F(EpollServerTest, PublishRunsEndAtEveryOtherOrderSensitiveRequest) {
  StartServer();
  RawSession session = Open();
  transport_.GateDrains();

  // publish x3, drain, publish x2, kill-replica, publish — one write.
  std::string kill;
  AppendReplicaOp(MessageTag::kKillReplica, 0, 0, &kill);
  const std::string requests[] = {
      OnePublish(1, 1), OnePublish(2, 2), OnePublish(3, 3),
      EmptyRequest(MessageTag::kDrain), OnePublish(5, 5), OnePublish(6, 6),
      kill, OnePublish(8, 8)};
  std::string bytes;
  for (size_t i = 0; i < std::size(requests); ++i) {
    bytes += MuxWrap(i + 1, requests[i]);
  }
  ASSERT_TRUE(session.Write(bytes).ok());

  // The publishes queued ahead of the drain are acked while it holds.
  Frame reply;
  uint64_t id = 0;
  for (uint64_t want = 1; want <= 3; ++want) {
    ASSERT_TRUE(session.ReadReply(&reply, &id).ok()) << "publish " << want;
    EXPECT_EQ(reply.tag, MessageTag::kAck);
    EXPECT_EQ(id, want);
  }
  for (int i = 0; i < 500 && !transport_.drain_blocked(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(transport_.drain_blocked());

  // A ping sent during the hold overtakes the drain and all behind it.
  ASSERT_TRUE(session.Send(100, EmptyRequest(MessageTag::kPing)).ok());
  ASSERT_TRUE(session.ReadReply(&reply, &id).ok());
  EXPECT_EQ(id, 100u);
  EXPECT_EQ(reply.tag, MessageTag::kAck);
  EXPECT_EQ(transport_.call_order(), "PPPD")
      << "nothing behind a held drain may reach the transport";

  transport_.Release();
  for (uint64_t want = 4; want <= std::size(requests); ++want) {
    ASSERT_TRUE(session.ReadReply(&reply, &id).ok()) << "request " << want;
    EXPECT_EQ(reply.tag, MessageTag::kAck);
    EXPECT_EQ(id, want);
  }
  EXPECT_EQ(transport_.call_order(), "PPPDPPKP");
}

}  // namespace
}  // namespace magicrecs::net
