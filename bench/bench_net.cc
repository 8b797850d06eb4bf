// Experiment T6 — the cost of the network boundary. The same workload is
// driven through the same ClusterTransport interface five ways:
//
//   threaded    — a started Cluster in process (window thread and replica
//                 workers, no network)
//   rpc         — FanoutCluster -> loopback TCP -> one in-process RpcServer
//                 hosting all partitions, one Publish round trip per event
//   rpc-batch   — same, but PublishBatch frames of 256 events
//   fanout-1d   — same single daemon, pipelined batch frames of 4096
//                 events (up to 32 frames in flight)
//   fanout-4d   — FanoutCluster -> a 4-daemon partition group (one daemon
//                 per partition), same pipelined batches fanned to all four
//
// Plus a degraded-mode section: the same 4-daemon group with one daemon
// stopped, driven under FanoutPolicy::kQuorum — publishes to the dead
// daemon fail fast into its replay buffer, gathers merge the three
// survivors, and the GatherReport prices what availability costs.
//
// Reported: ingest throughput (publish -> drain of the full stream) and the
// publish->recommendation latency distribution (publish one event, drain,
// gather — the time until that event's recommendations are in hand).
// Per-event RPC pays one round trip per event, so batching is the lever
// that recovers most of the gap; pipelining overlaps the framing/syscall
// cost with daemon-side work; the multi-daemon rows price the paper's
// process-per-partition deployment (every daemon ingests the full stream,
// so fan-out multiplies bytes written, while the per-daemon detector work
// shrinks with the shard).
//
// Every row is also written to BENCH_net.json (one JSON array, rewritten
// per run) so a CI job or an operator can diff runs machine-readably;
// the file itself is gitignored — accumulating a trajectory across PRs
// means archiving each run's file (e.g. as a CI artifact).

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "bench_json.h"
#include "workload.h"
#include "cluster/cluster.h"
#include "net/fanout_cluster.h"
#include "net/frame_buf.h"
#include "net/frame_io.h"
#include "net/rpc_server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "util/clock.h"
#include "util/histogram.h"
#include "util/str_format.h"
#include "util/trace.h"

using namespace magicrecs;
using bench::MakeWorkload;
using bench::Workload;
using bench::WorkloadConfig;

namespace {

std::vector<EdgeEvent> ToEvents(const std::vector<TimestampedEdge>& edges) {
  std::vector<EdgeEvent> events;
  events.reserve(edges.size());
  for (const TimestampedEdge& edge : edges) {
    EdgeEvent event;
    event.edge = edge;
    events.push_back(event);
  }
  return events;
}

ClusterOptions MakeClusterOptions() {
  ClusterOptions copt;
  copt.num_partitions = 4;
  copt.detector.k = 3;
  copt.detector.window = Minutes(10);
  copt.detector.max_reported_witnesses = 0;
  return copt;
}

/// A transport plus whatever infrastructure keeps it alive.
struct Endpoint {
  ClusterTransport* transport = nullptr;
  std::vector<std::unique_ptr<Cluster>> hosted;
  std::vector<std::unique_ptr<net::RpcServer>> servers;
  std::unique_ptr<net::FanoutCluster> fanout;
};

/// A started in-process cluster: a window thread and one worker per
/// replica.
std::unique_ptr<Cluster> StartCluster(const StaticGraph& graph,
                                      const ClusterOptions& options) {
  auto cluster = Cluster::Create(graph, options);
  const Status started = cluster.ok() ? (*cluster)->Start() : cluster.status();
  if (!started.ok()) {
    std::fprintf(stderr, "cluster: %s\n", started.ToString().c_str());
    std::exit(1);
  }
  return std::move(cluster).value();
}

/// Fresh in-process threaded endpoint.
Endpoint MakeLocal(const StaticGraph& graph) {
  Endpoint e;
  e.hosted.push_back(StartCluster(graph, MakeClusterOptions()));
  e.transport = e.hosted.back().get();
  return e;
}

/// Spawns one in-process "daemon" (hosted cluster + RPC server).
net::RpcServer* SpawnDaemon(Endpoint* e, const StaticGraph& graph,
                            const ClusterOptions& options) {
  e->hosted.push_back(StartCluster(graph, options));
  net::RpcServerOptions sopt;
  // Partition-group members stamp traces with their global partition id,
  // exactly as magicrecsd wires it.
  if (options.group_size > 0) sopt.trace_party = options.group_partition;
  auto server = net::RpcServer::Start(e->hosted.back().get(), sopt);
  if (!server.ok()) {
    std::fprintf(stderr, "rpc server: %s\n",
                 server.status().ToString().c_str());
    std::exit(1);
  }
  e->servers.push_back(std::move(server).value());
  return e->servers.back().get();
}

/// Fresh fan-out endpoint: `daemons` == 1 hosts the whole cluster behind
/// one server; otherwise one daemon per partition (a partition group).
/// trace_sample_every == 0 keeps the broker's default sampling rate.
Endpoint MakeFanout(const StaticGraph& graph, uint32_t daemons,
                    net::FanoutPolicy policy = net::FanoutPolicy::kStrict,
                    uint64_t trace_sample_every = 0) {
  Endpoint e;
  const ClusterOptions base = MakeClusterOptions();
  net::FanoutClusterOptions fopt;
  fopt.policy = policy;
  if (trace_sample_every > 0) fopt.trace_sample_every = trace_sample_every;
  fopt.group_size = base.num_partitions;
  if (daemons == 1) {
    net::FanoutEndpoint endpoint;
    endpoint.port = SpawnDaemon(&e, graph, base)->port();
    fopt.endpoints.push_back(endpoint);
  } else {
    for (uint32_t p = 0; p < daemons; ++p) {
      ClusterOptions options = base;
      options.group_size = daemons;
      options.group_partition = p;
      net::FanoutEndpoint endpoint;
      endpoint.port = SpawnDaemon(&e, graph, options)->port();
      endpoint.partition = p;
      fopt.endpoints.push_back(endpoint);
    }
    fopt.group_size = daemons;
  }
  auto fanout = net::FanoutCluster::Connect(fopt);
  if (!fanout.ok()) {
    std::fprintf(stderr, "fanout: %s\n", fanout.status().ToString().c_str());
    std::exit(1);
  }
  e.fanout = std::move(fanout).value();
  e.transport = e.fanout.get();
  return e;
}

struct ThroughputResult {
  double events_per_sec = 0;
  uint64_t recs = 0;
  net::GatherReport report;  ///< coverage of the closing gather (broker)
};

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

struct ConnScaleResult {
  double requests_per_sec = 0;
  long server_threads = 0;  ///< threads the server added for N connections
};

/// The many-connection experiment: N raw client sockets against one
/// in-process daemon, each opening the session with a hello, then
/// round-robin mux-wrapped ping round trips across all of them. The epoll
/// reactor serves all N from one reactor thread + a fixed worker pool —
/// the number this section exists to put on the record.
ConnScaleResult RunConnScale(const StaticGraph& graph, size_t connections,
                             size_t rounds) {
  Endpoint e;
  e.hosted.push_back(StartCluster(graph, MakeClusterOptions()));
  const long threads_before = CountThreads();
  auto server = net::RpcServer::Start(e.hosted.back().get(), {});
  if (!server.ok()) std::exit(1);

  std::vector<net::TcpSocket> sockets;
  sockets.reserve(connections);
  for (size_t i = 0; i < connections; ++i) {
    auto socket = net::TcpSocket::Connect("127.0.0.1", (*server)->port());
    if (!socket.ok()) {
      std::fprintf(stderr, "conn-scale dial %zu: %s\n", i,
                   socket.status().ToString().c_str());
      std::exit(1);
    }
    sockets.push_back(std::move(socket).value());
  }
  std::string hello;
  net::AppendHello(net::kFeatureMux | net::kFeatureTrace, &hello);
  std::string bare_ping;
  net::AppendEmptyRequest(net::MessageTag::kPing, &bare_ping);
  std::string ping;
  net::AppendMuxRequest(/*request_id=*/1, bare_ping, &ping);
  // Each socket is read through its own assembler for its whole life.
  std::vector<net::FrameAssembler> assemblers(connections);
  // The hello round trip on every connection also makes sure each one is
  // accepted before the census.
  for (size_t i = 0; i < connections; ++i) {
    if (!sockets[i].WriteAll(hello.data(), hello.size()).ok()) std::exit(1);
    net::Frame reply;
    if (!net::ReceiveFrame(&sockets[i], &assemblers[i], &reply).ok() ||
        reply.tag != net::MessageTag::kHelloReply) {
      std::exit(1);
    }
  }
  ConnScaleResult result;
  result.server_threads = CountThreads() - threads_before;

  Stopwatch watch;
  for (size_t round = 0; round < rounds; ++round) {
    // Write the whole wave, then collect the replies: all N connections
    // have a request outstanding at once.
    for (net::TcpSocket& socket : sockets) {
      if (!socket.WriteAll(ping.data(), ping.size()).ok()) std::exit(1);
    }
    for (size_t i = 0; i < connections; ++i) {
      net::Frame reply;
      if (!net::ReceiveFrame(&sockets[i], &assemblers[i], &reply).ok()) {
        std::exit(1);
      }
    }
  }
  result.requests_per_sec =
      static_cast<double>(connections * rounds) / watch.ElapsedSeconds();
  (*server)->Stop();
  return result;
}

ThroughputResult RunThroughput(const Endpoint& endpoint,
                               const std::vector<EdgeEvent>& events,
                               size_t batch) {
  ClusterTransport* transport = endpoint.transport;
  Stopwatch watch;
  if (batch <= 1) {
    for (const EdgeEvent& event : events) {
      if (!transport->Publish(event).ok()) std::exit(1);
    }
  } else {
    for (size_t i = 0; i < events.size(); i += batch) {
      const size_t n = std::min(batch, events.size() - i);
      if (!transport->PublishBatch(std::span(events.data() + i, n)).ok()) {
        std::exit(1);
      }
    }
  }
  if (!transport->Drain().ok()) std::exit(1);
  const double secs = watch.ElapsedSeconds();
  ThroughputResult result;
  auto recs = endpoint.fanout != nullptr
                  ? endpoint.fanout->TakeRecommendations(&result.report)
                  : transport->TakeRecommendations();
  if (!recs.ok()) std::exit(1);
  result.events_per_sec = static_cast<double>(events.size()) / secs;
  result.recs = recs->size();
  return result;
}

Histogram RunLatency(ClusterTransport* transport,
                     const std::vector<EdgeEvent>& events) {
  Histogram micros;
  for (const EdgeEvent& event : events) {
    Stopwatch watch;
    if (!transport->Publish(event).ok()) std::exit(1);
    if (!transport->Drain().ok()) std::exit(1);
    auto recs = transport->TakeRecommendations();
    if (!recs.ok()) std::exit(1);
    micros.Record(watch.ElapsedMicros());
  }
  return micros;
}

}  // namespace

int main() {
  std::printf("=== T6: the network boundary — loopback RPC vs in-process "
              "threaded broker ===\n\n");
  // Same shape as the T3 throughput experiment (low burst correlation so
  // motif hits stay rare): the per-event detector work is then small and
  // what this experiment measures — the broker/transport boundary — is
  // visible instead of being drowned by query cost.
  WorkloadConfig config;
  config.num_users = 20'000;
  config.num_events = 20'000;
  config.burst_fraction = 0.02;
  config.mean_burst_size = 3;
  config.seed = 6;
  const Workload w = MakeWorkload(config);
  const std::vector<EdgeEvent> events = ToEvents(w.events);

  std::printf("--- ingest throughput (%s events, 4 partitions) ---\n",
              HumanCount(static_cast<double>(events.size())).c_str());
  std::printf("%11s %8s %12s %10s\n", "transport", "batch", "events/s",
              "recs");
  uint64_t reference_recs = 0;
  enum class Kind { kLocal, kFanout1, kFanout4 };
  struct Config {
    const char* name;
    Kind kind;
    size_t batch;
  };
  const Config configs[] = {
      {"threaded", Kind::kLocal, 1},
      {"rpc", Kind::kFanout1, 1},
      {"rpc-batch", Kind::kFanout1, 256},
      {"fanout-1d", Kind::kFanout1, 4096},
      {"fanout-4d", Kind::kFanout4, 4096},
  };
  bench::JsonRows json;
  for (const Config& c : configs) {
    Endpoint endpoint;
    switch (c.kind) {
      case Kind::kLocal: endpoint = MakeLocal(w.follow_graph); break;
      case Kind::kFanout1: endpoint = MakeFanout(w.follow_graph, 1); break;
      case Kind::kFanout4: endpoint = MakeFanout(w.follow_graph, 4); break;
    }
    const ThroughputResult result =
        RunThroughput(endpoint, events, c.batch);
    if (c.kind == Kind::kLocal) reference_recs = result.recs;
    std::printf("%11s %8zu %12s %10s %s\n", c.name, c.batch,
                HumanCount(result.events_per_sec).c_str(),
                HumanCount(static_cast<double>(result.recs)).c_str(),
                result.recs == reference_recs ? "[recs identical]"
                                              : "[RECS DIFFER!]");
    json.AddThroughput("throughput", c.name, c.batch, result.events_per_sec,
                       result.recs);
  }

  // --- degraded mode: 4-daemon quorum group, one daemon dead ---------------
  std::printf("\n--- degraded mode (4-daemon group, quorum policy, daemon 3 "
              "stopped) ---\n");
  {
    Endpoint endpoint =
        MakeFanout(w.follow_graph, 4, net::FanoutPolicy::kQuorum);
    // Kill one daemon cold: its publishes fail fast into the replay buffer
    // once the circuit breaker opens, its gathers go missing.
    endpoint.servers.back()->Stop();
    const ThroughputResult result =
        RunThroughput(endpoint, events, 4096);
    auto stats = endpoint.fanout->GetStats();
    std::printf("%11s %8d %12s %10s [%s]\n", "fanout-3/4", 4096,
                HumanCount(result.events_per_sec).c_str(),
                HumanCount(static_cast<double>(result.recs)).c_str(),
                result.report.ToString().c_str());
    if (stats.ok()) {
      std::printf("            degraded stats: %s\n",
                  stats->ToString().c_str());
    }
    json.AddThroughput("degraded", "fanout-3of4-quorum", 4096,
                       result.events_per_sec, result.recs);
  }

  // --- zero-copy egress: encode-once fan-out vs per-daemon copies ----------
  // Two measurements. The microbench isolates the client egress delta: the
  // old path built one AppendMuxRequest COPY of the publish payload per
  // daemon per frame; the new path wraps the SAME refcounted block in a
  // per-daemon envelope (header bytes only) and drains it through the
  // iovec chain. The end-to-end rows then price a real PublishBatch fanned
  // to 1/4/8 daemons through the whole zero-copy stack. `speedup` is
  // time(copy path)/time(shared path) on the same shape — machine-
  // independent, so it is the gated field.
  std::printf("\n--- zero-copy egress (encode-once publish, refcounted "
              "fan-out) ---\n");
  std::printf("%11s %8s %14s %10s %18s\n", "path", "group", "fanned MB/s",
              "speedup", "copied KiB/frame");
  {
    constexpr size_t kFrameEvents = 4096;
    std::string frame_bytes;
    net::AppendPublishBatch(
        std::span(events.data(), std::min(kFrameEvents, events.size())),
        &frame_bytes, 0);
    const net::FrameBuf canonical = net::FrameBuf::Wrap(frame_bytes);
    constexpr size_t kIters = 400;
    uint64_t rid = 1;
    for (const uint32_t group : {1u, 4u, 8u}) {
      Stopwatch old_watch;
      size_t old_copied = 0;
      for (size_t it = 0; it < kIters; ++it) {
        for (uint32_t d = 0; d < group; ++d) {
          std::string wrapped;
          net::AppendMuxRequest(rid++, frame_bytes, &wrapped);
          old_copied += wrapped.size() +
                        static_cast<unsigned char>(wrapped[wrapped.size() / 2]);
        }
      }
      const double old_secs = old_watch.ElapsedSeconds();
      Stopwatch new_watch;
      size_t new_bytes = 0;
      for (size_t it = 0; it < kIters; ++it) {
        for (uint32_t d = 0; d < group; ++d) {
          net::OutboxChain chain;
          chain.Append(net::WrapMuxRequestShared(rid++, canonical));
          while (!chain.empty()) {
            struct iovec iov[net::kMaxIovPerWritev];
            if (chain.FillIov(iov, net::kMaxIovPerWritev) == 0) break;
            const size_t take = chain.pending_bytes();  // kernel takes all
            new_bytes += take;
            chain.Advance(take);
          }
        }
      }
      const double new_secs = new_watch.ElapsedSeconds();
      const double speedup = old_secs / new_secs;
      const double mb_per_sec =
          static_cast<double>(new_bytes) / new_secs / 1e6;
      // Payload bytes physically copied to stage one frame for `group`
      // daemons: the old path duplicates the whole frame per daemon, the
      // new path owns ~17 header bytes per envelope.
      const double old_kib =
          static_cast<double>(group) * frame_bytes.size() / 1024.0;
      std::printf("%11s %8u %14.0f %9.1fx %8.0f -> %5.1f\n", "mux-wrap",
                  group, mb_per_sec, speedup, old_kib,
                  group * 17.0 / 1024.0);
      const std::string shape = StrFormat("group-%u", group);
      json.AddKernel("egress", "mux-wrap", shape.c_str(), mb_per_sec,
                     speedup);
      if (old_copied == 0) std::printf("(unreachable)\n");
    }
    // Frames per writev: a 32-frame pipeline window drained in 256 KiB
    // kernel acceptances — the client-side twin of the server's
    // rpc_frames_per_writev histogram.
    Histogram frames_per_writev;
    net::OutboxChain chain;
    for (int f = 0; f < 32; ++f) {
      chain.Append(net::WrapMuxRequestShared(rid++, canonical));
    }
    while (!chain.empty()) {
      struct iovec iov[net::kMaxIovPerWritev];
      if (chain.FillIov(iov, net::kMaxIovPerWritev) == 0) break;
      const size_t take =
          std::min<size_t>(256u << 10, chain.pending_bytes());
      frames_per_writev.Record(static_cast<int64_t>(chain.Advance(take)));
    }
    json.AddFrameCounts("egress", "outbox", "frames-per-writev",
                        frames_per_writev);

    // End-to-end: the same ingest workload fanned through real daemons.
    // Fanned bytes/s = stream wire bytes x daemon count / elapsed — the
    // number the refcounted fan-out exists to raise.
    std::printf("%11s %8s %12s %14s\n", "path", "group", "events/s",
                "fanned MB/s");
    size_t stream_wire_bytes = 0;
    for (size_t i = 0; i < events.size(); i += kFrameEvents) {
      const size_t n = std::min(kFrameEvents, events.size() - i);
      std::string frame;
      net::AppendPublishBatch(std::span(events.data() + i, n), &frame, 0);
      stream_wire_bytes += frame.size();
    }
    for (const uint32_t daemons : {1u, 4u, 8u}) {
      Endpoint endpoint = MakeFanout(w.follow_graph, daemons);
      Stopwatch watch;
      for (size_t i = 0; i < events.size(); i += kFrameEvents) {
        const size_t n = std::min(kFrameEvents, events.size() - i);
        if (!endpoint.transport
                 ->PublishBatch(std::span(events.data() + i, n))
                 .ok()) {
          std::exit(1);
        }
      }
      if (!endpoint.transport->Drain().ok()) std::exit(1);
      const double secs = watch.ElapsedSeconds();
      const double events_per_sec =
          static_cast<double>(events.size()) / secs;
      const double fanned_mb_per_sec =
          static_cast<double>(stream_wire_bytes) * daemons / secs / 1e6;
      const std::string name = StrFormat("fanout-%ud-publish", daemons);
      std::printf("%11s %8u %12s %14.1f\n", name.c_str(), daemons,
                  HumanCount(events_per_sec).c_str(), fanned_mb_per_sec);
      json.AddThroughput("egress", name.c_str(), kFrameEvents,
                         events_per_sec, 0);
    }
  }

  // --- connection scaling: the reactor under 256 peers --------------------
  std::printf("\n--- connection scaling (256 concurrent connections, "
              "round-robin pings) ---\n");
  std::printf("%11s %13s %14s %15s\n", "loop", "connections", "requests/s",
              "server threads");
  {
    constexpr size_t kConnections = 256;
    constexpr size_t kRounds = 40;
    const ConnScaleResult result =
        RunConnScale(w.follow_graph, kConnections, kRounds);
    std::printf("%11s %13zu %14s %15ld\n", "epoll", kConnections,
                HumanCount(result.requests_per_sec).c_str(),
                result.server_threads);
    json.AddConnScale("epoll", kConnections, result.requests_per_sec,
                      result.server_threads);
  }

  const size_t latency_events = 2'000;
  std::printf("\n--- publish -> recommendation latency (first %s events, "
              "fresh clusters) ---\n",
              HumanCount(static_cast<double>(latency_events)).c_str());
  std::printf("%11s %10s %10s %10s %10s\n", "transport", "p50", "p90", "p99",
              "max");
  struct LatencyConfig {
    const char* name;
    Kind kind;
  };
  const LatencyConfig latency_configs[] = {
      {"threaded", Kind::kLocal},
      {"rpc", Kind::kFanout1},
      {"fanout-1d", Kind::kFanout1},
      {"fanout-4d", Kind::kFanout4},
  };
  for (const LatencyConfig& c : latency_configs) {
    Endpoint endpoint;
    switch (c.kind) {
      case Kind::kLocal: endpoint = MakeLocal(w.follow_graph); break;
      case Kind::kFanout1: endpoint = MakeFanout(w.follow_graph, 1); break;
      case Kind::kFanout4: endpoint = MakeFanout(w.follow_graph, 4); break;
    }
    const std::vector<EdgeEvent> probe(events.begin(),
                                       events.begin() + latency_events);
    const Histogram micros = RunLatency(endpoint.transport, probe);
    std::printf("%11s %9.0fu %9.0fu %9.0fu %9lldu\n", c.name,
                micros.Percentile(50), micros.Percentile(90),
                micros.Percentile(99),
                static_cast<long long>(micros.Max()));
    json.AddLatency(c.name, micros);
  }

  // --- per-stage trace decomposition (wire-propagated trace stamps) --------
  // Every publish is sampled (trace_sample_every=1) against the 4-daemon
  // group; the stamps that ride back on ack and gather tails decompose the
  // publish -> recommendation path per stage — the distributed twin of the
  // T3 decomposition, measured on the real wire instead of virtual time.
  std::printf("\n--- per-stage trace decomposition (4-daemon group, every "
              "publish sampled) ---\n");
  {
    Endpoint endpoint = MakeFanout(w.follow_graph, 4,
                                   net::FanoutPolicy::kStrict,
                                   /*trace_sample_every=*/1);
    constexpr size_t kTraceBatch = 256;
    constexpr size_t kTracePublishes = 64;  // == the broker's trace ring
    for (size_t i = 0; i < kTracePublishes; ++i) {
      const size_t offset = i * kTraceBatch;
      if (offset >= events.size()) break;
      const size_t n = std::min(kTraceBatch, events.size() - offset);
      if (!endpoint.transport
               ->PublishBatch(std::span(events.data() + offset, n))
               .ok()) {
        std::exit(1);
      }
    }
    if (!endpoint.transport->Drain().ok()) std::exit(1);
    if (!endpoint.transport->TakeRecommendations().ok()) std::exit(1);
    const std::vector<TraceContext> traces = endpoint.fanout->TakeTraces();
    Histogram encode, dequeue, apply, gather, end_to_end;
    for (const TraceContext& trace : traces) {
      const TraceStamp* enc = trace.Find(TraceStage::kBrokerEncode);
      const TraceStamp* gat = trace.Find(TraceStage::kGather);
      if (enc == nullptr) continue;
      encode.Record(enc->at_us - trace.origin_us);
      // Pair each daemon's detector-apply with ITS dequeue stamp (one pair
      // per partition), and close the gather against the slowest apply.
      int64_t dequeue_at[16] = {};
      int64_t last_apply = enc->at_us;
      for (const TraceStamp& stamp : trace.stamps) {
        if (stamp.stage ==
            static_cast<uint8_t>(TraceStage::kDaemonDequeue)) {
          dequeue.Record(stamp.at_us - enc->at_us);
          if (stamp.party < 16) dequeue_at[stamp.party] = stamp.at_us;
        } else if (stamp.stage ==
                   static_cast<uint8_t>(TraceStage::kDetectorApply)) {
          const int64_t from = stamp.party < 16 && dequeue_at[stamp.party] > 0
                                   ? dequeue_at[stamp.party]
                                   : enc->at_us;
          apply.Record(stamp.at_us - from);
          last_apply = std::max(last_apply, stamp.at_us);
        }
      }
      if (gat != nullptr) {
        gather.Record(gat->at_us - last_apply);
        end_to_end.Record(gat->at_us - trace.origin_us);
      }
    }
    struct StageRow {
      const char* name;
      const Histogram* micros;
    };
    const StageRow stages[] = {
        {"broker-encode", &encode},   {"daemon-dequeue", &dequeue},
        {"detector-apply", &apply},   {"gather", &gather},
        {"end-to-end", &end_to_end},
    };
    std::printf("%11s %15s %8s %10s %10s %10s\n", "transport", "stage",
                "count", "p50", "p99", "max");
    for (const StageRow& stage : stages) {
      std::printf("%11s %15s %8llu %9.0fu %9.0fu %9lldu\n", "fanout-4d",
                  stage.name,
                  static_cast<unsigned long long>(stage.micros->Count()),
                  stage.micros->Percentile(50), stage.micros->Percentile(99),
                  static_cast<long long>(stage.micros->Max()));
      json.AddStage("trace-stages", "fanout-4d", stage.name, *stage.micros);
    }
    if (traces.empty()) {
      std::fprintf(stderr, "trace decomposition: no traces came back!\n");
    }
  }
  json.MergeWrite("BENCH_net.json");

  std::printf("\nthe rpc transport pays three loopback round trips per "
              "probed event (publish,\ndrain, gather); batching amortizes "
              "the framing and syscall cost across 256 events\nand recovers "
              "most of the in-process throughput. the fan-out rows add "
              "pipelining\n(several batch frames in flight per daemon); the "
              "4-daemon row writes every event\nto four sockets — the "
              "paper's deployment trades that broker-side fan-out cost\nfor "
              "per-partition detector parallelism across processes. the "
              "conn-scale row is\nthe reason the epoll reactor exists: it "
              "serves 256 peers from one epoll thread\nplus a fixed worker "
              "pool, not one OS thread per peer.\n");
  return 0;
}
