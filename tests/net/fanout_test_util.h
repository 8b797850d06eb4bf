// Shared scaffolding for the fan-out broker tests: in-process "daemons"
// (a hosted Cluster behind a real RpcServer on an ephemeral loopback
// port — the same wire path as a magicrecsd process), partition groups
// wired to a FanoutCluster, and the inline single-process reference run
// the acceptance tests compare against. Used by fanout_cluster_test.cc
// (strict-mode acceptance) and fanout_degraded_test.cc (FanoutPolicy).

#ifndef MAGICRECS_TESTS_NET_FANOUT_TEST_UTIL_H_
#define MAGICRECS_TESTS_NET_FANOUT_TEST_UTIL_H_

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "net/fanout_cluster.h"
#include "net/rpc_server.h"

namespace magicrecs::fanout_test {

inline ClusterOptions MakeClusterOptions(uint32_t partitions,
                                         uint32_t replicas = 1,
                                         uint32_t k = 2) {
  ClusterOptions opt;
  opt.num_partitions = partitions;
  opt.replicas_per_partition = replicas;
  opt.detector.k = k;
  opt.detector.window = Minutes(10);
  return opt;
}

inline std::vector<Recommendation> Sorted(std::vector<Recommendation> recs) {
  std::sort(recs.begin(), recs.end(),
            [](const Recommendation& a, const Recommendation& b) {
              return std::tie(a.user, a.item, a.witness_count, a.trigger,
                              a.event_time, a.witnesses) <
                     std::tie(b.user, b.item, b.witness_count, b.trigger,
                              b.event_time, b.witnesses);
            });
  return recs;
}

inline std::vector<EdgeEvent> ToEvents(
    const std::vector<TimestampedEdge>& edges) {
  std::vector<EdgeEvent> events;
  events.reserve(edges.size());
  for (const TimestampedEdge& edge : edges) {
    EdgeEvent event;
    event.edge = edge;
    events.push_back(event);
  }
  return events;
}

/// One in-process "daemon": a hosted Cluster behind a real RpcServer.
struct Daemon {
  std::unique_ptr<Cluster> hosted;
  std::unique_ptr<net::RpcServer> server;
};

/// `threaded` starts the cluster, as magicrecsd does; otherwise every
/// publish applies before its ack.
inline Daemon StartDaemon(const StaticGraph& graph,
                          const ClusterOptions& options,
                          const net::RpcServerOptions& server_options = {},
                          bool threaded = true) {
  Daemon d;
  auto hosted = Cluster::Create(graph, options);
  EXPECT_TRUE(hosted.ok()) << hosted.status();
  d.hosted = std::move(hosted).value();
  if (threaded) {
    EXPECT_TRUE(d.hosted->Start().ok());
  }
  auto server = net::RpcServer::Start(d.hosted.get(), server_options);
  EXPECT_TRUE(server.ok()) << server.status();
  d.server = std::move(server).value();
  return d;
}

/// A partition group: N daemons, each hosting one global partition, behind
/// one FanoutCluster broker.
struct Group {
  std::vector<Daemon> daemons;
  std::unique_ptr<net::FanoutCluster> broker;
};

/// Builds the daemons for partitions 0..group_size-1 and connects a broker
/// configured from `fopt` (whose endpoints and group_size are filled in
/// here — set policy/quorum/buffer bounds before calling). A non-empty
/// `persist_dirs` gives daemon p the persistence directory persist_dirs[p].
inline Group StartGroup(const StaticGraph& graph, uint32_t group_size,
                        uint32_t replicas, uint32_t k,
                        net::FanoutClusterOptions fopt,
                        const std::vector<std::string>& persist_dirs = {}) {
  Group g;
  fopt.endpoints.clear();
  fopt.group_size = group_size;
  // The acceptance workloads gather hundreds of thousands of
  // recommendations, and the server encodes the whole chunked reply
  // before the first byte ships — under TSan with a parallel ctest run
  // that can outlast the 30s production default. The contract under test
  // is byte-identity, not latency; give silence detection real headroom.
  if (fopt.recv_timeout_ms == net::FanoutClusterOptions{}.recv_timeout_ms) {
    fopt.recv_timeout_ms = 180'000;
  }
  for (uint32_t p = 0; p < group_size; ++p) {
    ClusterOptions options = MakeClusterOptions(1, replicas, k);
    options.group_size = group_size;
    options.group_partition = p;
    if (!persist_dirs.empty()) options.persist.dir = persist_dirs[p];
    // Group members stamp traces with their global partition id, exactly
    // as magicrecsd wires it for a partition-group deployment.
    net::RpcServerOptions server_options;
    server_options.trace_party = p;
    g.daemons.push_back(StartDaemon(graph, options, server_options));
    net::FanoutEndpoint endpoint;
    endpoint.port = g.daemons.back().server->port();
    endpoint.partition = p;
    fopt.endpoints.push_back(endpoint);
  }
  auto broker = net::FanoutCluster::Connect(fopt);
  EXPECT_TRUE(broker.ok()) << broker.status();
  g.broker = std::move(broker).value();
  return g;
}

/// Strict-policy group (the PR 3 shape).
inline Group StartGroup(const StaticGraph& graph, uint32_t group_size,
                        uint32_t replicas, uint32_t k = 2) {
  return StartGroup(graph, group_size, replicas, k,
                    net::FanoutClusterOptions{});
}

/// The inline single-process reference run every transport must match.
inline std::vector<Recommendation> InlineReference(
    const StaticGraph& graph, const ClusterOptions& options,
    const std::vector<EdgeEvent>& events) {
  auto inline_cluster = Cluster::Create(graph, options);
  EXPECT_TRUE(inline_cluster.ok());
  for (const EdgeEvent& event : events) {
    EXPECT_TRUE((*inline_cluster)->Publish(event).ok());
  }
  auto recs = (*inline_cluster)->TakeRecommendations();
  EXPECT_TRUE(recs.ok());
  return std::move(recs).value();
}

}  // namespace magicrecs::fanout_test

#endif  // MAGICRECS_TESTS_NET_FANOUT_TEST_UTIL_H_
