// Quickstart against a real magicrecsd process: connect over TCP, replay
// the paper's Figure-1 scenario, and check the recommendation comes back
// across the wire. The remote twin of examples/quickstart.cpp — same edges,
// same expected result, but with a daemon and a network in between.
//
// Run a daemon first (k=2 is what Figure 1 needs):
//   ./magicrecsd --graph=fig1 --k=2 --partitions=2 --port=7421 &
//   ./example_remote_quickstart 127.0.0.1 7421
//
// Exits 0 iff the expected recommendation (C2 to A2) arrived; CI uses this
// as the loopback smoke test for the whole net/ stack.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "gen/figure1.h"
#include "net/fanout_cluster.h"

using namespace magicrecs;

int main(int argc, char** argv) {
  // One endpoint hosting every partition: the broker over a single daemon.
  net::FanoutEndpoint endpoint;
  endpoint.host = argc > 1 ? argv[1] : "127.0.0.1";
  endpoint.port =
      static_cast<uint16_t>(argc > 2 ? std::strtoul(argv[2], nullptr, 10)
                                     : 7421);
  net::FanoutClusterOptions options;
  options.endpoints.push_back(endpoint);

  auto remote = net::FanoutCluster::Connect(options);
  if (!remote.ok()) {
    std::fprintf(stderr, "connect %s:%u: %s\n", endpoint.host.c_str(),
                 endpoint.port, remote.status().ToString().c_str());
    return 1;
  }

  if (const Status s = (*remote)->Ping(); !s.ok()) {
    std::fprintf(stderr, "ping: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("connected to magicrecsd at %s:%u\n", endpoint.host.c_str(),
              endpoint.port);

  // Publish the Figure-1 dynamic edges: B1->C1, B1->C2, B2->C3, then the
  // trigger B2->C2 that completes the diamond for A2.
  for (const TimestampedEdge& edge : figure1::DynamicEdges(0)) {
    EdgeEvent event;
    event.edge = edge;
    if (const Status s = (*remote)->Publish(event); !s.ok()) {
      std::fprintf(stderr, "publish: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("published %s -> %s\n",
                std::string(figure1::Name(edge.src)).c_str(),
                std::string(figure1::Name(edge.dst)).c_str());
  }

  if (const Status s = (*remote)->Drain(); !s.ok()) {
    std::fprintf(stderr, "drain: %s\n", s.ToString().c_str());
    return 1;
  }
  auto recs = (*remote)->TakeRecommendations();
  if (!recs.ok()) {
    std::fprintf(stderr, "take recommendations: %s\n",
                 recs.status().ToString().c_str());
    return 1;
  }

  bool found = false;
  for (const Recommendation& rec : *recs) {
    std::printf("received over the wire: %s\n", rec.ToString().c_str());
    found = found || (rec.user == figure1::kA2 && rec.item == figure1::kC2);
  }

  auto stats = (*remote)->GetStats();
  if (stats.ok()) {
    std::printf("daemon stats: %s\n", stats->ToString().c_str());
  }

  if (!found) {
    std::fprintf(stderr,
                 "FAIL: expected the C2 -> A2 recommendation (is the daemon "
                 "running --graph=fig1 --k=2?)\n");
    return 1;
  }
  std::printf("OK: Figure-1 recommendation delivered over TCP\n");
  return 0;
}
