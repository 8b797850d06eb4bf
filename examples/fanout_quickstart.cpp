// Quickstart against real magicrecsd processes, driven through the fan-out
// broker. Replays the paper's Figure-1 scenario and checks the
// recommendation is gathered back from whichever daemon owns A2's
// partition. The networked twin of examples/quickstart.cpp; CI uses it as
// the loopback and partition-group smokes.
//
// Against one daemon hosting every partition, pass its bare PORT:
//   ./magicrecsd --graph=fig1 --k=2 --partitions=2 --port=7421 &
//   ./example_fanout_quickstart 7421
//
// Against a partition group, start one daemon per partition (every daemon
// needs the same graph, k, group size and salt; see docs/operations.md):
//   ./magicrecsd --graph=fig1 --k=2 --partition-group=2 --partition-id=0 --replicas=2 --port=7431 &
//   ./magicrecsd --graph=fig1 --k=2 --partition-group=2 --partition-id=1 --replicas=2 --port=7432 &
//   ./example_fanout_quickstart 7431:0 7432:1
//
// Each argument is PORT:PARTITION on 127.0.0.1, or a bare PORT for one
// all-hosting daemon. Prints the broker's `# source broker` scrape section,
// and exits 0 iff the expected recommendation (C2 to A2) arrived and every
// answering endpoint's scrape section (`# source daemon HOST:PORT
// partition P`) reports replicas of partition P.
//
// Degraded-mode drill (the CI quorum smoke): --policy=quorum --quorum=N
// runs the same scenario tolerating dead daemons — publishes to a dead
// daemon are parked in its replay buffer, the gather merges whatever
// answered, and the GatherReport names the missing partitions. The
// expected recommendation is then only required when the partition owning
// A2 actually answered.
//
// Health-monitor chaos drill (the CI health smoke): --chaos-drill
// [--journal=PATH] [--health-interval-ms=N] runs the scenario under
// --policy=auto (strict until the broker's health monitor flips it), then
// keeps publishing a trickle and narrates the broker's self-driven policy
// flips so an orchestrator (CI) can kill and restart a daemon around it:
//   DRILL: ready              -> kill a daemon now
//   DRILL: flipped to quorum  -> restart the daemon (same port)
//   DRILL: recovered to strict
// followed by the broker's `# source broker` scrape section. Exits 0 only
// if both flips happened; the journal file records every health
// transition and flip with its triggering window values.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>

#include "gen/figure1.h"
#include "net/fanout_cluster.h"

using namespace magicrecs;

namespace {

/// Trickle-publishes until the broker's active policy equals `want` or the
/// deadline passes. Publish failures are expected while strict + dead.
bool AwaitPolicy(net::FanoutCluster* broker, net::FanoutPolicy want,
                 int deadline_ms, Timestamp* at) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (broker->active_policy() == want) return true;
    EdgeEvent tick;
    tick.edge = {figure1::kB1, figure1::kC1, ++*at};
    (void)broker->Publish(tick);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return broker->active_policy() == want;
}

/// The body of the daemon scrape section headed exactly `header`, or ""
/// when there is none (an unreachable daemon's header line carries its
/// error after the address). The broker's section always comes first.
std::string_view Section(std::string_view text, const std::string& header) {
  const std::string line = "\n" + header + "\n";
  const size_t at = text.find(line);
  if (at == std::string_view::npos) return {};
  const size_t begin = at + line.size();
  return text.substr(begin, text.find("\n# source ", begin) - begin);
}

/// The broker's own scrape section.
std::string_view BrokerSection(std::string_view text) {
  return text.substr(0, text.find("# source daemon"));
}

}  // namespace

int main(int argc, char** argv) {
  net::FanoutClusterOptions options;
  bool chaos_drill = false;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strncmp(argv[i], "--policy=", 9) == 0) {
      value = argv[i] + 9;
      if (value == "strict") {
        options.policy = net::FanoutPolicy::kStrict;
      } else if (value == "quorum") {
        options.policy = net::FanoutPolicy::kQuorum;
      } else if (value == "auto") {
        options.policy = net::FanoutPolicy::kAuto;
      } else {
        std::fprintf(stderr, "unknown --policy '%s'\n", value.c_str());
        return 2;
      }
      continue;
    }
    if (std::strncmp(argv[i], "--quorum=", 9) == 0) {
      options.gather_quorum =
          static_cast<uint32_t>(std::strtoul(argv[i] + 9, nullptr, 10));
      continue;
    }
    if (std::strncmp(argv[i], "--journal=", 10) == 0) {
      options.event_journal_path = argv[i] + 10;
      continue;
    }
    if (std::strncmp(argv[i], "--health-interval-ms=", 21) == 0) {
      options.health_interval_ms =
          static_cast<int>(std::strtol(argv[i] + 21, nullptr, 10));
      continue;
    }
    if (std::strcmp(argv[i], "--chaos-drill") == 0) {
      chaos_drill = true;
      continue;
    }
    net::FanoutEndpoint endpoint;
    const char* colon = std::strchr(argv[i], ':');
    endpoint.port =
        static_cast<uint16_t>(std::strtoul(argv[i], nullptr, 10));
    if (colon != nullptr) {
      endpoint.partition =
          static_cast<uint32_t>(std::strtoul(colon + 1, nullptr, 10));
    }
    options.endpoints.push_back(endpoint);
  }
  if (options.endpoints.empty()) {
    std::fprintf(stderr,
                 "usage: example_fanout_quickstart [--policy=strict|quorum|"
                 "auto] [--quorum=N] [--chaos-drill] "
                 "[--health-interval-ms=N] [--journal=PATH] PORT | "
                 "PORT:PARTITION [PORT:PARTITION ...]\n");
    return 2;
  }
  if (chaos_drill) {
    // The drill narrates kAuto's flips to an orchestrator, so tune for
    // drill time (fast ticks, short redial backoff) and line-buffer
    // stdout — the orchestrator tails it through a pipe/file.
    options.policy = net::FanoutPolicy::kAuto;
    if (options.health_interval_ms <= 0 || options.health_interval_ms > 100) {
      options.health_interval_ms = 50;
    }
    options.max_reconnect_backoff_ms = 200;
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
  }
  const bool degraded = options.policy == net::FanoutPolicy::kQuorum;

  auto broker = net::FanoutCluster::Connect(options);
  if (!broker.ok()) {
    std::fprintf(stderr, "fan-out config: %s\n",
                 broker.status().ToString().c_str());
    return 1;
  }
  if (const Status s = (*broker)->Ping(); !s.ok()) {
    // Ping is strict under every policy (it exists to find dead daemons);
    // in the degraded drill a failure is expected and the run continues.
    std::fprintf(stderr, "ping: %s\n", s.ToString().c_str());
    if (!degraded) return 1;
    std::printf("continuing despite dead daemon(s): policy=%s\n",
                std::string(net::FanoutPolicyName(options.policy)).c_str());
  }
  std::printf("connected to %zu daemon(s)\n", options.endpoints.size());

  // Publish the Figure-1 dynamic edges; the broker fans every event out to
  // every partition daemon (each keeps a full D), then gathers.
  for (const TimestampedEdge& edge : figure1::DynamicEdges(0)) {
    EdgeEvent event;
    event.edge = edge;
    if (const Status s = (*broker)->Publish(event); !s.ok()) {
      std::fprintf(stderr, "publish: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("fanned out %s -> %s\n",
                std::string(figure1::Name(edge.src)).c_str(),
                std::string(figure1::Name(edge.dst)).c_str());
  }
  if (const Status s = (*broker)->Drain(); !s.ok()) {
    std::fprintf(stderr, "drain: %s\n", s.ToString().c_str());
    return 1;
  }
  net::GatherReport report;
  auto recs = (*broker)->TakeRecommendations(&report);
  if (!recs.ok()) {
    std::fprintf(stderr, "gather: %s\n", recs.status().ToString().c_str());
    return 1;
  }
  std::printf("gather report: %s\n", report.ToString().c_str());

  bool found = false;
  for (const Recommendation& rec : *recs) {
    std::printf("gathered: %s\n", rec.ToString().c_str());
    found = found || (rec.user == figure1::kA2 && rec.item == figure1::kC2);
  }
  // In the degraded drill the expected recommendation can legitimately be
  // unavailable: it lives on whichever daemon owns A2's partition.
  bool owner_missing = false;
  if (auto partitioner = (*broker)->Partitioner(); partitioner.ok()) {
    const uint32_t owner = partitioner->PartitionOf(figure1::kA2);
    for (const uint32_t missing : report.missing_partitions) {
      owner_missing = owner_missing || missing == owner ||
                      missing == net::FanoutEndpoint::kAllPartitions;
    }
  }

  Result<std::string> text = (*broker)->GetStatsText();
  if (!text.ok()) {
    std::fprintf(stderr, "scrape: %s\n", text.status().ToString().c_str());
    return 1;
  }
  const std::string_view broker_section = BrokerSection(*text);
  std::fwrite(broker_section.data(), 1, broker_section.size(), stdout);
  // With explicit partitions every daemon's scrape section must report
  // replicas of its own partition (the attributability check) — unless the
  // gather report already told us that daemon is down.
  for (const net::FanoutEndpoint& endpoint : options.endpoints) {
    if (endpoint.partition == net::FanoutEndpoint::kAllPartitions) continue;
    bool reported_missing = false;
    for (const uint32_t missing : report.missing_partitions) {
      reported_missing = reported_missing || missing == endpoint.partition;
    }
    if (reported_missing) continue;
    const std::string partition = std::to_string(endpoint.partition);
    const std::string_view section =
        Section(*text, "# source daemon " + endpoint.host + ":" +
                           std::to_string(endpoint.port) + " partition " +
                           partition);
    if (section.find("gauge replica_alive{partition=\"" + partition + "\"") ==
        std::string_view::npos) {
      std::fprintf(stderr,
                   "FAIL: partition %u's scrape section reports none of its "
                   "replicas\n",
                   endpoint.partition);
      return 1;
    }
  }

  if (!found) {
    if (degraded && owner_missing) {
      std::printf(
          "OK: degraded gather succeeded; A2's owner partition is down, so "
          "its recommendation is (correctly) absent\n");
      return 0;
    }
    std::fprintf(stderr,
                 "FAIL: expected the C2 -> A2 recommendation (are the "
                 "daemons running --graph=fig1 --k=2 with matching "
                 "--partition-group?)\n");
    return 1;
  }
  std::printf("OK: Figure-1 recommendation gathered across the partition "
              "group\n");

  if (chaos_drill) {
    Timestamp at = 1'000'000;  // past the scenario's edge timestamps
    std::printf("DRILL: ready\n");
    if (!AwaitPolicy(broker->get(), net::FanoutPolicy::kQuorum,
                     /*deadline_ms=*/60'000, &at)) {
      std::fprintf(stderr, "DRILL FAIL: never flipped to quorum\n");
      return 1;
    }
    std::printf("DRILL: flipped to quorum\n");
    if (!AwaitPolicy(broker->get(), net::FanoutPolicy::kStrict,
                     /*deadline_ms=*/60'000, &at)) {
      std::fprintf(stderr, "DRILL FAIL: never recovered to strict\n");
      return 1;
    }
    std::printf("DRILL: recovered to strict\n");
    // The broker's own scrape section: its counters show both flips.
    text = (*broker)->GetStatsText();
    if (!text.ok()) {
      std::fprintf(stderr, "DRILL FAIL: scrape: %s\n",
                   text.status().ToString().c_str());
      return 1;
    }
    const std::string_view drilled = BrokerSection(*text);
    std::fwrite(drilled.data(), 1, drilled.size(), stdout);
  }
  return 0;
}
