// magicrecsd — the magicrecs partition daemon. Hosts a partitioned,
// replicated cluster behind the binary RPC listener (src/net/), so the
// deployment of §2 — partition servers as real processes behind a fan-out
// broker — can be exercised over an actual network boundary instead of a
// function call. A FanoutCluster broker (src/net/fanout_cluster.h) — with
// one endpoint for an all-hosting daemon — drives it over the hello/mux
// session of src/net/wire.h.
//
// Typical invocations:
//   magicrecsd --graph=fig1 --k=2 --port=7421
//   magicrecsd --graph=synthetic --users=50000 --partitions=8 --port=7421
//   magicrecsd --graph-file=edges.txt --persist-dir=/var/lib/magicrecs
//
// Partition-group deployment (one daemon per partition, see
// docs/operations.md): daemon p of an N-wide group hosts only global
// partition p and is driven through the fan-out broker
// (net/fanout_cluster.h):
//   magicrecsd --graph=fig1 --k=2 --partition-group=2 --partition-id=0 &
//   magicrecsd --graph=fig1 --k=2 --partition-group=2 --partition-id=1 &
//
// The daemon prints one "magicrecsd listening on HOST:PORT" line to stdout
// once it is serving (scripts wait for it), then blocks until SIGINT or
// SIGTERM, and shuts down cleanly (draining workers, syncing the WAL).

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "cluster/cluster.h"
#include "gen/figure1.h"
#include "gen/social_graph.h"
#include "graph/graph_io.h"
#include "net/rpc_server.h"
#include "util/clock.h"
#include "util/event_log.h"
#include "util/flags.h"
#include "util/metrics.h"
#include "util/metrics_export.h"
#include "util/str_format.h"

namespace {

using namespace magicrecs;

struct DaemonOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 7421;

  // Graph source: "fig1", "synthetic", or empty when graph_file is set.
  std::string graph = "synthetic";
  std::string graph_file;
  uint32_t users = 10'000;
  double mean_followees = 30;
  uint64_t graph_seed = 42;

  // Cluster shape.
  ClusterOptions cluster;
  bool partition_id_set = false;

  // Epoll reactor tuning (net/rpc_server.h).
  size_t max_inflight_per_conn = 64;
  int rpc_workers = 4;

  // Observability (docs/observability.md). slow_request_ms = 0 disables the
  // slow-request log; metrics_dump_interval_s = 0 disables the JSONL
  // exporter (util/metrics_export.h); health_interval_ms = 0 disables the
  // self-health monitor.
  int64_t slow_request_ms = 0;
  int64_t metrics_dump_interval_s = 0;
  std::string metrics_dump_path = "metrics.jsonl";
  int health_interval_ms = 0;
  std::string health_journal_path;

  // Dependent flags given, checked against their enablers after parsing.
  bool metrics_dump_path_set = false;
  bool fsync_batch_set = false;
};

void PrintUsage() {
  std::printf(
      "magicrecsd — magicrecs partition daemon\n\n"
      "  --host=ADDR            numeric IPv4 listen address (127.0.0.1)\n"
      "  --port=N               listen port; 0 = ephemeral (7421)\n"
      "  --graph=fig1|synthetic graph source (synthetic)\n"
      "  --graph-file=PATH      load 'src dst' edge list instead\n"
      "  --users=N              synthetic graph size (10000)\n"
      "  --mean-followees=F     synthetic mean out-degree (30)\n"
      "  --graph-seed=N         synthetic graph seed (42)\n"
      "  --partitions=N         partition count (20)\n"
      "  --partition-group=N    host ONE partition of an N-wide group\n"
      "  --partition-id=P       which global partition this daemon hosts\n"
      "  --partitioner-salt=N   hash partitioner salt; must match across the\n"
      "                         group and its broker (0)\n"
      "  --replicas=N           replicas per partition (1)\n"
      "  --k=N                  motif threshold k (3; fig1 wants 2)\n"
      "  --window-secs=N        freshness window tau (600)\n"
      "  --inbox-capacity=N     events + actor ids queued per replica, N >= 1\n"
      "                         (65536)\n"
      "  --max-influencers=N    influencer cap, 0 = off (0)\n"
      "  --max-inflight-per-conn=N  dispatched-but-unanswered requests per\n"
      "                         connection before the reactor stops reading\n"
      "                         that peer (64)\n"
      "  --rpc-workers=N        reactor request worker threads (4)\n"
      "  --slow-request-ms=N    log requests slower than N ms; 0 = off (0)\n"
      "  --metrics-dump-interval=N  append a metrics JSONL line every N\n"
      "                         seconds; 0 = off (0)\n"
      "  --metrics-dump-path=PATH   JSONL exporter target (metrics.jsonl;\n"
      "                         requires --metrics-dump-interval)\n"
      "  --health-interval-ms=N self-health evaluation interval; publishes\n"
      "                         the health{party=...} gauge; 0 = off (0)\n"
      "  --health-journal=PATH  append health transitions as JSONL\n"
      "                         (requires --health-interval-ms)\n"
      "  --persist-dir=PATH     WAL + snapshot directory, empty = off\n"
      "  --fsync-batch=N        group-commit batch (1; requires --fsync)\n"
      "  --fsync                fdatasync WAL appends\n"
      "  --help                 this text\n");
}

/// ParseIntegerFlag for this tool: a bad value is a usage error.
template <typename T>
bool IntFlag(const char* flag, const std::string& value, T* out,
             std::type_identity_t<T> min = std::numeric_limits<T>::min(),
             std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
  return ParseIntegerFlag("magicrecsd", flag, value, out, min, max);
}

bool ParseArgs(int argc, char** argv, DaemonOptions* options) {
  int64_t window_secs = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (std::strcmp(arg, "--help") == 0) {
      PrintUsage();
      std::exit(0);
    } else if (std::strcmp(arg, "--fsync") == 0) {
      options->cluster.persist.sync_each_append = true;
    } else if (FlagValue(arg, "host", &value)) {
      options->host = value;
    } else if (FlagValue(arg, "port", &value)) {
      if (!IntFlag("port", value, &options->port)) return false;
    } else if (FlagValue(arg, "graph", &value)) {
      options->graph = value;
    } else if (FlagValue(arg, "graph-file", &value)) {
      options->graph_file = value;
    } else if (FlagValue(arg, "users", &value)) {
      if (!IntFlag("users", value, &options->users)) return false;
    } else if (FlagValue(arg, "mean-followees", &value)) {
      if (!ParseFiniteDoubleFlag("magicrecsd", "mean-followees", value,
                                 &options->mean_followees)) {
        return false;
      }
    } else if (FlagValue(arg, "graph-seed", &value)) {
      if (!IntFlag("graph-seed", value, &options->graph_seed)) return false;
    } else if (FlagValue(arg, "partitions", &value)) {
      if (!IntFlag("partitions", value, &options->cluster.num_partitions)) {
        return false;
      }
    } else if (FlagValue(arg, "partition-group", &value)) {
      if (!IntFlag("partition-group", value, &options->cluster.group_size)) {
        return false;
      }
    } else if (FlagValue(arg, "partition-id", &value)) {
      if (!IntFlag("partition-id", value, &options->cluster.group_partition)) {
        return false;
      }
      options->partition_id_set = true;
    } else if (FlagValue(arg, "partitioner-salt", &value)) {
      if (!IntFlag("partitioner-salt", value,
                   &options->cluster.partitioner_salt)) {
        return false;
      }
    } else if (FlagValue(arg, "replicas", &value)) {
      if (!IntFlag("replicas", value,
                   &options->cluster.replicas_per_partition)) {
        return false;
      }
    } else if (FlagValue(arg, "k", &value)) {
      if (!IntFlag("k", value, &options->cluster.detector.k)) return false;
    } else if (FlagValue(arg, "window-secs", &value)) {
      if (!IntFlag("window-secs", value, &window_secs, 0,
                   INT64_MAX / kMicrosPerSecond)) {
        return false;
      }
      options->cluster.detector.window = Seconds(window_secs);
    } else if (FlagValue(arg, "inbox-capacity", &value)) {
      if (!IntFlag("inbox-capacity", value, &options->cluster.inbox_capacity)) {
        return false;
      }
    } else if (FlagValue(arg, "max-influencers", &value)) {
      if (!IntFlag("max-influencers", value,
                   &options->cluster.max_influencers_per_user)) {
        return false;
      }
    } else if (FlagValue(arg, "max-inflight-per-conn", &value)) {
      if (!IntFlag("max-inflight-per-conn", value,
                   &options->max_inflight_per_conn)) {
        return false;
      }
    } else if (FlagValue(arg, "rpc-workers", &value)) {
      if (!IntFlag("rpc-workers", value, &options->rpc_workers)) return false;
    } else if (FlagValue(arg, "slow-request-ms", &value)) {
      if (!IntFlag("slow-request-ms", value, &options->slow_request_ms, 0)) {
        return false;
      }
    } else if (FlagValue(arg, "metrics-dump-interval", &value)) {
      if (!IntFlag("metrics-dump-interval", value,
                   &options->metrics_dump_interval_s, 0)) {
        return false;
      }
    } else if (FlagValue(arg, "metrics-dump-path", &value)) {
      options->metrics_dump_path = value;
      options->metrics_dump_path_set = true;
    } else if (FlagValue(arg, "health-interval-ms", &value)) {
      if (!IntFlag("health-interval-ms", value, &options->health_interval_ms,
                   0)) {
        return false;
      }
    } else if (FlagValue(arg, "health-journal", &value)) {
      options->health_journal_path = value;
    } else if (FlagValue(arg, "persist-dir", &value)) {
      options->cluster.persist.dir = value;
    } else if (FlagValue(arg, "fsync-batch", &value)) {
      if (!IntFlag("fsync-batch", value,
                   &options->cluster.persist.fsync_batch)) {
        return false;
      }
      options->fsync_batch_set = true;
    } else {
      std::fprintf(stderr, "magicrecsd: unknown flag '%s'\n\n", arg);
      PrintUsage();
      return false;
    }
  }
  // The two group flags only mean something together: a lone
  // --partition-id is silently ignored (the daemon hosts EVERY partition —
  // duplicate recommendations behind a fan-out broker), and a lone
  // --partition-group would default every daemon to hosting partition 0.
  // Refuse both misconfigurations.
  if (options->partition_id_set && options->cluster.group_size == 0) {
    std::fprintf(stderr,
                 "magicrecsd: --partition-id requires --partition-group\n");
    return false;
  }
  if (options->cluster.group_size > 0 && !options->partition_id_set) {
    std::fprintf(stderr,
                 "magicrecsd: --partition-group requires --partition-id\n");
    return false;
  }
  // A dependent flag without its enabler would be silently ignored.
  if (!options->health_journal_path.empty() &&
      options->health_interval_ms == 0) {
    std::fprintf(stderr, "magicrecsd: --health-journal requires "
                         "--health-interval-ms\n");
    return false;
  }
  if (options->fsync_batch_set && !options->cluster.persist.sync_each_append) {
    std::fprintf(stderr, "magicrecsd: --fsync-batch requires --fsync\n");
    return false;
  }
  if (options->metrics_dump_path_set && options->metrics_dump_interval_s == 0) {
    std::fprintf(stderr, "magicrecsd: --metrics-dump-path requires "
                         "--metrics-dump-interval\n");
    return false;
  }
  return true;
}

Result<StaticGraph> BuildGraph(const DaemonOptions& options) {
  if (!options.graph_file.empty()) return LoadEdgeList(options.graph_file);
  if (options.graph == "fig1") return figure1::FollowGraph();
  if (options.graph == "synthetic") {
    SocialGraphOptions gopt;
    gopt.num_users = options.users;
    gopt.mean_followees = options.mean_followees;
    gopt.seed = options.graph_seed;
    return SocialGraphGenerator(gopt).Generate();
  }
  return Status::InvalidArgument(
      StrFormat("unknown --graph source '%s'", options.graph.c_str()));
}

/// The value of one /proc/self/status field, such as "VmHWM" -> "34304 kB";
/// "?" where the file or field is missing.
std::string ProcStatusField(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) != 0) continue;
    const size_t value = line.find_first_not_of(" \t", field.size() + 1);
    return value == std::string::npos ? "?" : line.substr(value);
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  DaemonOptions options;
  if (!ParseArgs(argc, argv, &options)) return 2;

  // Block the shutdown signals in every thread the server will spawn; the
  // main thread collects them with sigwait below.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  Result<StaticGraph> graph = BuildGraph(options);
  if (!graph.ok()) {
    std::fprintf(stderr, "magicrecsd: building graph: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "magicrecsd: graph ready (%zu vertices, %zu edges)\n",
               static_cast<size_t>(graph->num_vertices()),
               static_cast<size_t>(graph->num_edges()));

  auto cluster = Cluster::Create(*graph, options.cluster);
  Status started = cluster.ok() ? (*cluster)->Start() : cluster.status();
  if (!started.ok()) {
    std::fprintf(stderr, "magicrecsd: creating cluster: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  // Setup is done with the follow graph: S lives in the shards now. Its
  // copies were freed into the main arena, which the serving threads do
  // not allocate from, so hand that memory back before serving.
  *graph = StaticGraph();
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::fprintf(stderr, "magicrecsd: setup done (VmRSS %s, VmHWM %s)\n",
               ProcStatusField("VmRSS").c_str(),
               ProcStatusField("VmHWM").c_str());

  net::RpcServerOptions server_options;
  server_options.host = options.host;
  server_options.port = options.port;
  server_options.max_inflight_per_conn = options.max_inflight_per_conn;
  server_options.worker_threads = options.rpc_workers;
  server_options.slow_request_us = options.slow_request_ms * 1000;
  // Partition-group members stamp traces with their global partition id so
  // a merged trace tells the daemons apart; an all-hosting daemon uses the
  // sentinel.
  if (options.cluster.group_size > 0) {
    server_options.trace_party = options.cluster.group_partition;
  }
  // Self-health monitor: the journal must outlive the server (its monitor
  // writes transitions until Stop()), so it is created first here and
  // destroyed last by scope.
  std::unique_ptr<EventLog> health_journal;
  if (options.health_interval_ms > 0) {
    health_journal =
        std::make_unique<EventLog>(options.health_journal_path);
    server_options.health_interval_ms = options.health_interval_ms;
    server_options.event_journal = health_journal.get();
  }
  auto server = net::RpcServer::Start(cluster->get(), server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "magicrecsd: starting server: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }

  // The parenthesized suffix identifies the shard: partition-group members
  // print which global partition they host, so operator logs from N daemons
  // stay tellable apart. Scripts key on the "listening on HOST:PORT" prefix.
  const std::string shape =
      options.cluster.group_size > 0
          ? StrFormat("partition %u/%u x %u replicas",
                      options.cluster.group_partition,
                      options.cluster.group_size,
                      options.cluster.replicas_per_partition)
          : StrFormat("%u partitions x %u replicas",
                      options.cluster.num_partitions,
                      options.cluster.replicas_per_partition);
  std::printf("magicrecsd listening on %s:%u (%s, k=%u)\n",
              options.host.c_str(), (*server)->port(), shape.c_str(),
              options.cluster.detector.k);
  std::fflush(stdout);

  std::unique_ptr<MetricsJsonlDumper> dumper;
  if (options.metrics_dump_interval_s > 0) {
    dumper = std::make_unique<MetricsJsonlDumper>(
        options.metrics_dump_path, options.metrics_dump_interval_s);
  }

  int signal = 0;
  sigwait(&signals, &signal);
  std::fprintf(stderr, "magicrecsd: caught signal %d, shutting down\n",
               signal);

  // Final attributable stats dump before teardown: one line per hosted
  // replica, tagged with its global partition id.
  if (auto cluster_stats = (*cluster)->GetStats(); cluster_stats.ok()) {
    std::fprintf(stderr, "magicrecsd: %s\n",
                 cluster_stats->ToString().c_str());
    std::fprintf(stderr, "%s\n", cluster_stats->PerReplicaString().c_str());
  }

  (*server)->Stop();
  const net::RpcServerStats stats = (*server)->stats();
  const Status closed = (*cluster)->Close();
  if (!closed.ok()) {
    std::fprintf(stderr, "magicrecsd: cluster close: %s\n",
                 closed.ToString().c_str());
  }
  std::fprintf(stderr,
               "magicrecsd: served %llu requests over %llu connections "
               "(%llu protocol errors, %llu duplicate batches suppressed, "
               "%llu mux sessions, %llu partial reads, %llu partial writes, "
               "%llu inflight stalls)\n",
               static_cast<unsigned long long>(stats.requests_served),
               static_cast<unsigned long long>(stats.connections_accepted),
               static_cast<unsigned long long>(stats.protocol_errors),
               static_cast<unsigned long long>(stats.duplicate_batches),
               static_cast<unsigned long long>(stats.mux_connections),
               static_cast<unsigned long long>(stats.partial_reads),
               static_cast<unsigned long long>(stats.partial_writes),
               static_cast<unsigned long long>(stats.inflight_stalls));
  return closed.ok() ? 0 : 1;
}
