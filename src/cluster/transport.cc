#include "cluster/transport.h"

#include "util/metrics.h"
#include "util/str_format.h"

namespace magicrecs {

std::string ReplicaStats::ToString() const {
  return StrFormat("p%u/r%u %s events=%llu queries=%llu recs=%llu", partition,
                   replica, alive ? "alive" : "dead",
                   static_cast<unsigned long long>(detector_events),
                   static_cast<unsigned long long>(threshold_queries),
                   static_cast<unsigned long long>(recommendations));
}

std::string PartitionHealth::ToString() const {
  const std::string which =
      partition == UINT32_MAX ? "all" : StrFormat("p%u", partition);
  return StrFormat(
      "%s missed=%llu (consecutive=%llu)", which.c_str(),
      static_cast<unsigned long long>(gathers_missed_total),
      static_cast<unsigned long long>(gathers_missed_consecutive));
}

std::string_view ServerLoopName(uint8_t loop) {
  switch (loop) {
    case 1: return "threads";
    case 2: return "epoll";
  }
  return "none";
}

std::string ClusterStats::ToString() const {
  std::string out = StrFormat(
      "partitions=%u replicas=%u published=%llu ingests=%llu queries=%llu "
      "recs=%llu S=%s D=%s",
      num_partitions, replicas_per_partition,
      static_cast<unsigned long long>(events_published),
      static_cast<unsigned long long>(detector_events),
      static_cast<unsigned long long>(threshold_queries),
      static_cast<unsigned long long>(recommendations),
      HumanBytes(static_memory_bytes).c_str(),
      HumanBytes(dynamic_memory_bytes).c_str());
  // Broker-only counters ride along only when something degraded actually
  // happened, so healthy output stays identical to what operators already
  // grep for.
  if (degraded_gathers != 0 || replayed_events != 0 ||
      replay_dropped_events != 0 || rescued_recommendations != 0 ||
      rescue_dropped != 0) {
    out += StrFormat(
        " degraded_gathers=%llu replayed=%llu replay_dropped=%llu "
        "rescued=%llu rescue_dropped=%llu",
        static_cast<unsigned long long>(degraded_gathers),
        static_cast<unsigned long long>(replayed_events),
        static_cast<unsigned long long>(replay_dropped_events),
        static_cast<unsigned long long>(rescued_recommendations),
        static_cast<unsigned long long>(rescue_dropped));
  }
  // Same stance for the server-loop counters: silent unless a daemon-side
  // RPC loop actually reported them.
  if (server.any()) {
    out += StrFormat(
        " loop=%s conns=%u served=%llu partial_reads=%llu "
        "partial_writes=%llu inflight_stalls=%llu mux_conns=%llu",
        std::string(ServerLoopName(server.loop)).c_str(),
        server.connections_open,
        static_cast<unsigned long long>(server.requests_served),
        static_cast<unsigned long long>(server.partial_reads),
        static_cast<unsigned long long>(server.partial_writes),
        static_cast<unsigned long long>(server.inflight_stalls),
        static_cast<unsigned long long>(server.mux_connections));
  }
  return out;
}

std::string ClusterStats::PerReplicaString() const {
  std::string out;
  for (const ReplicaStats& entry : per_replica) {
    if (!out.empty()) out += '\n';
    out += entry.ToString();
  }
  return out;
}

Result<std::string> ClusterTransport::GetStatsText() {
  return MetricsRegistry::Default()->RenderText();
}

}  // namespace magicrecs
