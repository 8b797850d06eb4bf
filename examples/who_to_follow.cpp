// "Who to follow" at deployment shape: a synthetic Twitter-like graph, a
// temporally-correlated follow stream delivered through calibrated message
// queues (virtual time), the 20-partition replicated cluster, and the
// production delivery funnel — the whole system of §2 in one binary.
//
//   $ ./who_to_follow [num_users] [num_events]

#include <cstdio>
#include <cstdlib>

#include "cluster/cluster.h"
#include "delivery/pipeline.h"
#include "gen/activity_stream.h"
#include "gen/social_graph.h"
#include "graph/degree_stats.h"
#include "stream/delay_model.h"
#include "stream/latency_tracker.h"
#include "stream/simulator.h"
#include "util/str_format.h"

using namespace magicrecs;

int main(int argc, char** argv) {
  const uint32_t num_users =
      argc > 1 ? static_cast<uint32_t>(std::atoi(argv[1])) : 10'000;
  const uint64_t num_events =
      argc > 2 ? static_cast<uint64_t>(std::atoll(argv[2])) : 30'000;

  // --- Offline: generate the follow graph -----------------------------------
  SocialGraphOptions graph_options;
  graph_options.num_users = num_users;
  graph_options.mean_followees = 30;
  graph_options.seed = 42;
  auto follow_graph = SocialGraphGenerator(graph_options).Generate();
  if (!follow_graph.ok()) {
    std::fprintf(stderr, "graph generation failed: %s\n",
                 follow_graph.status().ToString().c_str());
    return 1;
  }
  std::printf("follow graph: %s\n",
              ComputeDegreeStats(*follow_graph).ToString().c_str());

  // --- The cluster: 20 partitions, 2 replicas each, production k = 3 --------
  ClusterOptions cluster_options;
  cluster_options.num_partitions = 20;
  cluster_options.replicas_per_partition = 2;
  cluster_options.detector.k = 3;
  cluster_options.detector.window = Minutes(10);
  cluster_options.max_influencers_per_user = 500;
  auto cluster = Cluster::Create(*follow_graph, cluster_options);
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster creation failed: %s\n",
                 cluster.status().ToString().c_str());
    return 1;
  }
  std::printf("cluster: %u partitions x %u replicas, S=%s\n",
              (*cluster)->num_partitions(),
              (*cluster)->replicas_per_partition(),
              HumanBytes((*cluster)->TotalStaticMemory()).c_str());

  // --- The stream: bursty follows, delivered through lossy-latency queues ---
  ActivityStreamOptions stream_options;
  stream_options.num_events = num_events;
  stream_options.events_per_second = 10'000;  // the paper's design target
  stream_options.burst_fraction = 0.35;
  stream_options.start_time = Hours(12);  // noon UTC
  stream_options.seed = 43;
  auto stream =
      ActivityStreamGenerator(&*follow_graph, stream_options).Generate();
  if (!stream.ok()) {
    std::fprintf(stderr, "stream generation failed: %s\n",
                 stream.status().ToString().c_str());
    return 1;
  }
  std::printf("stream: %llu events (%llu in %llu bursts)\n",
              static_cast<unsigned long long>(stream->events.size()),
              static_cast<unsigned long long>(stream->burst_events),
              static_cast<unsigned long long>(stream->bursts));

  // --- Run in virtual time ---------------------------------------------------
  SimulatedClock clock;
  VirtualTimeSimulator simulator(&clock);
  Rng rng(44);
  auto queue_delay = MakeTwitterCalibratedDelayModel();
  simulator.ScheduleStream(stream->events, ActionType::kFollow, *queue_delay,
                           &rng);

  DeliveryPipeline pipeline;
  LatencyTracker latency;
  std::vector<Notification> notifications;
  Stopwatch wall;
  simulator.Run([&](const EdgeEvent& event, Timestamp deliver_time) {
    latency.RecordQueueDelay(deliver_time - event.edge.created_at);
    // The cluster was never started, so the publish applies before it
    // returns and the gather holds this event's recommendations.
    if (!(*cluster)->Publish(event).ok()) return;
    auto recs = (*cluster)->TakeRecommendations();
    if (!recs.ok()) return;
    for (const Recommendation& rec : *recs) {
      if (pipeline.Process(rec, clock.Now(), &notifications) ==
          DeliveryOutcome::kDelivered) {
        latency.RecordEndToEnd(clock.Now() - rec.event_time);
      }
    }
  });

  // --- Report ----------------------------------------------------------------
  const MotifEngineStats stats = (*cluster)->AggregatedStats();
  std::printf("\nprocessed %llu events in %.2fs wall (%.0f events/s)\n",
              static_cast<unsigned long long>(stream->events.size()),
              wall.ElapsedSeconds(),
              static_cast<double>(stream->events.size()) /
                  wall.ElapsedSeconds());
  std::printf("raw candidates: %llu, notifications delivered: %zu\n",
              static_cast<unsigned long long>(stats.recommendations),
              notifications.size());
  std::printf("funnel: %s\n", pipeline.funnel().ToString().c_str());
  std::printf("\nlatency decomposition (cf. paper: median 7s / p99 15s, "
              "queries in ms):\n");
  std::printf("queue delay : %s\n",
              latency.queue_delay()
                  .ToString(1.0 / kMicrosPerSecond, "s")
                  .c_str());
  std::printf("end-to-end  : %s\n",
              latency.end_to_end()
                  .ToString(1.0 / kMicrosPerSecond, "s")
                  .c_str());
  std::printf("(end-to-end is reported over *delivered* pushes; dedup keeps "
              "the earliest-arriving candidate per pair, biasing it below "
              "the raw queue delay)\n");
  std::printf("\nper-event graph query latency: %s\n",
              stats.query_micros.ToString(1.0, "us").c_str());
  std::printf("D memory (one per process): %s\n",
              HumanBytes((*cluster)->TotalDynamicMemory()).c_str());
  return 0;
}
