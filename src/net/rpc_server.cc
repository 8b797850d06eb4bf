#include "net/rpc_server.h"

#include <cstdio>
#include <string_view>
#include <utility>
#include <vector>

#include "health/health_monitor.h"
#include "net/epoll_reactor.h"
#include "util/clock.h"
#include "util/metrics.h"
#include "util/str_format.h"

namespace magicrecs::net {

RpcServer::RpcServer(ClusterTransport* transport,
                     const RpcServerOptions& options)
    : transport_(transport), options_(options) {}

Result<std::unique_ptr<RpcServer>> RpcServer::Start(
    ClusterTransport* transport, const RpcServerOptions& options) {
  if (transport == nullptr) {
    return Status::InvalidArgument("transport must be non-null");
  }
  if (options.max_inflight_per_conn == 0) {
    return Status::InvalidArgument("max_inflight_per_conn must be >= 1");
  }
  if (options.worker_threads <= 0) {
    return Status::InvalidArgument("worker_threads must be >= 1");
  }
  std::unique_ptr<RpcServer> server(new RpcServer(transport, options));
  MAGICRECS_ASSIGN_OR_RETURN(
      server->listener_,
      TcpListener::Listen(options.host, options.port, options.backlog));
  // Resolve the registry counters now that the bound port is known (an
  // ephemeral request has resolved) and BEFORE any serving thread exists,
  // so the hot paths increment through already-cached pointers. The
  // baseline snapshot makes stats() a per-server-lifetime delta even when a
  // later server in this process reuses the same host:port label.
  {
    const MetricLabels labels = {
        {"server", StrFormat("%s:%u", options.host.c_str(),
                             static_cast<unsigned>(server->port()))}};
    MetricsRegistry* registry = MetricsRegistry::Default();
    server->connections_accepted_metric_ =
        registry->GetCounter("rpc_connections_accepted", labels);
    server->requests_served_metric_ =
        registry->GetCounter("rpc_requests_served", labels);
    server->protocol_errors_metric_ =
        registry->GetCounter("rpc_protocol_errors", labels);
    server->duplicate_batches_metric_ =
        registry->GetCounter("rpc_duplicate_batches", labels);
    server->connections_open_metric_ =
        registry->GetGauge("rpc_connections_open", labels);
    server->partial_reads_metric_ =
        registry->GetCounter("rpc_partial_reads", labels);
    server->partial_writes_metric_ =
        registry->GetCounter("rpc_partial_writes", labels);
    server->inflight_stalls_metric_ =
        registry->GetCounter("rpc_inflight_stalls", labels);
    server->mux_connections_metric_ =
        registry->GetCounter("rpc_mux_connections", labels);
    server->slow_requests_metric_ =
        registry->GetCounter("rpc_slow_requests", labels);
    server->writev_calls_metric_ =
        registry->GetCounter("rpc_writev_calls", labels);
    server->egress_bytes_metric_ =
        registry->GetCounter("rpc_egress_bytes", labels);
    server->frames_per_writev_metric_ =
        registry->GetHistogram("rpc_frames_per_writev", labels);
    RpcServerStats& base = server->baseline_;
    base.connections_accepted = server->connections_accepted_metric_->Value();
    base.requests_served = server->requests_served_metric_->Value();
    base.protocol_errors = server->protocol_errors_metric_->Value();
    base.duplicate_batches = server->duplicate_batches_metric_->Value();
    base.connections_open = 0;  // the gauge self-corrects as peers close
    base.partial_reads = server->partial_reads_metric_->Value();
    base.partial_writes = server->partial_writes_metric_->Value();
    base.inflight_stalls = server->inflight_stalls_metric_->Value();
    base.mux_connections = server->mux_connections_metric_->Value();
    base.slow_requests = server->slow_requests_metric_->Value();
  }
  server->reactor_ = std::make_unique<EpollReactor>(server.get());
  MAGICRECS_RETURN_IF_ERROR(server->reactor_->Start());
  if (options.health_interval_ms > 0) {
    // Self-health: the daemon grades its own serving behavior from the
    // same registry counters the scrape surface renders. Only the rate
    // rules fire — replay depth and gather staleness are the broker's
    // view of this daemon, not its own.
    std::string party = options.health_party;
    if (party.empty()) {
      party = options.trace_party == kTracePartyAllHosting
                  ? StrFormat("%s:%u", options.host.c_str(),
                              static_cast<unsigned>(server->port()))
                  : StrFormat("p%u", options.trace_party);
    }
    const MetricLabels labels = {
        {"server", StrFormat("%s:%u", options.host.c_str(),
                             static_cast<unsigned>(server->port()))}};
    const std::string stalls_key = MetricKey("rpc_inflight_stalls", labels);
    const std::string errors_key = MetricKey("rpc_protocol_errors", labels);
    const std::string slow_key = MetricKey("rpc_slow_requests", labels);
    HealthMonitorOptions monitor_options;
    monitor_options.interval_ms = options.health_interval_ms;
    monitor_options.thresholds = options.health;
    server->health_monitor_ = std::make_unique<HealthMonitor>(
        MetricsRegistry::Default(), options.event_journal,
        [party, stalls_key, errors_key, slow_key](
            const MetricsTimeSeries& series, int64_t window_us,
            HealthInputs* inputs) {
          HealthInputs::Party self;
          self.name = party;
          self.inflight_stall_rate_per_s =
              series.CounterRate(stalls_key, window_us).value_or(0);
          self.protocol_error_rate_per_s =
              series.CounterRate(errors_key, window_us).value_or(0);
          self.slow_request_rate_per_s =
              series.CounterRate(slow_key, window_us).value_or(0);
          inputs->parties.push_back(std::move(self));
        },
        monitor_options);
  }
  return server;
}

RpcServer::~RpcServer() { Stop(); }

void RpcServer::Stop() {
  if (stopped_) return;
  stopped_ = true;
  // Join the health monitor first: its collector reads this server's
  // registry counters through cached pointers, and the journal it writes
  // is only guaranteed to outlive the server, not Stop().
  health_monitor_.reset();
  listener_.Close();  // refuses new peers; the reactor severs the open ones
  if (reactor_ != nullptr) reactor_->Stop();
}

RpcServerStats RpcServer::stats() const {
  RpcServerStats stats;
  stats.connections_accepted =
      connections_accepted_metric_->Value() - baseline_.connections_accepted;
  stats.requests_served =
      requests_served_metric_->Value() - baseline_.requests_served;
  stats.protocol_errors =
      protocol_errors_metric_->Value() - baseline_.protocol_errors;
  stats.duplicate_batches =
      duplicate_batches_metric_->Value() - baseline_.duplicate_batches;
  stats.connections_open =
      static_cast<uint32_t>(connections_open_metric_->Value());
  stats.partial_reads = partial_reads_metric_->Value() - baseline_.partial_reads;
  stats.partial_writes =
      partial_writes_metric_->Value() - baseline_.partial_writes;
  stats.inflight_stalls =
      inflight_stalls_metric_->Value() - baseline_.inflight_stalls;
  stats.mux_connections =
      mux_connections_metric_->Value() - baseline_.mux_connections;
  stats.slow_requests = slow_requests_metric_->Value() - baseline_.slow_requests;
  return stats;
}

ServerLoopStats RpcServer::SnapshotLoopStats() const {
  const RpcServerStats current = stats();
  ServerLoopStats s;
  s.loop = 2;  // the epoll reactor (see ServerLoopStats::loop)
  s.connections_open = current.connections_open;
  s.requests_served = current.requests_served;
  s.partial_reads = current.partial_reads;
  s.partial_writes = current.partial_writes;
  s.inflight_stalls = current.inflight_stalls;
  s.mux_connections = current.mux_connections;
  return s;
}

bool RpcServer::BeginBatch(uint64_t sequence) {
  std::unique_lock<std::mutex> lock(dedup_mu_);
  if (options_.publish_dedup_window == 0) return false;
  while (true) {
    if (seen_batch_sequences_.contains(sequence)) return true;
    const auto it = inflight_batches_.find(sequence);
    if (it == inflight_batches_.end()) {
      inflight_batches_.emplace(sequence,
                                std::make_shared<InflightBatch>());
      return false;
    }
    // The original copy of this sequence is mid-apply on another
    // connection. Waiting (rather than acking now) keeps the ack honest:
    // if that apply fails, this copy wakes, claims the sequence, and
    // applies the batch itself. Bounded by the original's apply; the
    // replaying broker's recv timeout covers a pathological stall. The
    // outcome is read from the shared record, not the window — a success
    // the window has already evicted must still suppress this copy.
    const std::shared_ptr<InflightBatch> state = it->second;
    dedup_cv_.wait(lock, [&] { return state->resolved; });
    if (state->applied) return true;
    // Failed: the record is gone from the map (FinishBatch erased it), so
    // one waiter's retry claims the sequence; the rest wait on that
    // fresh attempt.
  }
}

void RpcServer::FinishBatch(uint64_t sequence, bool applied) {
  std::lock_guard<std::mutex> lock(dedup_mu_);
  if (options_.publish_dedup_window == 0) return;
  const auto it = inflight_batches_.find(sequence);
  if (it != inflight_batches_.end()) {
    it->second->resolved = true;
    it->second->applied = applied;
    inflight_batches_.erase(it);  // waiters hold their own shared_ptr
  }
  // A failed apply leaves no trace: the events never landed, so a broker
  // replay of the same frame must be applied, not dup-acked — recording
  // the sequence anyway would turn the failure into silent event loss
  // reported as success.
  if (applied) {
    seen_batch_sequences_.insert(sequence);
    seen_batch_order_.push_back(sequence);
    while (seen_batch_order_.size() > options_.publish_dedup_window) {
      seen_batch_sequences_.erase(seen_batch_order_.front());
      seen_batch_order_.pop_front();
    }
  }
  dedup_cv_.notify_all();
}

void RpcServer::HandleHello(const Frame& request, std::string* response,
                            uint32_t* features) {
  uint32_t peer_version = 0;
  uint32_t wanted = 0;
  const Status decoded = DecodeHello(request.payload, &peer_version, &wanted);
  if (!decoded.ok()) {
    protocol_errors_metric_->Increment();
    AppendError(decoded, response);
    return;
  }
  const uint32_t accepted = wanted & (kFeatureMux | kFeatureTrace);
  if ((accepted & kFeatureMux) != 0 && (*features & kFeatureMux) == 0) {
    mux_connections_metric_->Increment();
  }
  *features |= accepted;
  AppendHelloReply(accepted,
                   static_cast<uint32_t>(options_.max_inflight_per_conn),
                   response);
}

void RpcServer::HandleMuxEnvelope(const Frame& envelope, uint32_t features,
                                  FrameBuf* response) {
  uint64_t request_id = 0;
  Frame inner;
  const Status decoded =
      DecodeMuxRequest(envelope.payload, &request_id, &inner);
  if (!decoded.ok()) {
    // The envelope itself was well-framed; only its payload is bad.
    protocol_errors_metric_->Increment();
    std::string error;
    AppendError(decoded, &error);
    *response = FrameBuf::Wrap(std::move(error));
    return;
  }
  // The inner reply frames are encoded once; each kMuxResponse envelope
  // slices its body out of that block instead of copying it — the
  // server-side half of the zero-copy egress path.
  std::string inner_response;
  HandleRequest(inner, features, &inner_response);
  Result<FrameBuf> wrapped = WrapMuxResponsesShared(
      request_id, FrameBuf::MakeBlock(std::move(inner_response)));
  if (!wrapped.ok()) {
    std::string error;
    AppendError(wrapped.status(), &error);
    *response = FrameBuf::Wrap(std::move(error));
    return;
  }
  *response = std::move(wrapped).value();
}

void RpcServer::HandleRequest(const Frame& request, uint32_t features,
                              std::string* response) {
  if (options_.slow_request_us <= 0) {
    DispatchRequest(request, features, response);
    return;
  }
  Stopwatch timer;
  DispatchRequest(request, features, response);
  const int64_t elapsed_us = timer.ElapsedMicros();
  if (elapsed_us >= options_.slow_request_us) {
    slow_requests_metric_->Increment();
    std::fprintf(stderr,
                 "[magicrecs] slow request on %s:%u: tag=%.*s took %lldus "
                 "(threshold %lldus)\n",
                 options_.host.c_str(), static_cast<unsigned>(port()),
                 static_cast<int>(MessageTagName(request.tag).size()),
                 MessageTagName(request.tag).data(),
                 static_cast<long long>(elapsed_us),
                 static_cast<long long>(options_.slow_request_us));
  }
}

void RpcServer::DispatchRequest(const Frame& request, uint32_t features,
                                std::string* response) {
  const std::string_view payload = request.payload;
  Status status;
  switch (request.tag) {
    case MessageTag::kPublish: {
      EdgeEvent event;
      status = DecodePublish(payload, &event);
      if (status.ok()) status = transport_->Publish(event);
      break;
    }
    case MessageTag::kPublishBatch: {
      std::vector<EdgeEvent> events;
      uint64_t batch_sequence = 0;
      TraceContext trace;
      status = DecodePublishBatch(payload, &events, &batch_sequence, &trace);
      if (status.ok() && trace.active()) {
        trace.Stamp(TraceStage::kDaemonDequeue, options_.trace_party,
                    SystemClock::Default()->Now());
      }
      // A non-zero sequence marks an idempotent batch: a replayed copy of
      // a frame this server already APPLIED (possibly on another
      // connection) is acked without applying it twice. A re-send racing
      // the original's in-flight apply waits for its outcome inside
      // BeginBatch — an ack always means some copy of the batch landed.
      // The duplicate's ack carries no trace: the original's did, and a
      // second set of stamps for one apply would double-count the stage.
      if (status.ok() && batch_sequence != 0 && BeginBatch(batch_sequence)) {
        duplicate_batches_metric_->Increment();
        break;  // status is OK: ack the duplicate
      }
      if (status.ok()) {
        status = transport_->PublishBatch(events);
        if (batch_sequence != 0) FinishBatch(batch_sequence, status.ok());
        // A threaded transport returns once the batch is queued on every
        // replica inbox, so this stamp marks the handoff, not the apply.
        if (status.ok() && trace.active()) {
          trace.Stamp(TraceStage::kDetectorApply, options_.trace_party,
                      SystemClock::Default()->Now());
          // Echo the stamps on the ack ONLY toward a kFeatureTrace peer: a
          // pre-trace decoder expects the ack payload to be empty.
          if ((features & kFeatureTrace) != 0) {
            AppendAck(response, &trace);
            return;
          }
        }
      }
      break;
    }
    case MessageTag::kTakeRecommendations: {
      GatherReport report;
      Result<std::vector<Recommendation>> recs =
          transport_->TakeRecommendations(&report);
      if (recs.ok()) {
        // A large gather streams as several bounded frames (one request,
        // N ordered replies) so no reply can hit the frame-size cap.
        // Delivery of a gather is at-most-once, mirroring the in-process
        // move-out contract: recommendations taken here are gone if the
        // reply write fails; the delivery pipeline's dedup absorbs any
        // operator-level replay. When the transport's gather was degraded
        // (a fan-out broker behind this server with daemons down), the
        // GatherReport tail forwards which partitions are missing — taken
        // from THIS call, not the shared last-call slot, so concurrent
        // gatherers never receive each other's coverage.
        //
        // Completed traces ride the reply's trace tail, one per gather
        // (the oldest), and only toward a kFeatureTrace peer — TakeTraces
        // is left undrained otherwise so a local operator can still read
        // them.
        TraceContext reply_trace;
        if ((features & kFeatureTrace) != 0) {
          std::vector<TraceContext> traces = transport_->TakeTraces();
          if (!traces.empty()) reply_trace = std::move(traces.front());
        }
        AppendRecommendationsReplyChunked(
            *recs, kRecommendationsChunkBytes, response,
            report.complete() ? nullptr : &report,
            reply_trace.active() ? &reply_trace : nullptr);
        return;
      }
      status = recs.status();
      break;
    }
    case MessageTag::kDrain:
      status = transport_->Drain();
      break;
    case MessageTag::kCheckpoint: {
      Timestamp created_at = 0;
      status = DecodeCheckpoint(payload, &created_at);
      if (status.ok()) status = transport_->Checkpoint(created_at);
      break;
    }
    case MessageTag::kKillReplica:
    case MessageTag::kRecoverReplica: {
      uint32_t partition = 0;
      uint32_t replica = 0;
      status = DecodeReplicaOp(payload, &partition, &replica);
      if (status.ok()) {
        status = request.tag == MessageTag::kKillReplica
                     ? transport_->KillReplica(partition, replica)
                     : transport_->RecoverReplica(partition, replica);
      }
      break;
    }
    case MessageTag::kStats: {
      const bool negotiated = (features & kFeatureMux) != 0;
      Result<ClusterStats> stats = transport_->GetStats();
      if (stats.ok()) {
        // The server-loop counters ride only toward hello-speaking peers:
        // a pre-versioning decoder rejects the unfamiliar tail (wire.h,
        // "Versioning and compatibility").
        if (negotiated) stats->server = SnapshotLoopStats();
        AppendStatsReply(*stats, response, negotiated);
        return;
      }
      status = stats.status();
      break;
    }
    case MessageTag::kStatsText: {
      // The registry text exposition. No negotiation needed: the tag is
      // new, so an old client never sends it and an old server answers
      // kError(Unimplemented) through the default arm below.
      Result<std::string> text = transport_->GetStatsText();
      if (text.ok()) {
        AppendStatsTextReply(*text, response);
        return;
      }
      status = text.status();
      break;
    }
    case MessageTag::kPing:
      status = Status::OK();
      break;
    default:
      // Unknown or response-range tag: the frame itself was well-formed, so
      // the stream is still aligned — answer and keep serving.
      protocol_errors_metric_->Increment();
      AppendError(
          Status::Unimplemented(StrFormat(
              "unknown message tag 0x%02x",
              static_cast<unsigned>(static_cast<uint8_t>(request.tag)))),
          response);
      return;
  }
  if (status.ok()) {
    AppendAck(response);
  } else {
    AppendError(status, response);
  }
}

}  // namespace magicrecs::net
