#include "health/health_engine.h"

#include <algorithm>
#include <utility>

#include "util/str_format.h"

namespace magicrecs {

std::string_view HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kCritical:
      return "critical";
  }
  return "unknown";
}

std::string_view HealthReasonName(HealthReason reason) {
  switch (reason) {
    case HealthReason::kNone:
      return "none";
    case HealthReason::kRecovered:
      return "recovered";
    case HealthReason::kDaemonUnreachable:
      return "daemon-unreachable";
    case HealthReason::kGatherStaleness:
      return "gather-staleness";
    case HealthReason::kReplayBacklog:
      return "replay-backlog";
    case HealthReason::kReplayLoss:
      return "replay-loss";
    case HealthReason::kInflightStalls:
      return "inflight-stalls";
    case HealthReason::kProtocolErrors:
      return "protocol-errors";
    case HealthReason::kSlowRequests:
      return "slow-requests";
  }
  return "unknown";
}

HealthState HealthReport::overall() const {
  HealthState worst = HealthState::kHealthy;
  for (const PartyHealth& p : parties) worst = std::max(worst, p.state);
  return worst;
}

const PartyHealth* HealthReport::Find(std::string_view party) const {
  for (const PartyHealth& p : parties) {
    if (p.party == party) return &p;
  }
  return nullptr;
}

std::string HealthReport::ToString() const {
  std::string out;
  for (const PartyHealth& p : parties) {
    out += StrFormat("%s %s %s", p.party.c_str(),
                     std::string(HealthStateName(p.state)).c_str(),
                     std::string(HealthReasonName(p.reason)).c_str());
    if (!p.detail.empty()) out += " (" + p.detail + ")";
    out += "\n";
  }
  return out;
}

HealthEngine::HealthEngine(const HealthThresholds& thresholds)
    : thresholds_(thresholds) {}

void HealthEngine::Classify(const HealthThresholds& t,
                            const HealthInputs::Party& p, HealthState* state,
                            HealthReason* reason, std::string* detail) {
  const double replay_frac =
      p.replay_capacity == 0
          ? 0
          : static_cast<double>(p.replay_events) /
                static_cast<double>(p.replay_capacity);

  // Critical rules first, then degraded, first match wins within a tier —
  // the order here is the tie-break an operator sees as "the" reason.
  if (p.replay_capacity > 0 && replay_frac >= t.critical_replay_frac) {
    *state = HealthState::kCritical;
    *reason = HealthReason::kReplayBacklog;
    *detail = StrFormat("replay_events=%zu/%zu (%.0f%%)", p.replay_events,
                        p.replay_capacity, replay_frac * 100);
    return;
  }
  if (p.replay_loss_rate_per_s > 0) {
    *state = HealthState::kCritical;
    *reason = HealthReason::kReplayLoss;
    *detail =
        StrFormat("replay_loss_rate=%.2f/s", p.replay_loss_rate_per_s);
    return;
  }
  if (p.gathers_missed_consecutive >= t.critical_missed_gathers) {
    *state = HealthState::kCritical;
    *reason = HealthReason::kGatherStaleness;
    *detail = StrFormat("gathers_missed_consecutive=%llu",
                        static_cast<unsigned long long>(
                            p.gathers_missed_consecutive));
    return;
  }
  if (p.inflight_stall_rate_per_s >= t.critical_stall_rate_per_s) {
    *state = HealthState::kCritical;
    *reason = HealthReason::kInflightStalls;
    *detail =
        StrFormat("inflight_stall_rate=%.2f/s", p.inflight_stall_rate_per_s);
    return;
  }
  if (p.protocol_error_rate_per_s >= t.critical_error_rate_per_s) {
    *state = HealthState::kCritical;
    *reason = HealthReason::kProtocolErrors;
    *detail =
        StrFormat("protocol_error_rate=%.2f/s", p.protocol_error_rate_per_s);
    return;
  }

  if (p.unreachable) {
    *state = HealthState::kDegraded;
    *reason = HealthReason::kDaemonUnreachable;
    *detail = StrFormat("dial in backoff, gathers_missed_consecutive=%llu",
                        static_cast<unsigned long long>(
                            p.gathers_missed_consecutive));
    return;
  }
  if (p.gathers_missed_consecutive >= t.degraded_missed_gathers) {
    *state = HealthState::kDegraded;
    *reason = HealthReason::kGatherStaleness;
    *detail = StrFormat("gathers_missed_consecutive=%llu",
                        static_cast<unsigned long long>(
                            p.gathers_missed_consecutive));
    return;
  }
  if (p.replay_capacity > 0 && replay_frac >= t.degraded_replay_frac) {
    *state = HealthState::kDegraded;
    *reason = HealthReason::kReplayBacklog;
    *detail = StrFormat("replay_events=%zu/%zu (%.0f%%)", p.replay_events,
                        p.replay_capacity, replay_frac * 100);
    return;
  }
  if (p.inflight_stall_rate_per_s >= t.degraded_stall_rate_per_s) {
    *state = HealthState::kDegraded;
    *reason = HealthReason::kInflightStalls;
    *detail =
        StrFormat("inflight_stall_rate=%.2f/s", p.inflight_stall_rate_per_s);
    return;
  }
  if (p.protocol_error_rate_per_s >= t.degraded_error_rate_per_s) {
    *state = HealthState::kDegraded;
    *reason = HealthReason::kProtocolErrors;
    *detail =
        StrFormat("protocol_error_rate=%.2f/s", p.protocol_error_rate_per_s);
    return;
  }
  if (p.slow_request_rate_per_s >= t.degraded_slow_rate_per_s) {
    *state = HealthState::kDegraded;
    *reason = HealthReason::kSlowRequests;
    *detail =
        StrFormat("slow_request_rate=%.2f/s", p.slow_request_rate_per_s);
    return;
  }

  *state = HealthState::kHealthy;
  *reason = HealthReason::kNone;
  detail->clear();
}

HealthReport HealthEngine::Evaluate(
    const HealthInputs& inputs, int64_t now_us,
    std::vector<HealthTransition>* transitions) {
  std::lock_guard<std::mutex> lock(mu_);

  // Forget parties no longer reported (a reconfigured group) so a stale
  // machine cannot resurface with ancient state.
  std::map<std::string, PartyMachine> alive;
  HealthReport report;
  report.at_us = now_us;
  report.parties.reserve(inputs.parties.size());

  for (const HealthInputs::Party& input : inputs.parties) {
    HealthState raw_state;
    HealthReason raw_reason;
    std::string raw_detail;
    Classify(thresholds_, input, &raw_state, &raw_reason, &raw_detail);

    auto it = machines_.find(input.name);
    PartyMachine m;
    if (it == machines_.end()) {
      m.since_us = now_us;
    } else {
      m = it->second;
    }

    if (raw_state > m.state) {
      // Worsened: transition immediately.
      if (transitions != nullptr) {
        transitions->push_back(HealthTransition{input.name, m.state, raw_state,
                                                raw_reason, raw_detail,
                                                now_us});
      }
      m.state = raw_state;
      m.since_us = now_us;
      m.cleaner_evaluations = 0;
      m.reason = raw_reason;
      m.detail = raw_detail;
    } else if (raw_state < m.state) {
      // Improved: only believe it after dwell + consecutive cleaner evals.
      ++m.cleaner_evaluations;
      if (m.cleaner_evaluations >= thresholds_.recover_evaluations &&
          now_us - m.since_us >= thresholds_.min_dwell_us) {
        const HealthReason to_reason = raw_state == HealthState::kHealthy
                                           ? HealthReason::kRecovered
                                           : raw_reason;
        const std::string to_detail =
            raw_state == HealthState::kHealthy
                ? StrFormat("clean for %d evaluations",
                            m.cleaner_evaluations)
                : raw_detail;
        if (transitions != nullptr) {
          transitions->push_back(HealthTransition{
              input.name, m.state, raw_state, to_reason, to_detail, now_us});
        }
        m.state = raw_state;
        m.since_us = now_us;
        m.cleaner_evaluations = 0;
        m.reason = raw_state == HealthState::kHealthy ? HealthReason::kNone
                                                      : raw_reason;
        m.detail = raw_state == HealthState::kHealthy ? "" : raw_detail;
      }
      // else: hold the worse state; keep its reason/detail for reporting.
    } else {
      // Same severity: refresh the evidence, reset the recovery streak.
      m.cleaner_evaluations = 0;
      m.reason = raw_reason;
      m.detail = raw_detail;
    }

    report.parties.push_back(
        PartyHealth{input.name, m.state, m.reason, m.detail, m.since_us});
    alive[input.name] = std::move(m);
  }

  machines_ = std::move(alive);
  latest_ = report;
  return report;
}

HealthReport HealthEngine::Latest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latest_;
}

std::string HealthPartyName(std::optional<uint32_t> partition,
                            std::string_view host, uint16_t port) {
  if (partition.has_value()) return StrFormat("p%u", *partition);
  return StrFormat("%s:%u", std::string(host).c_str(),
                   static_cast<unsigned>(port));
}

}  // namespace magicrecs
