// Health engine: folds windowed counter rates (health/health_monitor.h),
// gather staleness and replay-buffer depth into a per-party HealthState
// with a reason code — the rule layer that turns the observability surface
// of PR 6 into something an autopilot can act on.
//
// A "party" is anything with independent health: each daemon a broker fans
// out to ("p0".."pN"), the broker itself ("broker"), or a daemon's own
// serving loop ("daemon"). The engine is deliberately transport-agnostic:
// callers build HealthInputs from whatever they can see and the engine only
// applies thresholds and the anti-flap state machine.
//
// State machine per party:
//
//            worsen (immediate)             worsen (immediate)
//   healthy ------------------> degraded ------------------> critical
//      ^                          |  ^                          |
//      +--------------------------+  +--------------------------+
//        improve: only after min_dwell_us in the current state AND
//        recover_evaluations consecutive cleaner evaluations
//
// Worsening is immediate (an operator wants to know NOW); improving is
// damped by dwell + consecutive-clean-evaluation hysteresis so a flapping
// daemon cannot flap the policy autopilot with it.

#ifndef MAGICRECS_HEALTH_HEALTH_ENGINE_H_
#define MAGICRECS_HEALTH_HEALTH_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace magicrecs {

/// Severity ladder. Numeric values are the wire/gauge encoding
/// (`health{party="..."} 0|1|2`) — append only.
enum class HealthState : uint8_t {
  kHealthy = 0,
  kDegraded = 1,
  kCritical = 2,
};

std::string_view HealthStateName(HealthState state);

/// Why a party is in its state. Stable kebab-case names ride the journal
/// and the docs reason-code table (docs/observability.md).
enum class HealthReason : uint8_t {
  kNone = 0,             // healthy, nothing to report
  kRecovered,            // transitioned back to healthy after dwell
  kDaemonUnreachable,    // connection down, dial in backoff
  kGatherStaleness,      // consecutive gathers missing this party
  kReplayBacklog,        // replay buffer filling toward its bound
  kReplayLoss,           // replay buffer or reply carry dropped in-window
  kInflightStalls,       // reactor pausing reads at max_inflight
  kProtocolErrors,       // malformed frames / CRC failures in-window
  kSlowRequests,         // slow-request log firing in-window
};

std::string_view HealthReasonName(HealthReason reason);

/// One party's evaluated health.
struct PartyHealth {
  std::string party;
  HealthState state = HealthState::kHealthy;
  HealthReason reason = HealthReason::kNone;
  /// Human-readable triggering values ("replay_events=5813/8192 (71%)").
  std::string detail;
  /// When the party entered `state` (microseconds, caller's clock).
  int64_t since_us = 0;
};

/// A full evaluation: every party, worst-first severity summary.
struct HealthReport {
  int64_t at_us = 0;
  std::vector<PartyHealth> parties;

  HealthState overall() const;
  const PartyHealth* Find(std::string_view party) const;
  /// One line per party: "p2 degraded daemon-unreachable (backoff_ms=200)".
  std::string ToString() const;
};

/// One state change, emitted by Evaluate() for the caller to journal.
struct HealthTransition {
  std::string party;
  HealthState from = HealthState::kHealthy;
  HealthState to = HealthState::kHealthy;
  HealthReason reason = HealthReason::kNone;
  std::string detail;
  int64_t at_us = 0;
};

/// Rule thresholds. Rates are per-second over the caller's sampling window;
/// the defaults assume the 10s window HealthMonitor uses.
struct HealthThresholds {
  /// Consecutive gathers a party may miss before degraded / critical.
  uint64_t degraded_missed_gathers = 1;
  uint64_t critical_missed_gathers = 4;

  /// Replay-buffer fill fraction (events buffered / capacity).
  double degraded_replay_frac = 0.25;
  double critical_replay_frac = 0.75;

  /// rpc_inflight_stalls per second.
  double degraded_stall_rate_per_s = 8.0;
  double critical_stall_rate_per_s = 64.0;

  /// rpc_protocol_errors per second.
  double degraded_error_rate_per_s = 1.0;
  double critical_error_rate_per_s = 16.0;

  /// rpc_slow_requests per second (degraded only; slowness alone is never
  /// critical).
  double degraded_slow_rate_per_s = 4.0;

  /// Anti-flap: minimum time in a state before improving out of it, and
  /// consecutive cleaner evaluations required.
  int64_t min_dwell_us = 1'000'000;
  int recover_evaluations = 2;
};

/// What the caller observed about its parties this evaluation round. Every
/// field defaults to "fine"; callers fill in what they can see.
struct HealthInputs {
  struct Party {
    std::string name;
    bool unreachable = false;
    uint64_t gathers_missed_consecutive = 0;
    size_t replay_events = 0;
    size_t replay_capacity = 0;  // 0 = no replay buffer for this party
    double replay_loss_rate_per_s = 0;
    double inflight_stall_rate_per_s = 0;
    double protocol_error_rate_per_s = 0;
    double slow_request_rate_per_s = 0;
  };
  std::vector<Party> parties;
};

/// Threshold + hysteresis evaluator. Thread-safe; one engine per broker or
/// daemon, fed by a HealthMonitor (health_monitor.h) or directly by tests.
class HealthEngine {
 public:
  explicit HealthEngine(const HealthThresholds& thresholds = {});

  /// Classifies every input party, advances the per-party state machines,
  /// and returns the resulting report. State changes this round are
  /// appended to `*transitions` (when non-null) for journaling. Parties
  /// absent from `inputs` are forgotten.
  HealthReport Evaluate(const HealthInputs& inputs, int64_t now_us,
                        std::vector<HealthTransition>* transitions = nullptr);

  /// The report from the most recent Evaluate (empty before the first).
  HealthReport Latest() const;

  /// Raw threshold classification of one party, before hysteresis. Public
  /// for tests and for callers that want an instantaneous reading.
  static void Classify(const HealthThresholds& thresholds,
                       const HealthInputs::Party& party, HealthState* state,
                       HealthReason* reason, std::string* detail);

 private:
  struct PartyMachine {
    HealthState state = HealthState::kHealthy;
    int64_t since_us = 0;
    int cleaner_evaluations = 0;
    HealthReason reason = HealthReason::kNone;
    std::string detail;
  };

  const HealthThresholds thresholds_;
  mutable std::mutex mu_;
  std::map<std::string, PartyMachine> machines_;
  HealthReport latest_;
};

/// A party's name in reports, gauges and journals: "pN" for the member
/// hosting global partition N of a group, "host:port" for a daemon hosting
/// every partition. The broker names its daemons and a daemon names itself
/// by this one rule, so their journals agree on who is who.
std::string HealthPartyName(std::optional<uint32_t> partition,
                            std::string_view host, uint16_t port);

}  // namespace magicrecs

#endif  // MAGICRECS_HEALTH_HEALTH_ENGINE_H_
