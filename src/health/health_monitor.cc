#include "health/health_monitor.h"

#include <chrono>
#include <utility>

namespace magicrecs {

HealthMonitor::HealthMonitor(MetricsRegistry* registry, EventLog* journal,
                             Collector collector, int interval_ms,
                             Observer observer, Clock* clock)
    : registry_(registry),
      journal_(journal),
      collector_(std::move(collector)),
      observer_(std::move(observer)),
      interval_ms_(interval_ms),
      clock_(clock),
      series_(kHealthHistory) {
  thread_ = std::thread([this] { Loop(); });
}

HealthMonitor::~HealthMonitor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void HealthMonitor::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                 [this] { return stop_; });
    if (stop_) return;
    lock.unlock();
    EvaluateNow();
    lock.lock();
  }
}

void HealthMonitor::EvaluateNow() {
  std::lock_guard<std::mutex> tick(tick_mu_);
  const int64_t now = clock_->Now();
  series_.Sample(*registry_, now);

  HealthInputs inputs;
  collector_(series_, kHealthRateWindowUs, &inputs);

  std::vector<HealthTransition> transitions;
  const HealthReport report = engine_.Evaluate(inputs, now, &transitions);

  for (const PartyHealth& party : report.parties) {
    registry_->GetGauge("health", {{"party", party.party}})
        ->Set(static_cast<int64_t>(party.state));
  }

  if (journal_ != nullptr) {
    for (const HealthTransition& t : transitions) {
      journal_->Append(
          t.at_us, "health_transition",
          {LogEvent::Str("party", t.party),
           LogEvent::Str("from", std::string(HealthStateName(t.from))),
           LogEvent::Str("to", std::string(HealthStateName(t.to))),
           LogEvent::Str("reason", std::string(HealthReasonName(t.reason))),
           LogEvent::Str("detail", t.detail)});
    }
  }

  if (observer_) observer_(report, transitions);
}

}  // namespace magicrecs
