#include "health/health_monitor.h"

#include <chrono>
#include <utility>

namespace magicrecs {

CounterWindow::CounterWindow(std::vector<const Counter*> counters,
                             int64_t window_us)
    : counters_(std::move(counters)), window_us_(window_us) {}

void CounterWindow::Sample(int64_t now_us) {
  Point point{now_us, {}};
  point.values.reserve(counters_.size());
  for (const Counter* counter : counters_) {
    point.values.push_back(counter->Value());
  }
  points_.push_back(std::move(point));
  // Drop every point older than the base: the oldest point inside the
  // window, but never the newest, so two points always remain.
  const int64_t cutoff = now_us - window_us_;
  while (points_.size() > 2 && points_.front().at_us < cutoff) {
    points_.pop_front();
  }
}

double CounterWindow::Rate(size_t i) const {
  if (points_.size() < 2) return 0;
  const Point& base = points_.front();
  const Point& newest = points_.back();
  const int64_t elapsed_us = newest.at_us - base.at_us;
  if (elapsed_us <= 0) return 0;
  return static_cast<double>(newest.values[i] - base.values[i]) * 1e6 /
         static_cast<double>(elapsed_us);
}

HealthMonitor::HealthMonitor(MetricsRegistry* registry, EventLog* journal,
                             std::vector<const Counter*> watched,
                             Collector collector, int interval_ms,
                             Observer observer, Clock* clock)
    : registry_(registry),
      journal_(journal),
      collector_(std::move(collector)),
      observer_(std::move(observer)),
      interval_ms_(interval_ms),
      clock_(clock),
      window_(std::move(watched), kHealthRateWindowUs) {
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
  window_.Sample(now);
  std::vector<double> rates(window_.counters());
  for (size_t i = 0; i < rates.size(); ++i) rates[i] = window_.Rate(i);

  HealthInputs inputs;
  collector_(rates, &inputs);

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
