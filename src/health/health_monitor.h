// HealthMonitor: the periodic glue between the counters an owner scores, a
// HealthEngine, and the export surfaces. Every tick it
//
//   1. samples the watched counters into a CounterWindow,
//   2. asks the owner's collector to build HealthInputs from their rates
//      plus whatever live state only the owner can see (replay depths,
//      backoff),
//   3. evaluates the engine,
//   4. publishes `health{party="..."}` gauges into the registry (so health
//      rides the existing kStatsText wire surface unchanged),
//   5. journals every transition to the event log, and
//   6. hands the report + transitions to the owner's observer (the broker's
//      FanoutPolicy::kAuto flips in net/fanout_cluster.cc).
//
// The registry is the owner's: the process-wide one for a daemon, the
// broker's own for a FanoutCluster. Every monitor scores with the default
// HealthThresholds.
//
// EvaluateNow() runs one tick synchronously so tests and shutdown paths can
// force an evaluation without waiting out the interval.

#ifndef MAGICRECS_HEALTH_HEALTH_MONITOR_H_
#define MAGICRECS_HEALTH_HEALTH_MONITOR_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "health/health_engine.h"
#include "util/clock.h"
#include "util/event_log.h"
#include "util/metrics.h"

namespace magicrecs {

/// Trailing window the monitor rates its counters over.
inline constexpr int64_t kHealthRateWindowUs = 10'000'000;

/// Per-second rates of a fixed list of counters over a trailing window.
/// Each Sample() appends one point; Rate(i) compares the newest point with
/// the base, the oldest point inside `[newest - window_us, newest]` but
/// never the newest itself, and divides by the time actually elapsed
/// between them. Points older than the base are dropped, so the window
/// spans `window_us` at any sampling cadence. Thread-compatible.
class CounterWindow {
 public:
  /// The counters must outlive the window.
  CounterWindow(std::vector<const Counter*> counters, int64_t window_us);

  /// Reads every counter and appends the point taken at `now_us`.
  void Sample(int64_t now_us);

  /// Counter `i`'s increase per second from the base to the newest point;
  /// 0 before there are two points.
  double Rate(size_t i) const;

  size_t counters() const { return counters_.size(); }

  /// Points held (the base, the newest, and every point between).
  size_t points() const { return points_.size(); }

 private:
  struct Point {
    int64_t at_us;
    std::vector<uint64_t> values;
  };

  const std::vector<const Counter*> counters_;
  const int64_t window_us_;
  std::deque<Point> points_;  // front() is the base once there are two
};

class HealthMonitor {
 public:
  /// Builds this tick's HealthInputs. `rates[i]` is the watched counter
  /// i's per-second rate over kHealthRateWindowUs, fresh sample included.
  using Collector =
      std::function<void(std::span<const double> rates, HealthInputs* out)>;
  /// Called after gauges and journal are updated, outside the tick lock's
  /// critical registry work but still on the monitor thread.
  using Observer = std::function<void(
      const HealthReport& report,
      const std::vector<HealthTransition>& transitions)>;

  /// `registry`, `journal` and the `watched` counters must outlive the
  /// monitor; `journal` may be null (no journaling, engine state still
  /// advances). The background thread starts immediately and ticks every
  /// `interval_ms` (> 0).
  HealthMonitor(MetricsRegistry* registry, EventLog* journal,
                std::vector<const Counter*> watched, Collector collector,
                int interval_ms, Observer observer = nullptr,
                Clock* clock = SystemClock::Default());
  ~HealthMonitor();

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// One synchronous evaluation tick. Safe concurrently with the thread.
  void EvaluateNow();

  /// Latest engine report (empty before the first tick).
  HealthReport Latest() const { return engine_.Latest(); }

 private:
  void Loop();

  MetricsRegistry* const registry_;
  EventLog* const journal_;
  const Collector collector_;
  const Observer observer_;
  const int interval_ms_;
  Clock* const clock_;

  std::mutex tick_mu_;    // serializes EvaluateNow vs the thread
  CounterWindow window_;  // under tick_mu_
  HealthEngine engine_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace magicrecs

#endif  // MAGICRECS_HEALTH_HEALTH_MONITOR_H_
