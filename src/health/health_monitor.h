// HealthMonitor: the periodic glue between a MetricsRegistry, the windowed
// time-series, a HealthEngine, and the export surfaces. Every tick it
//
//   1. appends a registry snapshot to the ring (util/timeseries.h),
//   2. asks the owner's collector to build HealthInputs from the ring plus
//      whatever live state only the owner can see (replay depths, backoff),
//   3. evaluates the engine,
//   4. publishes `health{party="..."}` gauges back into the registry (so
//      health rides the existing kStatsText wire surface unchanged),
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
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "health/health_engine.h"
#include "util/clock.h"
#include "util/event_log.h"
#include "util/metrics.h"
#include "util/timeseries.h"

namespace magicrecs {

/// Snapshot ring capacity (util/timeseries.h).
inline constexpr size_t kHealthHistory = 128;

/// Window handed to collectors for rate queries.
inline constexpr int64_t kHealthRateWindowUs = 10'000'000;

class HealthMonitor {
 public:
  /// Builds this tick's HealthInputs. `series` already contains the fresh
  /// snapshot; `window_us` is kHealthRateWindowUs.
  using Collector = std::function<void(const MetricsTimeSeries& series,
                                       int64_t window_us, HealthInputs* out)>;
  /// Called after gauges and journal are updated, outside the tick lock's
  /// critical registry work but still on the monitor thread.
  using Observer = std::function<void(
      const HealthReport& report,
      const std::vector<HealthTransition>& transitions)>;

  /// `registry` and `journal` must outlive the monitor; `journal` may be
  /// null (no journaling, engine state still advances). The background
  /// thread starts immediately and ticks every `interval_ms` (> 0).
  HealthMonitor(MetricsRegistry* registry, EventLog* journal,
                Collector collector, int interval_ms,
                Observer observer = nullptr,
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

  MetricsTimeSeries series_;
  HealthEngine engine_;

  std::mutex tick_mu_;  // serializes EvaluateNow vs the thread

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace magicrecs

#endif  // MAGICRECS_HEALTH_HEALTH_MONITOR_H_
