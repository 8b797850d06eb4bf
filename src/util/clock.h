// Virtual clock. Every time-dependent component takes a Clock* so that the
// whole system can run deterministically in simulated (virtual) time — this
// is how the end-to-end latency experiments reproduce 7s-median queue delays
// in milliseconds of wall time.

#ifndef MAGICRECS_UTIL_CLOCK_H_
#define MAGICRECS_UTIL_CLOCK_H_

#include <atomic>

#include "util/types.h"

namespace magicrecs {

/// Abstract time source.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current time in microseconds since the UNIX epoch.
  virtual Timestamp Now() const = 0;
};

/// Wall-clock time from the system.
class SystemClock : public Clock {
 public:
  Timestamp Now() const override;

  /// Process-wide singleton (stateless, so sharing is safe).
  static SystemClock* Default();
};

/// Manually driven clock for deterministic tests and virtual-time simulation.
/// Thread-safe: reads and advances are atomic.
class SimulatedClock : public Clock {
 public:
  explicit SimulatedClock(Timestamp start = 0) : now_(start) {}

  Timestamp Now() const override {
    return now_.load(std::memory_order_acquire);
  }

  /// Moves time forward by `delta` (must be non-negative). Returns new time.
  Timestamp Advance(Duration delta) {
    return now_.fetch_add(delta, std::memory_order_acq_rel) + delta;
  }

  /// Jumps to an absolute time. Callers must not move time backwards.
  void Set(Timestamp t) { now_.store(t, std::memory_order_release); }

 private:
  std::atomic<Timestamp> now_;
};

/// Nanoseconds on the monotonic clock (arbitrary epoch), for interval
/// timing on hot paths that read the clock several times per operation.
int64_t SteadyNowNanos();

/// Measures elapsed wall time, for benchmark harnesses.
class Stopwatch {
 public:
  Stopwatch();

  /// Microseconds since construction or the last Reset().
  Duration ElapsedMicros() const;
  double ElapsedSeconds() const {
    return ToSeconds(ElapsedMicros());
  }
  void Reset();

 private:
  Timestamp start_;
};

}  // namespace magicrecs

#endif  // MAGICRECS_UTIL_CLOCK_H_
