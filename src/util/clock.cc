#include "util/clock.h"

#include <chrono>

namespace magicrecs {

Timestamp SystemClock::Now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

SystemClock* SystemClock::Default() {
  static SystemClock clock;
  return &clock;
}

namespace {
Timestamp SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

int64_t SteadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Stopwatch::Stopwatch() : start_(SteadyNowMicros()) {}

Duration Stopwatch::ElapsedMicros() const { return SteadyNowMicros() - start_; }

void Stopwatch::Reset() { start_ = SteadyNowMicros(); }

}  // namespace magicrecs
