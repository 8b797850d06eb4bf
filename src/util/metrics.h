// Lightweight operational metrics: named counters, gauges, and latency
// histograms with a snapshot/report facility, the in-process equivalent of
// the service dashboards a production deployment would export to.
//
// One process-wide registry (MetricsRegistry::Default()) is the export
// surface: every subsystem registers its counters there, the kStatsText RPC
// renders it (RenderText is the one export), and nothing else needs to know
// which subsystem owns which counter. A fan-out broker is the exception: it
// counts in a registry of its own (net/fanout_cluster.h), so brokers never
// share a counter with each other or with in-process daemons.
//
// Labels attach dimensions to a name ("publish_apply_us{partition=\"3\"}");
// the label set is canonicalized into the key, so the same (name, labels)
// pair always returns the same metric object.
//
// Counters are strictly monotonic: there is deliberately no Reset() — a
// reset racing a concurrent render would produce a non-monotonic read,
// and every consumer (the health monitor's CounterWindow rates,
// scrape-to-scrape deltas) assumes monotonicity. Callers that need "since X"
// deltas record a baseline and subtract (see RpcServer::stats()).

#ifndef MAGICRECS_UTIL_METRICS_H_
#define MAGICRECS_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/histogram.h"

namespace magicrecs {

/// Monotonically increasing counter. Thread-safe.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

  /// Raises the counter to `target` if it is currently below it (no-op
  /// otherwise). For scrape-time mirroring of thread-compatible sources
  /// (WAL stats, detector stats) into the registry: the mirrored value may
  /// be read from a stale snapshot, and monotonicity must survive that.
  void RaiseTo(uint64_t target) {
    uint64_t current = value_.load(std::memory_order_relaxed);
    while (current < target &&
           !value_.compare_exchange_weak(current, target,
                                         std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous signed value. Thread-safe.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Mutex-guarded wrapper around the thread-compatible util/histogram.h
/// type, so many threads can Record() into one registry entry. Keep one
/// labeled histogram per hot thread (e.g. per partition) when contention
/// matters.
class HistogramMetric {
 public:
  void Record(int64_t value) {
    std::lock_guard<std::mutex> lock(mu_);
    histogram_.Record(value);
  }

  void Merge(const Histogram& other) {
    std::lock_guard<std::mutex> lock(mu_);
    histogram_.Merge(other);
  }

  /// Replaces the contents wholesale. For scrape-time collectors that
  /// recompute a distribution from a thread-compatible source (detector
  /// stats) on every scrape — Merge() would double-count.
  void ReplaceWith(const Histogram& other) {
    std::lock_guard<std::mutex> lock(mu_);
    histogram_ = other;
  }

  /// Consistent copy of the current distribution.
  Histogram Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return histogram_;
  }

 private:
  mutable std::mutex mu_;
  Histogram histogram_;
};

/// Label dimensions for a metric, e.g. {{"partition", "3"}}.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Escapes a label value for embedding in a metric key so the text
/// exposition stays line-oriented and space-splittable: backslash, double
/// quote, newline, CR, tab, space, and `|` become two-character backslash
/// sequences (`\\` `\"` `\n` `\r` `\t` `\s` `\p`). `|` maps to `\p`
/// (not `\|`) so no literal pipe survives escaping — pipes are reserved
/// as a field separator and defanged outright by the prebuilt-key
/// sanitizer. Applied by MetricKey(); exposed so scrapers and tests can
/// round-trip hostile values.
std::string EscapeLabelValue(const std::string& value);

/// Inverse of EscapeLabelValue. Unknown escapes decode to the escaped
/// character itself; a trailing lone backslash is dropped.
std::string UnescapeLabelValue(const std::string& value);

/// Canonical exposition key: `name` alone, or `name{k="v",...}` with the
/// labels sorted by key and the values escaped (EscapeLabelValue). Metric
/// names and label keys are structural — characters that would corrupt the
/// exposition grammar (whitespace, `{}`, `"`, `,`, `=`, `|`, backslash) are
/// replaced with `_` rather than escaped, and the registry counts such
/// rejections in `metrics_sanitized_keys`.
std::string MetricKey(const std::string& name, const MetricLabels& labels);

/// Registry of named metrics. Lookup creates on first use; the returned
/// pointers remain valid for the registry's lifetime, so hot paths resolve
/// once and increment through the cached pointer. Thread-safe.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Counter* GetCounter(const std::string& name, const MetricLabels& labels);

  Gauge* GetGauge(const std::string& name);
  Gauge* GetGauge(const std::string& name, const MetricLabels& labels);

  HistogramMetric* GetHistogram(const std::string& name);
  HistogramMetric* GetHistogram(const std::string& name,
                                const MetricLabels& labels);

  /// Stable text exposition, one metric per line, sorted by key:
  ///   counter <key> <value>
  ///   gauge <key> <value>
  ///   hist <key> count=<n> p50=<v> p90=<v> p99=<v> max=<v> mean=<v>
  /// The leading kind token and the key are the machine-checkable contract
  /// (CI greps it); see docs/observability.md.
  std::string RenderText() const;

  /// The process-wide registry every subsystem reports into.
  static MetricsRegistry* Default();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
};

}  // namespace magicrecs

#endif  // MAGICRECS_UTIL_METRICS_H_
