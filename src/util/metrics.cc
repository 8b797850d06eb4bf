#include "util/metrics.h"

#include <algorithm>

#include "util/str_format.h"

namespace magicrecs {

namespace {

/// Formats a double without trailing-zero noise ("4" not "4.000000", but
/// "4.5" stays "4.5"): stable exposition output must not depend on printf
/// default precision.
std::string CompactDouble(double v) {
  std::string s = StrFormat("%.3f", v);
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

std::string HistogramSummaryText(const Histogram& h) {
  return StrFormat("count=%llu p50=%s p90=%s p99=%s max=%lld mean=%s",
                   static_cast<unsigned long long>(h.Count()),
                   CompactDouble(h.Percentile(50)).c_str(),
                   CompactDouble(h.Percentile(90)).c_str(),
                   CompactDouble(h.Percentile(99)).c_str(),
                   static_cast<long long>(h.Max()),
                   CompactDouble(h.Mean()).c_str());
}

/// Replaces exposition-grammar characters in a metric name or label key
/// with '_'. Names and keys are structural tokens, not data: escaping them
/// would push the complexity onto every line-oriented consumer, so they are
/// sanitized instead and the rejection is counted.
std::string SanitizeStructural(const std::string& token, bool* changed) {
  std::string out = token;
  for (char& c : out) {
    switch (c) {
      case ' ':
      case '\t':
      case '\n':
      case '\r':
      case '{':
      case '}':
      case '"':
      case ',':
      case '=':
      case '|':
      case '\\':
        c = '_';
        *changed = true;
        break;
      default:
        break;
    }
  }
  return out;
}

/// Sanitizes a prebuilt key handed to the single-argument Get* overloads.
/// Keys built by MetricKey() never contain raw whitespace or `|` (label
/// values arrive escaped), so only line/token-breaking characters are
/// replaced; braces, quotes, and backslashes are legitimate key structure.
std::string SanitizePrebuiltKey(const std::string& key, bool* changed) {
  std::string out = key;
  for (char& c : out) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '|') {
      c = '_';
      *changed = true;
    }
  }
  return out;
}

}  // namespace

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case ' ':
        out += "\\s";
        break;
      case '|':
        // Not `\|`: a literal pipe in the escaped form would survive into
        // the key, where pipes are reserved (the prebuilt-key sanitizer
        // defangs them). `\p` keeps the escaped value pipe-free.
        out += "\\p";
        break;
      default:
        out.push_back(c);
        break;
    }
  }
  return out;
}

std::string UnescapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (size_t i = 0; i < value.size(); ++i) {
    if (value[i] != '\\' || i + 1 == value.size()) {
      if (value[i] != '\\') out.push_back(value[i]);
      continue;
    }
    const char next = value[++i];
    switch (next) {
      case 'n':
        out.push_back('\n');
        break;
      case 'r':
        out.push_back('\r');
        break;
      case 't':
        out.push_back('\t');
        break;
      case 's':
        out.push_back(' ');
        break;
      case 'p':
        out.push_back('|');
        break;
      default:
        out.push_back(next);
        break;
    }
  }
  return out;
}

std::string MetricKey(const std::string& name, const MetricLabels& labels) {
  bool changed = false;
  std::string key = SanitizeStructural(name, &changed);
  if (!labels.empty()) {
    MetricLabels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    key += "{";
    for (size_t i = 0; i < sorted.size(); ++i) {
      if (i > 0) key += ",";
      key += SanitizeStructural(sorted[i].first, &changed) + "=\"" +
             EscapeLabelValue(sorted[i].second) + "\"";
    }
    key += "}";
  }
  if (changed) {
    MetricsRegistry::Default()->GetCounter("metrics_sanitized_keys")
        ->Increment();
  }
  return key;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  bool changed = false;
  const std::string key = SanitizePrebuiltKey(name, &changed);
  Counter* counter;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = counters_[key];
    if (!slot) slot = std::make_unique<Counter>();
    counter = slot.get();
  }
  if (changed) GetCounter("metrics_sanitized_keys")->Increment();
  return counter;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const MetricLabels& labels) {
  return GetCounter(MetricKey(name, labels));
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  bool changed = false;
  const std::string key = SanitizePrebuiltKey(name, &changed);
  Gauge* gauge;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = gauges_[key];
    if (!slot) slot = std::make_unique<Gauge>();
    gauge = slot.get();
  }
  if (changed) GetCounter("metrics_sanitized_keys")->Increment();
  return gauge;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const MetricLabels& labels) {
  return GetGauge(MetricKey(name, labels));
}

HistogramMetric* MetricsRegistry::GetHistogram(const std::string& name) {
  bool changed = false;
  const std::string key = SanitizePrebuiltKey(name, &changed);
  HistogramMetric* histogram;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = histograms_[key];
    if (!slot) slot = std::make_unique<HistogramMetric>();
    histogram = slot.get();
  }
  if (changed) GetCounter("metrics_sanitized_keys")->Increment();
  return histogram;
}

HistogramMetric* MetricsRegistry::GetHistogram(const std::string& name,
                                               const MetricLabels& labels) {
  return GetHistogram(MetricKey(name, labels));
}

std::string MetricsRegistry::RenderText() const {
  // Copy the pointers out under mu_ and read the values unlocked:
  // Value()/Snapshot() are individually safe, and holding the registry
  // mutex across a whole render would serialize against every hot-path
  // GetCounter() miss. The maps are sorted, so the copies are too.
  std::vector<std::pair<std::string, const Counter*>> counters;
  std::vector<std::pair<std::string, const Gauge*>> gauges;
  std::vector<std::pair<std::string, const HistogramMetric*>> histograms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_) counters.emplace_back(name, c.get());
    gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_) gauges.emplace_back(name, g.get());
    histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
      histograms.emplace_back(name, h.get());
    }
  }
  std::string out;
  for (const auto& [name, c] : counters) {
    out += StrFormat("counter %s %llu\n", name.c_str(),
                     static_cast<unsigned long long>(c->Value()));
  }
  for (const auto& [name, g] : gauges) {
    out += StrFormat("gauge %s %lld\n", name.c_str(),
                     static_cast<long long>(g->Value()));
  }
  for (const auto& [name, h] : histograms) {
    out += StrFormat("hist %s %s\n", name.c_str(),
                     HistogramSummaryText(h->Snapshot()).c_str());
  }
  return out;
}

MetricsRegistry* MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return registry;
}

}  // namespace magicrecs
