#include "util/metrics.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace magicrecs {
namespace {

TEST(CounterTest, IncrementAndValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(5);
  EXPECT_EQ(c.Value(), 6u);
}

TEST(CounterTest, RaiseToIsMonotone) {
  Counter c;
  c.RaiseTo(10);
  EXPECT_EQ(c.Value(), 10u);
  c.RaiseTo(4);  // stale mirror read: never lowers
  EXPECT_EQ(c.Value(), 10u);
  c.RaiseTo(12);
  EXPECT_EQ(c.Value(), 12u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
}

TEST(HistogramMetricTest, RecordAndSnapshot) {
  HistogramMetric h;
  h.Record(1);
  h.Record(3);
  const Histogram snapshot = h.Snapshot();
  EXPECT_EQ(snapshot.Count(), 2u);
  EXPECT_EQ(snapshot.Max(), 3);
}

TEST(HistogramMetricTest, ReplaceWithDoesNotAccumulate) {
  HistogramMetric h;
  Histogram source;
  source.Record(5);
  // A scrape-time collector recomputes the distribution every scrape:
  // ReplaceWith must land the same count each time, where Merge would
  // double it.
  h.ReplaceWith(source);
  h.ReplaceWith(source);
  EXPECT_EQ(h.Snapshot().Count(), 1u);
  h.Merge(source);
  EXPECT_EQ(h.Snapshot().Count(), 2u);
}

TEST(MetricKeyTest, CanonicalizesLabels) {
  EXPECT_EQ(MetricKey("events", {}), "events");
  EXPECT_EQ(MetricKey("apply_us", {{"partition", "3"}}),
            "apply_us{partition=\"3\"}");
  // Label order must not matter: the key sorts them.
  EXPECT_EQ(MetricKey("x", {{"b", "2"}, {"a", "1"}}),
            MetricKey("x", {{"a", "1"}, {"b", "2"}}));
}

TEST(MetricsRegistryTest, SameNameSameCounter) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("events");
  Counter* b = registry.GetCounter("events");
  EXPECT_EQ(a, b);
  a->Increment();
  EXPECT_EQ(b->Value(), 1u);
}

TEST(MetricsRegistryTest, DistinctNamesDistinctMetrics) {
  MetricsRegistry registry;
  EXPECT_NE(registry.GetCounter("a"), registry.GetCounter("b"));
  EXPECT_NE(registry.GetGauge("a"), registry.GetGauge("b"));
  EXPECT_NE(registry.GetHistogram("a"), registry.GetHistogram("b"));
}

TEST(MetricsRegistryTest, LabeledLookupsAreDistinctPerLabelSet) {
  MetricsRegistry registry;
  Counter* p0 = registry.GetCounter("apply", {{"partition", "0"}});
  Counter* p1 = registry.GetCounter("apply", {{"partition", "1"}});
  EXPECT_NE(p0, p1);
  // The same (name, labels) pair resolves to the same object regardless of
  // label order.
  EXPECT_EQ(registry.GetCounter("x", {{"a", "1"}, {"b", "2"}}),
            registry.GetCounter("x", {{"b", "2"}, {"a", "1"}}));
}

TEST(MetricsRegistryTest, SnapshotContainsAll) {
  MetricsRegistry registry;
  registry.GetCounter("events")->Increment(3);
  registry.GetGauge("depth")->Set(-2);
  EXPECT_EQ(registry.RenderText(), "counter events 3\ngauge depth -2\n");
}

TEST(MetricsRegistryTest, RenderTextExposition) {
  MetricsRegistry registry;
  registry.GetCounter("events")->Increment(3);
  registry.GetGauge("depth")->Set(-2);
  registry.GetHistogram("lat_us", {{"partition", "0"}})->Record(4);
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("counter events 3\n"), std::string::npos) << text;
  EXPECT_NE(text.find("gauge depth -2\n"), std::string::npos) << text;
  EXPECT_NE(text.find("hist lat_us{partition=\"0\"} count=1 p50=4 p90=4 "
                      "p99=4 max=4 mean=4\n"),
            std::string::npos)
      << text;
}

TEST(MetricsRegistryTest, ConcurrentAccessIsSafe) {
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1'000; ++i) {
        registry.GetCounter("shared")->Increment();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("shared")->Value(), 4'000u);
}

// The scrape surface renders while hot paths record: lookups, increments,
// histogram records, and the renderer race here so TSan can prove the
// registry's locking (this test is in CI's TSan set).
TEST(MetricsRegistryTest, ConcurrentRecordAndRenderIsSafe) {
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < 500; ++i) {
        registry.GetCounter("hot")->Increment();
        registry.GetHistogram("lat", {{"thread", t == 0 ? "0" : "1"}})
            ->Record(i);
        registry.GetCounter("raised")->RaiseTo(static_cast<uint64_t>(i));
      }
    });
  }
  threads.emplace_back([&registry] {
    for (int i = 0; i < 200; ++i) {
      (void)registry.RenderText();
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("hot")->Value(), 1'000u);
}

TEST(LabelEscapingTest, RoundTripsHostileValues) {
  const std::string hostile = "a b|c\"d\\e\nf\rg\th";
  const std::string escaped = EscapeLabelValue(hostile);
  // Every structural character of the text exposition is gone.
  EXPECT_EQ(escaped.find(' '), std::string::npos) << escaped;
  EXPECT_EQ(escaped.find('|'), std::string::npos) << escaped;
  EXPECT_EQ(escaped.find('\n'), std::string::npos) << escaped;
  EXPECT_EQ(escaped.find('\r'), std::string::npos) << escaped;
  EXPECT_EQ(escaped.find('\t'), std::string::npos) << escaped;
  EXPECT_EQ(UnescapeLabelValue(escaped), hostile);
}

TEST(LabelEscapingTest, UnescapeToleratesMalformedInput) {
  EXPECT_EQ(UnescapeLabelValue("plain"), "plain");
  EXPECT_EQ(UnescapeLabelValue("\\x"), "x");  // unknown escape: literal
  EXPECT_EQ(UnescapeLabelValue("tail\\"), "tail");  // lone trailing backslash
}

// The regression behind this suite: a label value carrying spaces, pipes,
// or newlines must not corrupt the line- and space-delimited kStatsText
// exposition (one "type key value" per line, keys free of spaces).
TEST(MetricsRegistryTest, HostileLabelValuesCannotCorruptTheExposition) {
  MetricsRegistry registry;
  registry.GetCounter("req", {{"peer", "evil host|9 count=1\ncounter fake"}})
      ->Increment(7);
  registry.GetGauge("depth", {{"q", "a b"}})->Set(3);
  const std::string text = registry.RenderText();
  // Still exactly one line per metric...
  size_t lines = 0;
  for (const char c : text) lines += c == '\n';
  EXPECT_EQ(lines, 2u) << text;
  // ...the injected "counter fake" never became its own line...
  EXPECT_EQ(text.find("\ncounter fake"), std::string::npos) << text;
  // ...and each line still splits into exactly "type key value".
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const size_t sp1 = line.find(' ');
    const size_t sp2 = line.find(' ', sp1 + 1);
    ASSERT_NE(sp2, std::string::npos) << line;
    EXPECT_EQ(line.find(' ', sp2 + 1), std::string::npos) << line;
  }
  // The original value is still recoverable from the key.
  EXPECT_NE(text.find(EscapeLabelValue("evil host|9 count=1\ncounter fake")),
            std::string::npos)
      << text;
}

TEST(MetricsRegistryTest, HostileNamesAreSanitizedOnInsert) {
  MetricsRegistry registry;
  // Structural characters in a metric NAME or label KEY (not value) are
  // replaced outright — there is no quoting position for them.
  Counter* weird = registry.GetCounter("a b\nc", {{"k v", "1"}});
  weird->Increment();
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("counter a_b_c{k_v=\"1\"} 1\n"), std::string::npos)
      << text;
}

TEST(MetricsRegistryTest, PrebuiltKeysWithLineBreaksAreDefanged) {
  MetricsRegistry registry;
  // The single-arg path receives prebuilt canonical keys, where braces and
  // quotes are legal — but raw line breaks and pipes never are.
  registry.GetCounter("evil\nname|x")->Increment();
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("counter evil_name_x 1\n"), std::string::npos) << text;
}

TEST(MetricsRegistryTest, SanitizationIsCounted) {
  // MetricKey() tallies sanitized lookups in the DEFAULT registry (the
  // sanitizer has no handle on the registry being addressed), so read the
  // counter as a before/after delta.
  Counter* tally =
      MetricsRegistry::Default()->GetCounter("metrics_sanitized_keys");
  const uint64_t before = tally->Value();
  (void)MetricKey("bad name", {});
  EXPECT_EQ(tally->Value(), before + 1);
  (void)MetricKey("fine", {{"also", "fine"}});
  EXPECT_EQ(tally->Value(), before + 1);
}

}  // namespace
}  // namespace magicrecs
