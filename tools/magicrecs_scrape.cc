// magicrecs_scrape — kStatsText scraper. Connects to a magicrecsd daemon
// (or any process serving the wire protocol), sends kStatsText, and prints
// the text exposition to stdout. The CI smoke test and operators grepping
// for a metric both drive this instead of hand-rolling frames.
//
//   magicrecs_scrape --host=127.0.0.1 --port=7421
//
// The first line names the daemon's placement, as its hello reply gave it:
//
//   # placement group=2 partition=1 salt=0
//
// where partition=all marks a daemon that hosts every partition.
//
// Watch mode re-scrapes on an interval and prints the client-side view an
// operator actually wants mid-incident: per-window rates for every counter
// that moved, gauge values, and a `health ...` line per party so a
// degrading daemon is visible without mentally diffing two expositions:
//
//   magicrecs_scrape --port=7421 --watch --interval-ms=1000
//
// Exit status: 0 on a successful scrape (every tick, in watch mode), 1
// when the server answered an error (e.g. a pre-kStatsText daemon), 2 on
// usage or connection failure.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "net/mux_connection.h"
#include "net/wire.h"
#include "util/flags.h"
#include "util/metrics.h"
#include "util/str_format.h"

namespace {

using namespace magicrecs;
using namespace magicrecs::net;

/// Bounds the dial, the hello reply and each scrape call: a stopped or
/// wedged daemon makes the tool exit 2 instead of hanging.
constexpr int kTimeoutMs = 10'000;

/// One parsed exposition: counters and gauges by canonical key. Histogram
/// lines pass through untouched in watch mode only when they move, so the
/// parse keeps their raw text too.
struct Scrape {
  std::map<std::string, unsigned long long> counters;
  std::map<std::string, long long> gauges;
};

/// Parses "counter KEY VALUE" / "gauge KEY VALUE" lines. Keys never
/// contain spaces: the registry escapes label values (docs/observability.md,
/// "Label escaping"), which is exactly what makes this split safe.
Scrape ParseExposition(const std::string& text) {
  Scrape out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const size_t sp1 = line.find(' ');
    if (sp1 == std::string::npos) continue;
    const size_t sp2 = line.find(' ', sp1 + 1);
    if (sp2 == std::string::npos) continue;
    const std::string type = line.substr(0, sp1);
    const std::string key = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::string value = line.substr(sp2 + 1);
    if (type == "counter") {
      out.counters[key] = std::strtoull(value.c_str(), nullptr, 10);
    } else if (type == "gauge") {
      out.gauges[key] = std::strtoll(value.c_str(), nullptr, 10);
    }
  }
  return out;
}

std::string_view HealthStateLabel(long long state) {
  switch (state) {
    case 0: return "healthy";
    case 1: return "degraded";
    case 2: return "critical";
  }
  return "unknown";
}

/// The watch-mode frame: health lines first (unescaped party names), then
/// non-health gauges, then the rate of every counter that moved since the
/// previous scrape.
void PrintWindow(const Scrape& prev, const Scrape& now, double elapsed_s) {
  for (const auto& [key, value] : now.gauges) {
    constexpr std::string_view kPrefix = "health{party=\"";
    if (key.size() <= kPrefix.size() ||
        key.compare(0, kPrefix.size(), kPrefix) != 0 ||
        key.back() != '}') {
      continue;
    }
    std::string party = key.substr(kPrefix.size(),
                                   key.size() - kPrefix.size() - 2);
    party = UnescapeLabelValue(party);
    std::printf("  health %-20s %s\n", party.c_str(),
                std::string(HealthStateLabel(value)).c_str());
  }
  for (const auto& [key, value] : now.gauges) {
    if (key.compare(0, 7, "health{") == 0) continue;
    std::printf("  gauge  %-40s %lld\n", key.c_str(), value);
  }
  for (const auto& [key, value] : now.counters) {
    const auto it = prev.counters.find(key);
    const unsigned long long before =
        it == prev.counters.end() ? 0 : it->second;
    if (value <= before) continue;  // flat counters stay out of the frame
    const double rate =
        elapsed_s > 0 ? static_cast<double>(value - before) / elapsed_s : 0;
    std::printf("  rate   %-40s %10.1f/s  (+%llu)\n", key.c_str(), rate,
                value - before);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 7421;
  bool watch = false;
  int interval_ms = 1000;
  long long count = 0;  // watch forever
  const char* watch_flag = nullptr;  // the last flag that needs --watch
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "magicrecs_scrape — print a daemon's kStatsText exposition\n\n"
          "  --host=ADDR      daemon address (127.0.0.1)\n"
          "  --port=N         daemon port (7421)\n"
          "  --watch          re-scrape on an interval; print per-window\n"
          "                   counter rates, gauges, and health states\n"
          "  --interval-ms=N  watch interval (1000; requires --watch)\n"
          "  --count=N        stop after N watch windows; 0 = forever (0;\n"
          "                   requires --watch)\n");
      return 0;
    } else if (std::strcmp(argv[i], "--watch") == 0) {
      watch = true;
    } else if (FlagValue(argv[i], "interval-ms", &value)) {
      // A watch interval must be positive.
      if (!ParseIntegerFlag("magicrecs_scrape", "interval-ms", value,
                            &interval_ms, 1)) {
        return 2;
      }
      watch_flag = "interval-ms";
    } else if (FlagValue(argv[i], "count", &value)) {
      if (!ParseIntegerFlag("magicrecs_scrape", "count", value, &count, 0)) {
        return 2;
      }
      watch_flag = "count";
    } else if (FlagValue(argv[i], "host", &value)) {
      host = value;
    } else if (FlagValue(argv[i], "port", &value)) {
      if (!ParseIntegerFlag("magicrecs_scrape", "port", value, &port)) {
        return 2;
      }
    } else {
      std::fprintf(stderr, "magicrecs_scrape: unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }
  // A watch-only flag without --watch would be silently ignored.
  if (watch_flag != nullptr && !watch) {
    std::fprintf(stderr, "magicrecs_scrape: --%s requires --watch\n",
                 watch_flag);
    return 2;
  }

  MuxConnectionOptions options;
  options.connect_timeout_ms = kTimeoutMs;
  options.hello_timeout_ms = kTimeoutMs;
  Result<std::unique_ptr<MuxConnection>> conn =
      MuxConnection::Dial(host, port, options);
  if (!conn.ok()) {
    std::fprintf(stderr, "magicrecs_scrape: dialing %s:%u: %s\n",
                 host.c_str(), static_cast<unsigned>(port),
                 conn.status().ToString().c_str());
    return 2;
  }
  const Placement& placed = (*conn)->placement();
  const std::string partition =
      placed.partition == Placement::kAllPartitions
          ? std::string("all")
          : StrFormat("%u", placed.partition);
  std::printf("# placement group=%u partition=%s salt=%llu\n",
              placed.group_size, partition.c_str(),
              static_cast<unsigned long long>(placed.salt));

  const auto scrape_once = [&](std::string* text) -> int {
    std::string request;
    AppendEmptyRequest(MessageTag::kStatsText, &request);
    std::vector<Frame> reply;
    const Status called = (*conn)->CallOne(request, kTimeoutMs, &reply);
    if (!called.ok() || reply.empty()) {
      std::fprintf(stderr, "magicrecs_scrape: scrape failed: %s\n",
                   called.ok() ? "empty reply" : called.ToString().c_str());
      return 2;
    }
    const Frame& frame = reply.front();
    if (frame.tag == MessageTag::kError) {
      std::fprintf(stderr, "magicrecs_scrape: server error: %s\n",
                   DecodeError(frame.payload).ToString().c_str());
      return 1;
    }
    if (frame.tag != MessageTag::kStatsTextReply ||
        !DecodeStatsTextReply(frame.payload, text).ok()) {
      std::fprintf(stderr, "magicrecs_scrape: malformed reply (tag %s)\n",
                   std::string(MessageTagName(frame.tag)).c_str());
      return 2;
    }
    return 0;
  };

  if (!watch) {
    std::string text;
    const int rc = scrape_once(&text);
    if (rc != 0) return rc;
    std::fwrite(text.data(), 1, text.size(), stdout);
    if (!text.empty() && text.back() != '\n') std::fputc('\n', stdout);
    return 0;
  }

  // Watch loop. The FIRST scrape only seeds the baseline — rates need two
  // points — so `count` windows means count+1 scrapes.
  std::string text;
  int rc = scrape_once(&text);
  if (rc != 0) return rc;
  Scrape prev = ParseExposition(text);
  auto prev_at = std::chrono::steady_clock::now();
  for (long long window = 0; count == 0 || window < count; ++window) {
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    rc = scrape_once(&text);
    if (rc != 0) return rc;
    const auto now_at = std::chrono::steady_clock::now();
    const double elapsed_s =
        std::chrono::duration<double>(now_at - prev_at).count();
    const Scrape now = ParseExposition(text);
    std::printf("-- %s:%u window %.1fs --\n", host.c_str(),
                static_cast<unsigned>(port), elapsed_s);
    PrintWindow(prev, now, elapsed_s);
    std::fflush(stdout);
    prev = now;
    prev_at = now_at;
  }
  return 0;
}
