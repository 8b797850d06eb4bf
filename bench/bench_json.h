// Shared JSON row sink for the bench binaries. Every bench writes its rows
// into the same machine-readable file (BENCH_net.json by default for the
// net-adjacent benches) as one JSON array of flat row objects, each tagged
// with a "section". MergeWrite is section-aware: a run rewrites only the
// sections it produced and preserves every other bench's rows, so
// bench_net and bench_e2e_latency can share one artifact without
// clobbering each other (CI archives the merged file).

#ifndef MAGICRECS_BENCH_BENCH_JSON_H_
#define MAGICRECS_BENCH_BENCH_JSON_H_

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "util/histogram.h"
#include "util/str_format.h"

namespace magicrecs::bench {

/// Accumulates one JSON array of row objects; written once at exit.
class JsonRows {
 public:
  void AddThroughput(const char* section, const char* transport, size_t batch,
                     double events_per_sec, uint64_t recs) {
    Add(section, StrFormat(
        "{\"section\": \"%s\", \"transport\": \"%s\", \"batch\": %zu, "
        "\"events_per_sec\": %.1f, \"recs\": %llu}",
        section, transport, batch, events_per_sec,
        static_cast<unsigned long long>(recs)));
  }

  /// One intersection-kernel measurement. `speedup` is time(scalar
  /// reference on the same shape) / time(kernel) — machine-independent, so
  /// it is the gated field; melems_per_sec is informational.
  void AddKernel(const char* section, const char* kernel, const char* shape,
                 double melems_per_sec, double speedup) {
    Add(section, StrFormat(
        "{\"section\": \"%s\", \"kernel\": \"%s\", \"shape\": \"%s\", "
        "\"melems_per_sec\": %.1f, \"speedup\": %.2f}",
        section, kernel, shape, melems_per_sec, speedup));
  }

  void AddConnScale(const char* loop, size_t connections,
                    double requests_per_sec, long server_threads) {
    Add("conn-scale", StrFormat(
        "{\"section\": \"conn-scale\", \"loop\": \"%s\", "
        "\"connections\": %zu, \"requests_per_sec\": %.1f, "
        "\"server_threads\": %ld}",
        loop, connections, requests_per_sec, server_threads));
  }

  void AddLatency(const char* transport, const Histogram& micros) {
    Add("latency", StrFormat(
        "{\"section\": \"latency\", \"transport\": \"%s\", "
        "\"p50_us\": %.1f, \"p90_us\": %.1f, \"p99_us\": %.1f, "
        "\"max_us\": %lld}",
        transport, micros.Percentile(50), micros.Percentile(90),
        micros.Percentile(99), static_cast<long long>(micros.Max())));
  }

  /// One pipeline stage's latency distribution, sourced from wire trace
  /// stamps (bench_net) or the virtual-time tracker (bench_e2e_latency).
  void AddStage(const char* section, const char* transport, const char* stage,
                const Histogram& micros) {
    Add(section, StrFormat(
        "{\"section\": \"%s\", \"transport\": \"%s\", \"stage\": \"%s\", "
        "\"count\": %llu, \"p50_us\": %.1f, \"p99_us\": %.1f, "
        "\"max_us\": %lld}",
        section, transport, stage,
        static_cast<unsigned long long>(micros.Count()),
        micros.Percentile(50), micros.Percentile(99),
        static_cast<long long>(micros.Max())));
  }

  /// A distribution of frame counts (not latencies): the fields say
  /// frames, so the regression gate never treats them as microseconds.
  void AddFrameCounts(const char* section, const char* transport,
                      const char* stage, const Histogram& frames) {
    Add(section, StrFormat(
        "{\"section\": \"%s\", \"transport\": \"%s\", \"stage\": \"%s\", "
        "\"count\": %llu, \"frames_p50\": %.1f, \"frames_p99\": %.1f, "
        "\"frames_max\": %lld}",
        section, transport, stage,
        static_cast<unsigned long long>(frames.Count()),
        frames.Percentile(50), frames.Percentile(99),
        static_cast<long long>(frames.Max())));
  }

  /// Rewrites `path` with this run's rows plus every existing row whose
  /// section this run did NOT produce. Rows are one-per-line, which is the
  /// format Write has always emitted — anything unparseable is dropped.
  void MergeWrite(const char* path) {
    std::vector<std::string> kept;
    if (std::FILE* f = std::fopen(path, "r")) {
      char line[4096];
      while (std::fgets(line, sizeof(line), f) != nullptr) {
        std::string row(line);
        // Trim whitespace and the array scaffolding (brackets, trailing
        // commas) down to the bare row object.
        const size_t begin = row.find('{');
        const size_t end = row.rfind('}');
        if (begin == std::string::npos || end == std::string::npos ||
            end < begin) {
          continue;
        }
        row = row.substr(begin, end - begin + 1);
        if (!sections_.contains(SectionOf(row))) kept.push_back(row);
      }
      std::fclose(f);
    }
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return;
    }
    const size_t total = kept.size() + rows_.size();
    std::fprintf(f, "[\n");
    size_t written = 0;
    for (const std::vector<std::string>* group : {&kept, &rows_}) {
      for (const std::string& row : *group) {
        written++;
        std::fprintf(f, "  %s%s\n", row.c_str(),
                     written < total ? "," : "");
      }
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("\nwrote %zu rows to %s (%zu preserved from other benches)\n",
                rows_.size(), path, kept.size());
  }

 private:
  void Add(const std::string& section, std::string row) {
    sections_.insert(section);
    rows_.push_back(std::move(row));
  }

  static std::string SectionOf(const std::string& row) {
    const std::string key = "\"section\": \"";
    const size_t begin = row.find(key);
    if (begin == std::string::npos) return "";
    const size_t value = begin + key.size();
    const size_t end = row.find('"', value);
    if (end == std::string::npos) return "";
    return row.substr(value, end - value);
  }

  std::set<std::string> sections_;
  std::vector<std::string> rows_;
};

}  // namespace magicrecs::bench

#endif  // MAGICRECS_BENCH_BENCH_JSON_H_
