// Property test: DynamicInEdgeIndex against a brute-force reference model
// under long random operation sequences — insertions with drifting time,
// interleaved queries, periodic global prunes. The duplicate-heavy cases
// (three sources, one or two targets, steps of 0 or 1 microsecond) put
// many entries equal in both source and timestamp into one window, pinning
// the window's (source, time) dedup.
//
// Failures print the seed; rerun with MAGICRECS_FUZZ_SEED=<seed>.

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/dynamic_graph.h"
#include "util/random.h"

namespace magicrecs {
namespace {

/// Brute-force model: remembers every edge ever inserted (with the same
/// clamping rule) and recomputes window queries from scratch.
class ReferenceModel {
 public:
  explicit ReferenceModel(Duration window, size_t cap)
      : window_(window), cap_(cap) {}

  void Insert(VertexId src, VertexId dst, Timestamp t) {
    auto& log = logs_[dst];
    if (!log.empty() && t < log.back().created_at) {
      t = log.back().created_at;  // tolerant-mode clamp
    }
    log.push_back(TimestampedInEdge{src, t});
  }

  std::vector<TimestampedInEdge> Query(VertexId dst, Timestamp now) const {
    const auto it = logs_.find(dst);
    if (it == logs_.end()) return {};
    const auto& log = it->second;
    // Replicate retention: per-insert window pruning plus the per-vertex
    // cap. The retained window at index i spans the in-window suffix,
    // clipped to the cap (eviction is oldest-first and cumulative; both
    // boundaries only move forward, so the final state is the max).
    size_t begin = 0;
    for (size_t i = 0; i < log.size(); ++i) {
      const Timestamp cutoff = log[i].created_at - window_;
      size_t w = begin;
      while (w <= i && log[w].created_at <= cutoff) ++w;
      begin = std::max(begin, w);
      if (cap_ > 0 && i + 1 - begin > cap_) begin = i + 1 - cap_;
    }
    // Visible in (now - window_, now], deduped by src keeping latest.
    std::map<VertexId, Timestamp> best;
    for (size_t i = begin; i < log.size(); ++i) {
      if (log[i].created_at > now - window_ && log[i].created_at <= now) {
        auto [it2, inserted] = best.try_emplace(log[i].src, log[i].created_at);
        if (!inserted) it2->second = std::max(it2->second, log[i].created_at);
      }
    }
    std::vector<TimestampedInEdge> out;
    out.reserve(best.size());
    for (const auto& [src, t] : best) {
      out.push_back(TimestampedInEdge{src, t});
    }
    return out;
  }

 private:
  Duration window_;
  size_t cap_;
  std::map<VertexId, std::vector<TimestampedInEdge>> logs_;
};

uint64_t BaseSeed() {
  if (const char* env = std::getenv("MAGICRECS_FUZZ_SEED")) {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return 1234;
}

struct ModelCase {
  Duration window;
  size_t cap;
  uint64_t sources = 40;           ///< srcs drawn from [0, sources)
  uint64_t targets = 12;           ///< dsts drawn from [0, targets)
  Duration max_step = Seconds(2);  ///< each step advances time [0, max_step)
};

class DynamicGraphModelTest : public ::testing::TestWithParam<ModelCase> {};

TEST_P(DynamicGraphModelTest, AgreesWithBruteForceModel) {
  const ModelCase param = GetParam();
  DynamicGraphOptions opt;
  opt.window = param.window;
  opt.max_in_edges_per_vertex = param.cap;
  DynamicInEdgeIndex index(opt);
  ReferenceModel model(param.window, param.cap);

  const uint64_t seed =
      BaseSeed() + static_cast<uint64_t>(param.window) + param.cap;
  RecordProperty("seed", std::to_string(seed));
  Rng rng(seed);
  Timestamp now = 0;
  std::vector<TimestampedInEdge> actual;
  for (int step = 0; step < 20'000; ++step) {
    now += static_cast<Duration>(
        rng.UniformInt(static_cast<uint64_t>(param.max_step)));
    const VertexId src = static_cast<VertexId>(rng.UniformInt(param.sources));
    const VertexId dst = static_cast<VertexId>(rng.UniformInt(param.targets));
    ASSERT_TRUE(index.Insert(src, dst, now).ok());
    model.Insert(src, dst, now);

    if (step % 7 == 0) {
      const VertexId q = static_cast<VertexId>(rng.UniformInt(param.targets));
      index.GetRecentInEdges(q, now, &actual);
      const auto expected = model.Query(q, now);
      ASSERT_EQ(actual, expected)
          << "step " << step << " dst " << q
          << " MAGICRECS_FUZZ_SEED=" << BaseSeed();
    }
    if (step % 1000 == 999) {
      index.PruneAll(now);  // global prune must not change query results
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WindowsAndCaps, DynamicGraphModelTest,
    ::testing::Values(ModelCase{Seconds(10), 0}, ModelCase{Seconds(10), 5},
                      ModelCase{Minutes(5), 0}, ModelCase{Minutes(5), 64},
                      ModelCase{Seconds(1), 3},
                      // Duplicate-heavy: ~80 entries per 40 us window, a
                      // third of them repeating a (source, time) pair.
                      ModelCase{40, 0, 3, 1, 2}, ModelCase{40, 5, 3, 2, 2}),
    [](const ::testing::TestParamInfo<ModelCase>& info) {
      const ModelCase& c = info.param;
      const std::string window =
          c.window % kMicrosPerSecond == 0
              ? std::to_string(c.window / kMicrosPerSecond) + "s"
              : std::to_string(c.window) + "us";
      return "w" + window + "_cap" + std::to_string(c.cap) +
             (c.sources == 40 ? "" : "_src" + std::to_string(c.sources));
    });

}  // namespace
}  // namespace magicrecs
