// Property test: DynamicInEdgeIndex against a brute-force reference model
// under long random operation sequences — insertions with drifting time,
// interleaved queries, and after every step the retained edge and
// destination counts and a read of the destination just inserted. The late
// cases move time backwards across destinations, pinning the watermark
// retention rule. The duplicate-heavy cases (three sources, one or two
// targets, steps of 0 or 1 microsecond) put many entries equal in both
// source and timestamp into one window, pinning the window's (source, time)
// dedup. The hot-destination cases (400 sources, two targets) keep logs of a
// hundred or more entries.
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

/// Brute-force model of the retention rule: per destination, clamp a
/// late time to that destination's newest edge; then drop every edge, of
/// every destination, created at or before watermark - window (the new edge
/// too, if it is already that old); then apply the per-vertex cap. Queries
/// recompute the window from the retained logs.
class ReferenceModel {
 public:
  explicit ReferenceModel(Duration window, size_t cap)
      : window_(window), cap_(cap) {}

  void Insert(VertexId src, VertexId dst, Timestamp t) {
    const auto it = logs_.find(dst);
    if (it != logs_.end() && t < it->second.back().created_at) {
      t = it->second.back().created_at;  // tolerant-mode clamp
    }
    watermark_ = std::max(watermark_, t);
    const Timestamp cutoff = watermark_ - window_;
    for (auto log = logs_.begin(); log != logs_.end();) {
      std::erase_if(log->second, [cutoff](const TimestampedInEdge& e) {
        return e.created_at <= cutoff;
      });
      log = log->second.empty() ? logs_.erase(log) : std::next(log);
    }
    if (t <= cutoff) return;
    auto& log = logs_[dst];
    log.push_back(TimestampedInEdge{src, t});
    if (cap_ > 0 && log.size() > cap_) log.erase(log.begin());
  }

  std::vector<TimestampedInEdge> Query(VertexId dst, Timestamp now) const {
    const auto it = logs_.find(dst);
    if (it == logs_.end()) return {};
    // Visible in (now - window_, now], deduped by src keeping latest.
    std::map<VertexId, Timestamp> best;
    for (const TimestampedInEdge& e : it->second) {
      if (e.created_at > now - window_ && e.created_at <= now) {
        auto [it2, inserted] = best.try_emplace(e.src, e.created_at);
        if (!inserted) it2->second = std::max(it2->second, e.created_at);
      }
    }
    std::vector<TimestampedInEdge> out;
    out.reserve(best.size());
    for (const auto& [src, t] : best) {
      out.push_back(TimestampedInEdge{src, t});
    }
    return out;
  }

  uint64_t edges() const {
    uint64_t total = 0;
    for (const auto& [dst, log] : logs_) total += log.size();
    return total;
  }
  uint64_t destinations() const { return logs_.size(); }

 private:
  Duration window_;
  size_t cap_;
  Timestamp watermark_ = 0;
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
  /// Late cases: a step moves time back by [0, max_back) instead of
  /// forward, one step in four, so events arrive out of order across
  /// destinations (and are clamped within one).
  Duration max_back = 0;
};

class DynamicGraphModelTest : public ::testing::TestWithParam<ModelCase> {};

TEST_P(DynamicGraphModelTest, AgreesWithBruteForceModel) {
  const ModelCase param = GetParam();
  DynamicGraphOptions opt;
  opt.window = param.window;
  opt.max_in_edges_per_vertex = param.cap;
  DynamicInEdgeIndex index(opt);
  ReferenceModel model(param.window, param.cap);

  const uint64_t seed = BaseSeed() + static_cast<uint64_t>(param.window) +
                        param.cap + static_cast<uint64_t>(param.max_back);
  RecordProperty("seed", std::to_string(seed));
  SCOPED_TRACE("MAGICRECS_FUZZ_SEED=" + std::to_string(BaseSeed()));
  Rng rng(seed);
  Timestamp now = Seconds(1000);
  std::vector<TimestampedInEdge> actual;
  for (int step = 0; step < 20'000; ++step) {
    if (param.max_back > 0 && rng.UniformInt(4) == 0) {
      now -= static_cast<Duration>(
          rng.UniformInt(static_cast<uint64_t>(param.max_back)));
    } else {
      now += static_cast<Duration>(
          rng.UniformInt(static_cast<uint64_t>(param.max_step)));
    }
    const VertexId src = static_cast<VertexId>(rng.UniformInt(param.sources));
    const VertexId dst = static_cast<VertexId>(rng.UniformInt(param.targets));
    ASSERT_TRUE(index.Insert(src, dst, now).ok());
    model.Insert(src, dst, now);
    ASSERT_EQ(index.stats().current_edges, model.edges()) << "step " << step;
    ASSERT_EQ(index.stats().tracked_vertices, model.destinations())
        << "step " << step;
    // The destination just written: its slot survived this step's expiries
    // and any rehash, wherever they moved it.
    index.GetRecentInEdges(dst, now, &actual);
    ASSERT_EQ(actual, model.Query(dst, now))
        << "step " << step << " inserted dst " << dst;

    if (step % 7 == 0) {
      const VertexId q = static_cast<VertexId>(rng.UniformInt(param.targets));
      index.GetRecentInEdges(q, now, &actual);
      const auto expected = model.Query(q, now);
      ASSERT_EQ(actual, expected) << "step " << step << " dst " << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WindowsAndCaps, DynamicGraphModelTest,
    ::testing::Values(ModelCase{Seconds(10), 0}, ModelCase{Seconds(10), 5},
                      ModelCase{Minutes(5), 0}, ModelCase{Minutes(5), 64},
                      ModelCase{Seconds(1), 3},
                      // Hot destinations: 400 sources onto 2 targets, so a
                      // log holds ~150 live entries in long runs of
                      // repeating sources, and inserts and expiries land
                      // mid-log.
                      ModelCase{Minutes(5), 0, 400, 2},
                      ModelCase{Minutes(5), 64, 400, 2},
                      // Duplicate-heavy: ~80 entries per 40 us window, a
                      // third of them repeating a (source, time) pair.
                      ModelCase{40, 0, 3, 1, 2}, ModelCase{40, 5, 3, 2, 2},
                      // Late: time steps back by up to a few seconds, so
                      // the watermark expires edges a late event's own
                      // window would still cover. Many targets keep most
                      // late events on destinations without a newer edge.
                      ModelCase{Seconds(10), 0, 40, 200, Seconds(2),
                                Seconds(4)},
                      ModelCase{Seconds(10), 3, 40, 12, Seconds(2),
                                Seconds(4)},
                      // Late by up to 1.5 windows: some events arrive
                      // already expired.
                      ModelCase{Seconds(1), 0, 40, 50, Millis(600),
                                Millis(1500)}),
    [](const ::testing::TestParamInfo<ModelCase>& info) {
      const ModelCase& c = info.param;
      const std::string window =
          c.window % kMicrosPerSecond == 0
              ? std::to_string(c.window / kMicrosPerSecond) + "s"
              : std::to_string(c.window) + "us";
      return "w" + window + "_cap" + std::to_string(c.cap) +
             (c.sources == 40 ? "" : "_src" + std::to_string(c.sources)) +
             (c.max_back == 0
                  ? ""
                  : "_dst" + std::to_string(c.targets) + "_back" +
                        std::to_string(c.max_back / kMicrosPerMilli) + "ms");
    });

}  // namespace
}  // namespace magicrecs
