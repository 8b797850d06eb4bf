// The second rejected design of §2: "Another approach would be to keep track
// of each A's two-hop neighborhood; a rough calculation shows that this is
// impractical, even using approximate data structures such as Bloom filters."
//
// This baseline materializes per-user counters of recently-acted-on targets,
// updated by fanning every stream edge B -> C out to all of B's followers —
// the write amplification and memory footprint experiment T4 measures.
//
// Two modes:
//   * kExact        — per-user hash map target -> count (unbounded memory);
//   * kApproximate  — per-user fixed row of hashed counters (count-min with
//                     one row, the "Bloom-filter-style" economy version);
//                     collisions produce false positives, quantified against
//                     the exact online results.
//
// Window semantics are epoch-rotated (current + previous epoch of length
// `window`), an approximation of the sliding window — one more reason the
// design loses to the online detector even before cost.

#ifndef MAGICRECS_BASELINE_TWOHOP_TRACKER_H_
#define MAGICRECS_BASELINE_TWOHOP_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/recommendation.h"
#include "graph/static_graph.h"
#include "util/status.h"
#include "util/types.h"

namespace magicrecs {

/// Parameters of the two-hop materialization baseline.
struct TwoHopOptions {
  uint32_t k = 3;
  Duration window = Minutes(10);

  enum class Mode { kExact, kApproximate };
  Mode mode = Mode::kExact;

  /// Approximate mode: counters per user (memory = users * counters bytes).
  size_t counters_per_user = 256;

  bool exclude_existing_followers = true;
};

/// Cost accounting for the two-hop baseline.
struct TwoHopStats {
  uint64_t events = 0;
  uint64_t counter_updates = 0;  ///< fan-out write amplification
  uint64_t emitted = 0;
  uint64_t tracked_users = 0;

  /// counter_updates / events: how many writes one stream edge costs.
  double WriteAmplification() const {
    return events == 0 ? 0
                       : static_cast<double>(counter_updates) /
                             static_cast<double>(events);
  }

  std::string ToString() const;
};

/// Materialized two-hop neighborhood counts. Thread-compatible.
class TwoHopTracker {
 public:
  /// `follower_index` is the S structure (Neighbors(B) = sorted followers
  /// of B). Must outlive the tracker.
  TwoHopTracker(const StaticGraph* follower_index,
                const TwoHopOptions& options);

  /// Ingests a stream edge, fanning counter updates out to every follower
  /// of `src`; appends a recommendation whenever a (user, target) count
  /// first reaches k in the current epoch pair.
  Status OnEdge(VertexId src, VertexId dst, Timestamp t,
                std::vector<Recommendation>* out);

  const TwoHopStats& stats() const;
  size_t MemoryUsage() const;

 private:
  struct ExactUserState {
    std::unordered_map<VertexId, uint16_t> current;
    std::unordered_map<VertexId, uint16_t> previous;
  };
  struct ApproxUserState {
    std::vector<uint8_t> current;
    std::vector<uint8_t> previous;
  };

  /// Rotates epochs if `t` entered a new window epoch.
  void MaybeRotate(Timestamp t);

  uint32_t CountFor(VertexId user, VertexId target) const;
  void Bump(VertexId user, VertexId target);

  const StaticGraph* follower_index_;
  TwoHopOptions options_;
  int64_t current_epoch_ = -1;

  std::unordered_map<VertexId, ExactUserState> exact_;
  std::unordered_map<VertexId, ApproxUserState> approx_;

  /// (actor, target) stream edges already counted this epoch. Without this
  /// the scheme counts repeat actions by the same B as extra witnesses —
  /// and with it, the design pays yet another piece of per-edge memory the
  /// online detector does not need.
  std::unordered_set<uint64_t> seen_edges_current_;
  std::unordered_set<uint64_t> seen_edges_previous_;

  /// (user, target) pairs already emitted in the current epoch pair.
  std::unordered_map<uint64_t, int64_t> emitted_epoch_;

  mutable TwoHopStats stats_;
};

}  // namespace magicrecs

#endif  // MAGICRECS_BASELINE_TWOHOP_TRACKER_H_
