// Offline (batch) diamond-motif enumeration over a recorded stream — the
// classic "static graph snapshot / batch computation" approach the paper
// contrasts with ("nearly all approaches to motif detection are based on a
// static graph snapshot and viewed as batch computations", §1).
//
// Given the full stream up front, it groups dynamic edges by target and
// enumerates, which is structurally different code from the online
// MotifEngine; the two must nevertheless produce the same recommendations.
// The test suite uses this as ground truth, and T4 uses it to quantify the
// staleness of batch results.

#ifndef MAGICRECS_BASELINE_SNAPSHOT_FINDER_H_
#define MAGICRECS_BASELINE_SNAPSHOT_FINDER_H_

#include <vector>

#include "core/motif_plan.h"
#include "core/recommendation.h"
#include "graph/edge.h"
#include "graph/static_graph.h"
#include "util/result.h"

namespace magicrecs {

/// Batch diamond finder.
class SnapshotMotifFinder {
 public:
  /// `follower_index` is the S structure: for vertex B, Neighbors(B) is the
  /// sorted list of accounts following B. Must outlive the finder.
  SnapshotMotifFinder(const StaticGraph* follower_index,
                      const DiamondOptions& options);

  /// Enumerates every recommendation the online detector would emit while
  /// processing `stream` (any order; sorted internally). Results are ordered
  /// by (event_time, item, user).
  Result<std::vector<Recommendation>> FindAll(
      const std::vector<TimestampedEdge>& stream) const;

 private:
  const StaticGraph* follower_index_;
  DiamondOptions options_;
};

}  // namespace magicrecs

#endif  // MAGICRECS_BASELINE_SNAPSHOT_FINDER_H_
