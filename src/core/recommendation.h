// The output record of motif detection: "push C to A because `witness_count`
// of A's followings followed C within the window".

#ifndef MAGICRECS_CORE_RECOMMENDATION_H_
#define MAGICRECS_CORE_RECOMMENDATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/str_format.h"
#include "util/types.h"

namespace magicrecs {

/// One recommendation candidate produced by a motif detector. This is the
/// "raw candidate" of the paper's funnel; the delivery pipeline decides
/// whether it becomes a push notification.
struct Recommendation {
  /// The user receiving the recommendation (an "A" in the paper's notation).
  VertexId user = kInvalidVertex;

  /// The recommended account or content (a "C").
  VertexId item = kInvalidVertex;

  /// Number of the user's followings that acted on `item` in the window
  /// (>= the detector's k).
  uint32_t witness_count = 0;

  /// The followings that acted (the "B"s), at most the detector's witness
  /// reporting limit (MotifOptions::max_reported_witnesses) of them: the
  /// first that many in the query's gather order (in-window actors after
  /// the celebrity cap) whose static list holds `user`, then sorted
  /// ascending. All of them when witness_count is within the limit.
  std::vector<VertexId> witnesses;

  /// Creation time of the edge that completed the motif.
  Timestamp event_time = 0;

  /// The source of the triggering edge (the final "B").
  VertexId trigger = kInvalidVertex;

  friend bool operator==(const Recommendation&,
                         const Recommendation&) = default;

  std::string ToString() const {
    return StrFormat("recommend %u to %u (witnesses=%u, trigger=%u, t=%lld)",
                     item, user, witness_count, trigger,
                     static_cast<long long>(event_time));
  }
};

}  // namespace magicrecs

#endif  // MAGICRECS_CORE_RECOMMENDATION_H_
