// Bitmap membership views for hub vertices.
//
// A follower list whose degree is a meaningful fraction of the vertex
// universe answers "is u in this list?" cheaper as a bitmap than as a
// sorted array: one O(1) bit probe instead of a galloping search. The
// threshold layer's candidate verification (intersect/threshold.h) probes a
// hub's list this way.
//
// BitsetView is a non-owning view over raw words; ownership lives in
// graph/static_graph.h's hub index, which packs every hub's bitmap into one
// contiguous arena. This file knows nothing about graphs, so the intersect
// layer stays dependency-free and the differential fuzz suite can drive the
// view directly.

#ifndef MAGICRECS_INTERSECT_BITSET_H_
#define MAGICRECS_INTERSECT_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/types.h"

namespace magicrecs {

/// Non-owning bitmap over vertex ids [0, 64 * num_words). A default view is
/// "absent" (empty()); callers treat absence as "no bitset available", not
/// as an empty set.
struct BitsetView {
  const uint64_t* words = nullptr;
  size_t num_words = 0;

  bool empty() const { return words == nullptr || num_words == 0; }

  /// True iff id `v` is set. Ids beyond the view are not set.
  bool Test(VertexId v) const {
    const size_t w = static_cast<size_t>(v) >> 6;
    return w < num_words && ((words[w] >> (v & 63)) & 1) != 0;
  }
};

/// Fills *bits (sized to cover `universe` ids, zeroed) from a sorted list.
void FillBitset(std::span<const VertexId> list, size_t universe,
                std::vector<uint64_t>* bits);

}  // namespace magicrecs

#endif  // MAGICRECS_INTERSECT_BITSET_H_
