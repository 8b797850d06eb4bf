#include "intersect/bitset.h"

namespace magicrecs {

void FillBitset(std::span<const VertexId> list, size_t universe,
                std::vector<uint64_t>* bits) {
  bits->assign((universe + 63) / 64, 0);
  for (const VertexId v : list) {
    if (static_cast<size_t>(v) >= universe) continue;
    (*bits)[static_cast<size_t>(v) >> 6] |= uint64_t{1} << (v & 63);
  }
}

}  // namespace magicrecs
