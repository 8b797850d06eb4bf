// The SIMD-finished lower-bound probe of the threshold layer's candidate
// verification (intersect/threshold.h), behind runtime CPU-feature dispatch.
//
// SimdGallopLowerBound gallops exponentially, narrows by binary search, and
// finishes with an 8-lane vector scan instead of the last ~5 binary-search
// levels, which is where the branch mispredictions live.
//
// It is safe to call on any x86-64 (or non-x86) host: when the CPU lacks
// AVX2 — or SIMD is force-disabled for testing — it runs a scalar probe
// with the same contract. Both return what std::lower_bound would; the
// differential fuzz suite (tests/intersect/differential_test.cc) enforces
// that on every path.

#ifndef MAGICRECS_INTERSECT_SIMD_H_
#define MAGICRECS_INTERSECT_SIMD_H_

#include <cstddef>
#include <span>

#include "util/types.h"

namespace magicrecs {

/// True iff this CPU supports AVX2 (detected once, cached). Compile-time
/// non-x86 targets always return false.
bool CpuSupportsAvx2();

/// Globally enables/disables the SIMD paths at runtime (tests force the
/// scalar fallback through the same entry points). Returns the prior value.
/// Thread-compatible: flip only from single-threaded setup code.
bool SetSimdEnabled(bool enabled);

/// True iff the probe will actually vectorize: AVX2 present and not
/// force-disabled. When false SimdGallopLowerBound runs scalar code.
bool SimdEnabled();

/// First index >= `from` (at most sorted.size()) whose element is >= key,
/// exactly std::lower_bound over [from, end): exponential gallop, then
/// binary narrowing, then an 8-lane vector scan of the final window (scalar
/// scan when !SimdEnabled()). The threshold layer's candidate verification
/// probe for lists without a hub bitmap.
size_t SimdGallopLowerBound(std::span<const VertexId> sorted, size_t from,
                            VertexId key);

}  // namespace magicrecs

#endif  // MAGICRECS_INTERSECT_SIMD_H_
