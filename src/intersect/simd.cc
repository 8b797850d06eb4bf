#include "intersect/simd.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MAGICRECS_SIMD_X86 1
#include <immintrin.h>
#else
#define MAGICRECS_SIMD_X86 0
#endif

namespace magicrecs {

namespace {

std::atomic<bool> g_simd_enabled{true};

/// Scalar lower bound with the same gallop-then-narrow contract as the
/// vector path; also the non-AVX2 fallback for SimdGallopLowerBound.
size_t ScalarGallopLowerBound(std::span<const VertexId> sorted, size_t from,
                              VertexId key) {
  size_t lo = from;
  size_t hi = lo + 1;
  while (hi < sorted.size() && sorted[hi] < key) {
    const size_t step = hi - lo;
    lo = hi;
    hi += step * 2;
  }
  hi = std::min(hi, sorted.size());
  const auto it =
      std::lower_bound(sorted.begin() + static_cast<std::ptrdiff_t>(lo),
                       sorted.begin() + static_cast<std::ptrdiff_t>(hi), key);
  return static_cast<size_t>(it - sorted.begin());
}

#if MAGICRECS_SIMD_X86

/// Lower bound over [from, n) with unsigned keys: gallop, narrow to a small
/// window, then scan 8 lanes per step. Sign-bias (xor 0x80000000) turns the
/// unsigned order into the signed order _mm256_cmpgt_epi32 implements.
__attribute__((target("avx2"))) size_t GallopLowerBoundAvx2(
    const VertexId* data, size_t n, size_t from, VertexId key) {
  size_t lo = from;
  size_t hi = lo + 1;
  while (hi < n && data[hi] < key) {
    const size_t step = hi - lo;
    lo = hi;
    hi += step * 2;
  }
  hi = std::min(hi, n);
  while (hi - lo > 32) {
    const size_t mid = lo + (hi - lo) / 2;
    if (data[mid] < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const __m256i bias = _mm256_set1_epi32(INT32_MIN);
  const __m256i vkey =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(key)), bias);
  while (lo + 8 <= hi) {
    const __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + lo)), bias);
    const unsigned below = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(vkey, v))));
    // Sorted lanes make `below` a prefix of ones; its length is how many
    // elements of this block are still < key.
    if (below != 0xFFu) return lo + std::countr_one(below);
    lo += 8;
  }
  while (lo < hi && data[lo] < key) ++lo;
  return lo;
}

bool DetectAvx2() { return __builtin_cpu_supports("avx2") != 0; }

#endif  // MAGICRECS_SIMD_X86

}  // namespace

bool CpuSupportsAvx2() {
#if MAGICRECS_SIMD_X86
  static const bool has_avx2 = DetectAvx2();
  return has_avx2;
#else
  return false;
#endif
}

bool SetSimdEnabled(bool enabled) {
  return g_simd_enabled.exchange(enabled, std::memory_order_relaxed);
}

bool SimdEnabled() {
  return CpuSupportsAvx2() && g_simd_enabled.load(std::memory_order_relaxed);
}

size_t SimdGallopLowerBound(std::span<const VertexId> sorted, size_t from,
                            VertexId key) {
#if MAGICRECS_SIMD_X86
  if (SimdEnabled()) {
    return GallopLowerBoundAvx2(sorted.data(), sorted.size(), from, key);
  }
#endif
  return ScalarGallopLowerBound(sorted, from, key);
}

}  // namespace magicrecs
