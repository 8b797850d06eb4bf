// Deterministic pseudo-randomness for workload generation and delay models.
//
// Every randomized component in magicrecs takes an explicit 64-bit seed so
// that experiments are reproducible bit-for-bit. The core engine is
// xoshiro256** (Blackman & Vigna), seeded via SplitMix64; distributions
// include the heavy-tailed ones needed to model the Twitter follow graph
// (Zipf popularity, log-normal out-degree) and message-queue propagation
// delays (log-normal, exponential).

#ifndef MAGICRECS_UTIL_RANDOM_H_
#define MAGICRECS_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/types.h"

namespace magicrecs {

/// SplitMix64 step: maps any 64-bit state to a well-mixed output. Also used
/// as a cheap hash for integers (the partitioner, the two-hop baseline's
/// counter slots, the quiet-hours offsets).
uint64_t SplitMix64(uint64_t x);

/// xoshiro256** generator: fast, 256-bit state, passes BigCrush.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform over all 64-bit values.
  uint64_t NextUint64();

  /// Uniform in [0, n). Pre: n > 0. Uses Lemire's multiply-shift rejection.
  uint64_t UniformInt(uint64_t n);

  /// Uniform in [lo, hi] inclusive. Pre: lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Exponential with the given mean (> 0).
  double Exponential(double mean);

  /// Standard normal via Box-Muller (no state carried between calls).
  double Normal(double mean, double stddev);

  /// Log-normal: exp(N(mu, sigma)). Note mu/sigma parametrize the
  /// underlying normal, not the resulting mean/median.
  double LogNormal(double mu, double sigma);

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64).
  uint64_t Poisson(double mean);

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Forks an independent stream (for per-thread / per-component rngs).
  Rng Fork();

 private:
  uint64_t s_[4];
};

/// Zipf distribution over {1, ..., n} with P(k) proportional to 1/k^q,
/// sampled in O(1) expected time via rejection-inversion (Hormann &
/// Derflinger 1996; the algorithm used by Apache Commons and absl).
///
/// Used to model account popularity: the Twitter follow graph's in-degree
/// distribution is heavy-tailed [Myers et al., WWW'14].
class ZipfDistribution {
 public:
  /// Pre: n >= 1, q > 0 (q == 1 handled exactly).
  ZipfDistribution(uint64_t n, double q);

  /// Sample in {1, ..., n}.
  uint64_t Sample(Rng* rng) const;

  uint64_t n() const { return n_; }
  double exponent() const { return q_; }

 private:
  double H(double x) const;         // integral of 1/x^q
  double HInverse(double x) const;  // inverse of H

  uint64_t n_;
  double q_;
  double h_x1_;          // H(1.5) - 1
  double h_n_;           // H(n + 0.5)
  double s_;
};

/// Creates an arbitrary-discrete-distribution sampler in O(1) per sample
/// via Walker's alias method. Used where popularity must follow an
/// empirical (non-parametric) weight vector.
class AliasSampler {
 public:
  /// Pre: weights non-empty, all >= 0, at least one > 0.
  explicit AliasSampler(const std::vector<double>& weights);

  /// Sample an index in [0, weights.size()).
  size_t Sample(Rng* rng) const;

  size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
};

}  // namespace magicrecs

#endif  // MAGICRECS_UTIL_RANDOM_H_
