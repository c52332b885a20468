// Deterministic pseudo-random number generation.
//
// All randomized components in DiCE (workload generation, random-fuzz baseline,
// the random search strategy) take an explicit Rng so that every run is
// reproducible from a seed. The generator is xoshiro256**, seeded via
// SplitMix64, which is fast and statistically strong for simulation purposes.

#ifndef SRC_UTIL_RNG_H_
#define SRC_UTIL_RNG_H_

#include <cstdint>
#include <vector>

#include "src/util/logging.h"

namespace dice {

class Rng {
 public:
  explicit Rng(uint64_t seed) { Seed(seed); }

  void Seed(uint64_t seed) {
    // SplitMix64 expansion of the seed into the xoshiro state.
    uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s = z ^ (z >> 31);
    }
  }

  // Uniform over all 64-bit values.
  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  uint32_t NextU32() { return static_cast<uint32_t>(NextU64() >> 32); }

  // Uniform in [0, bound). bound must be nonzero.
  uint64_t NextBelow(uint64_t bound) {
    DICE_CHECK_GT(bound, 0u);
    // Rejection sampling to remove modulo bias.
    const uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      uint64_t r = NextU64();
      if (r >= threshold) {
        return r % bound;
      }
    }
  }

  // Uniform in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi) {
    DICE_CHECK_LE(lo, hi);
    uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
    if (span == 0) {
      return static_cast<int64_t>(NextU64());  // full 64-bit range
    }
    return lo + static_cast<int64_t>(NextBelow(span));
  }

  // Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

  // True with probability p (clamped to [0,1]).
  bool NextBool(double p) { return NextDouble() < p; }

  // Samples an index according to the (non-negative) weights. Total must be > 0.
  size_t NextWeighted(const std::vector<double>& weights) {
    double total = 0;
    for (double w : weights) {
      total += w;
    }
    DICE_CHECK_GT(total, 0.0);
    double target = NextDouble() * total;
    double acc = 0;
    for (size_t i = 0; i < weights.size(); ++i) {
      acc += weights[i];
      if (target < acc) {
        return i;
      }
    }
    return weights.size() - 1;
  }

  // Power-law-ish sample via Zipf over [0, n). Used by the topology generator.
  size_t NextZipf(size_t n, double exponent);

  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = NextBelow(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4] = {};
};

}  // namespace dice

#endif  // SRC_UTIL_RNG_H_
