#pragma once

/// \file rng.hpp
/// Deterministic, seedable pseudo-random number generation.
///
/// Every stochastic component in genfv (random simulation, simulated-LLM
/// sampling noise, property-test input generation) draws from an explicit
/// `Xoshiro256` stream so that runs are reproducible from a printed seed.
/// xoshiro256** is small, fast and has no global state.

#include <cstdint>
#include <vector>

#include "util/status.hpp"

namespace genfv::util {

/// splitmix64: used to expand a single 64-bit seed into xoshiro state.
inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator (Blackman & Vigna).
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept {
    reseed(seed);
  }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  /// Uniform 64-bit value.
  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform value in [0, bound). `bound` must be nonzero.
  std::uint64_t below(std::uint64_t bound) {
    GENFV_ASSERT(bound != 0, "Xoshiro256::below bound must be nonzero");
    // Debiased multiply-shift (Lemire); the retry loop terminates with
    // overwhelming probability after one iteration.
    while (true) {
      const std::uint64_t x = next();
      const unsigned __int128 m =
          static_cast<unsigned __int128>(x) * static_cast<unsigned __int128>(bound);
      const std::uint64_t low = static_cast<std::uint64_t>(m);
      if (low >= bound || low >= (0 - bound) % bound) {
        return static_cast<std::uint64_t>(m >> 64);
      }
    }
  }

  /// Uniform integer in the inclusive range [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    GENFV_ASSERT(lo <= hi, "Xoshiro256::range requires lo <= hi");
    if (lo == 0 && hi == UINT64_MAX) return next();
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double real() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with probability `p` (clamped to [0,1]).
  bool chance(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return real() < p;
  }

  /// Uniform value masked to `width` low bits (width in [1,64]).
  std::uint64_t bits(unsigned width) {
    GENFV_ASSERT(width >= 1 && width <= 64, "bit width out of range");
    return width == 64 ? next() : (next() & ((1ULL << width) - 1));
  }

  /// Pick a uniformly random element index for a container of size n.
  std::size_t index(std::size_t n) { return static_cast<std::size_t>(below(n)); }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
};

}  // namespace genfv::util
